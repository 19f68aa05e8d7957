from fractions import Fraction

import pytest

from graphfair.core import (
    Agent,
    Allocation,
    GoodsGraph,
    Instance,
    InvalidInputError,
    as_value,
    validate_instance,
    value_str,
)

from naive_oracles import assigned_vertices, is_alpha_bounded, is_partition_of, packing_problems


def test_as_value_accepts_rationals():
    assert as_value(3) == Fraction(3)
    assert as_value("2/7") == Fraction(2, 7)
    assert as_value(Fraction(5, 3)) == Fraction(5, 3)


@pytest.mark.parametrize("bad", [True, False, 0.5, "abc", None, [1]])
def test_as_value_rejects_non_rationals(bad):
    with pytest.raises(InvalidInputError):
        as_value(bad)


def test_value_str_always_fraction_form():
    assert value_str(Fraction(3, 4)) == "3/4"
    assert value_str(Fraction(2)) == "2/1"
    assert value_str(Fraction(0)) == "0/1"


def triangle_pendant() -> GoodsGraph:
    return GoodsGraph.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])


def test_graph_build_normalizes():
    g = GoodsGraph.build(["b", "a"], [("b", "a")])
    assert g.vertices == ("a", "b")
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert g.neighbors("a") == frozenset({"b"})
    assert len(g) == 2


def test_graph_build_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        GoodsGraph.build(["a", "a"], [])
    with pytest.raises(InvalidInputError):
        GoodsGraph.build(["a"], [("a", "a")])
    with pytest.raises(InvalidInputError):
        GoodsGraph.build(["a"], [("a", "b")])
    with pytest.raises(InvalidInputError):
        GoodsGraph.build(["a", "b"], [("a", "b"), ("b", "a")])


def test_induced_subgraph():
    g = triangle_pendant()
    sub = g.induced({"a", "b", "d"})
    assert sub.vertices == ("a", "b", "d")
    assert sub.has_edge("a", "b") and not sub.has_edge("a", "d")
    with pytest.raises(InvalidInputError):
        g.induced({"a", "zz"})


def two_agent_instance() -> Instance:
    g = triangle_pendant()
    u1 = {v: Fraction(1) for v in g.vertices}
    u2 = {"a": Fraction(4), "b": Fraction(0), "c": Fraction(1), "d": Fraction(3)}
    return Instance(
        graph=g,
        agents=(
            Agent(id=1, type_id=1, utility=u1),
            Agent(id=2, type_id=2, utility=u2),
        ),
    )


def test_instance_lookup_and_values():
    inst = two_agent_instance()
    assert inst.n == 2
    assert inst.agent(2).value({"a", "d"}) == Fraction(7)
    assert inst.agent(1).value({"a"}) == Fraction(1)
    with pytest.raises(InvalidInputError):
        inst.agent(1).value({"nope"})


def test_validate_instance_clean():
    assert validate_instance(two_agent_instance()) == []


def test_validate_instance_flags_problems():
    g = triangle_pendant()
    u = {v: Fraction(1) for v in g.vertices}
    bad_ids = Instance(graph=g, agents=(Agent(id=5, type_id=1, utility=u),))
    assert validate_instance(bad_ids)

    missing = dict(u)
    del missing["d"]
    holes = Instance(graph=g, agents=(Agent(id=1, type_id=1, utility=missing),))
    assert validate_instance(holes)

    neg = dict(u, a=Fraction(-1))
    assert validate_instance(Instance(graph=g, agents=(Agent(id=1, type_id=1, utility=neg),)))

    # same type, different utilities
    twins = Instance(
        graph=g,
        agents=(
            Agent(id=1, type_id=1, utility=u),
            Agent(id=2, type_id=1, utility=dict(u, a=Fraction(2))),
        ),
    )
    assert validate_instance(twins)


def test_is_alpha_bounded_is_strict():
    inst = two_agent_instance()
    flat = inst.agent(1)  # every vertex worth 1
    assert is_alpha_bounded(inst, flat, Fraction(1, 2), Fraction(3))
    assert not is_alpha_bounded(inst, flat, Fraction(1, 2), Fraction(2))  # 1 == 1/2 * 2
    assert not is_alpha_bounded(inst, flat, Fraction(1, 2), Fraction(0))


def test_packing_structure():
    g = triangle_pendant()
    p = ((1, frozenset({"a", "b"})), (2, frozenset({"c", "d"})))
    assert packing_problems(p, g) == []
    assert is_partition_of([vs for _, vs in p], g)
    assert assigned_vertices([vs for _, vs in p]) == frozenset(g.vertices)
    assert dict(p)[2] == frozenset({"c", "d"})

    overlap = ((1, frozenset({"a"})), (2, frozenset({"a"})))
    assert packing_problems(overlap, g)

    relabeled = ((1, frozenset({"a"})), (1, frozenset({"b"})))
    assert packing_problems(relabeled, g)

    partial = [frozenset({"a", "d"})]
    assert not is_partition_of(partial, g)

    stray = ((1, frozenset({"zz"})),)
    assert packing_problems(stray, g)


def test_allocation_accessors():
    alloc = Allocation(bundles=((1, frozenset({"a"})),), target_alpha=Fraction(1, 2))
    assert alloc.bundle_of(1) == frozenset({"a"})
    assert alloc.bundle_of(9) == frozenset()
