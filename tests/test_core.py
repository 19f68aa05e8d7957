import re
from fractions import Fraction

import pytest

from graphfair import generators, io, oracle
from graphfair.blockcactus import allocate_block_cactus
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
from graphfair.multipartite import allocate_multipartite
from graphfair.splitgraph import allocate_split
from graphfair.verify import check_allocation

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


@pytest.mark.parametrize(
    "vertices, edges, named",
    [
        ([1, 2], [(1, 2)], "1"),
        ([("x",), ("y",)], [], "('x',)"),
        ([None], [], "None"),
        (["a", 1], [], "1"),
    ],
)
def test_graph_build_refuses_ids_that_are_not_strings(vertices, edges, named):
    # Vertex ids are strings in lexicographic order; an int would sort by
    # number, and a mixed list would fail in sorted with a bare TypeError.
    with pytest.raises(InvalidInputError, match=re.escape(f"vertex id {named} is not a string")):
        GoodsGraph.build(vertices, edges)


@pytest.mark.parametrize("edge", [("a",), ("a", "b", "a"), "ab", None])
def test_graph_build_refuses_an_edge_that_is_not_a_pair(edge):
    # An edge of the wrong length would escape as a ValueError from the
    # unpacking, and a string of two ids would unpack into an edge.
    with pytest.raises(InvalidInputError, match=re.escape(f"edge {edge!r} is not a pair of vertex ids")):
        GoodsGraph.build(["a", "b"], [edge])


@pytest.mark.parametrize("edge", [(["a"], "b"), ("a", {}), ("a", 1), (None, "b")])
def test_graph_build_refuses_an_edge_end_that_is_not_a_vertex_id(edge):
    # An unhashable end would escape as a TypeError from the vertex lookup.
    a, b = edge
    with pytest.raises(InvalidInputError, match=re.escape(f"edge ({a!r}, {b!r}) mentions an unknown vertex")):
        GoodsGraph.build(["a", "b"], [edge])


@pytest.mark.parametrize(
    "vertices, edges, named",
    [(["a"], 5, "vertices ['a'] and edges 5"), (5, [], "vertices 5 and edges []")],
)
def test_graph_build_refuses_vertices_or_edges_that_are_not_iterable(vertices, edges, named):
    # Either would escape as a bare TypeError from the iteration.
    with pytest.raises(InvalidInputError, match=re.escape(f"{named} must both be iterable")):
        GoodsGraph.build(vertices, edges)


def test_graph_build_takes_an_edge_as_a_list():
    assert GoodsGraph.build(["a", "b"], [["b", "a"]]) == GoodsGraph.build(["a", "b"], [("a", "b")])


def test_induced_subgraph():
    g = triangle_pendant()
    sub = g.induced({"a", "b", "d"})
    assert sub.vertices == ("a", "b", "d")
    assert sub.has_edge("a", "b") and not sub.has_edge("a", "d")
    with pytest.raises(InvalidInputError):
        g.induced({"a", "zz"})


def test_induced_on_every_vertex_is_the_graph_itself():
    g = triangle_pendant()
    assert g.induced(g.vertices) is g
    assert g.induced(frozenset(g.vertices)) is g
    sub = g.induced(["d", "c", "a"])
    assert sub is not g
    assert sub == GoodsGraph.build(["a", "c", "d"], [("a", "c"), ("c", "d")])
    # as many ids as the graph has vertices, one of them unknown
    with pytest.raises(InvalidInputError):
        g.induced({"a", "b", "c", "zz"})


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

    # An int is exact; a bool, a float and a Fraction subclass are not taken.
    assert validate_instance(Instance(graph=g, agents=(Agent(id=1, type_id=1, utility=dict(u, a=2)),))) == []
    for bad in (True, 1.0, type("Sub", (Fraction,), {})(1)):
        inexact = Instance(graph=g, agents=(Agent(id=1, type_id=1, utility=dict(u, a=bad)),))
        assert validate_instance(inexact) == [f"agent 1 has {bad!r} at 'a', not an int or a Fraction"]

    # same type, different utilities
    twins = Instance(
        graph=g,
        agents=(
            Agent(id=1, type_id=1, utility=u),
            Agent(id=2, type_id=1, utility=dict(u, a=Fraction(2))),
        ),
    )
    assert validate_instance(twins)


def test_validate_instance_refuses_agent_ids_that_are_not_ints():
    g = triangle_pendant()
    u = {v: Fraction(1) for v in g.vertices}
    # Mixed ids would fail in sorted with a bare TypeError.
    mixed = Instance(graph=g, agents=(Agent(id=1, type_id=1, utility=u), Agent(id="2", type_id=1, utility=u)))
    assert validate_instance(mixed) == ["agent id must be an integer, got '2'"]
    # True equals 1, but an allocation file would write it back as true.
    flag = Instance(graph=g, agents=(Agent(id=True, type_id=1, utility=u),))
    assert validate_instance(flag) == ["agent id must be an integer, got True"]
    for allocate in (allocate_block_cactus, allocate_multipartite, allocate_split):
        with pytest.raises(InvalidInputError, match="agent id must be an integer, got True"):
            allocate(flag)


def test_validate_instance_refuses_unknown_utility_keys_of_mixed_types():
    # Keys 3 and 'z' would fail to sort together with a bare TypeError.
    g = GoodsGraph.build(["a"], [])
    inst = Instance(graph=g, agents=(Agent(id=1, type_id=1, utility={"a": 1, 3: 1, "z": 1}),))
    assert validate_instance(inst) == ["agent 1 values unknown vertices ['z', 3]"]
    for allocate in (allocate_block_cactus, allocate_multipartite, allocate_split):
        with pytest.raises(InvalidInputError, match=re.escape("unknown vertices ['z', 3]")):
            allocate(inst)


def test_validate_instance_refuses_an_unhashable_type_id():
    # Grouping agents by type would fail with a bare TypeError.
    g = triangle_pendant()
    u = {v: Fraction(1) for v in g.vertices}
    inst = Instance(
        graph=g,
        agents=(Agent(id=1, type_id=[1], utility=u), Agent(id=2, type_id=1, utility=u)),
    )
    assert validate_instance(inst) == ["agent 1 has an unhashable type id [1]"]
    for allocate in (allocate_block_cactus, allocate_multipartite, allocate_split):
        with pytest.raises(InvalidInputError, match=re.escape("unhashable type id [1]")):
            allocate(inst)


def allocation_bytes(inst: Instance, allocate) -> bytes:
    oracle.clear_cache()
    alloc = allocate(inst)
    oracle.clear_cache()
    cert = check_allocation(inst, alloc, alloc.target_alpha)
    assert cert.passes, cert.notes
    return io.canonical_dumps(io.allocation_to_doc(inst, cert)).encode("utf-8")


@pytest.mark.parametrize(
    "class_name, allocate, sizes",
    [
        ("block-cactus", allocate_block_cactus, ((9, 2), (11, 3))),
        ("multipartite", allocate_multipartite, ((10, 2), (11, 3))),
        ("split", allocate_split, ((9, 2), (9, 3))),
    ],
)
def test_int_utilities_allocate_as_their_fraction_copies(class_name, allocate, sizes):
    # The generators draw Fractions with denominator 1; the same numbers as
    # ints must pass validation and give the same bytes.
    for seed in range(3):
        for vertices, agents in sizes:
            inst = generators.generate(class_name, seed, vertices, agents, 20)
            ints = Instance(
                graph=inst.graph,
                agents=tuple(
                    Agent(id=a.id, type_id=a.type_id, utility={v: int(x) for v, x in a.utility.items()})
                    for a in inst.agents
                ),
            )
            assert allocation_bytes(ints, allocate) == allocation_bytes(inst, allocate), (seed, vertices)
    truthy = Instance(
        graph=inst.graph,
        agents=tuple(
            Agent(id=a.id, type_id=a.type_id, utility=dict(a.utility, **{inst.graph.vertices[0]: True}))
            for a in inst.agents
        ),
    )
    with pytest.raises(InvalidInputError, match="has True at"):
        allocate(truthy)


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
