from fractions import Fraction

import pytest

from graphfair import oracle, splitgraph
from graphfair.core import (
    Agent,
    ClassMismatchError,
    GoodsGraph,
    GuaranteeViolationError,
    Instance,
    InvalidInputError,
    StructuralError,
)
from graphfair.generators import gen_split
from graphfair.splitgraph import (
    OwnedPacking,
    allocate_split,
    beta,
    contract_to_kernel,
    merge_packings,
    split_alpha,
)
from graphfair.verify import check_allocation


def test_alpha_and_beta_values():
    assert split_alpha(0) == Fraction(3, 4)
    assert split_alpha(1) == Fraction(3, 11)
    assert split_alpha(2) == Fraction(3, 25)
    for k in range(6):
        assert beta(k, 0) == 1
        a = split_alpha(k)
        for ell in range(k):
            assert beta(k, ell + 1) == (beta(k, ell) - a) / 2
        assert beta(k, k) == Fraction(4, 7 * 2**k - 3)


def test_beta_rejects_bad_levels():
    with pytest.raises(InvalidInputError):
        beta(2, 3)
    with pytest.raises(InvalidInputError):
        beta(2, -1)


def split_graph_2x2() -> GoodsGraph:
    return GoodsGraph.build(
        ["k1", "k2", "i1", "i2"],
        [("k1", "k2"), ("k1", "i1"), ("k2", "i2")],
    )


def test_merge_resolves_contested_vertices_along_a_chain():
    utilities = [
        {"k1": Fraction(0), "k2": Fraction(0), "i1": Fraction(5), "i2": Fraction(1)},
        {"k1": Fraction(0), "k2": Fraction(0), "i1": Fraction(1), "i2": Fraction(5)},
    ]
    left = [OwnedPacking(slot=0, bundles=[{"k1", "i1"}, {"k2", "i2"}])]
    right = [OwnedPacking(slot=1, bundles=[{"k1", "i1", "i2"}, {"k2"}])]
    independent = frozenset({"i1", "i2"})
    merged = merge_packings(left, right, utilities, independent)
    assert [p.bundles for p in merged] == [
        [{"k1", "i1"}, {"k2"}],
        [{"k1", "i2"}, {"k2"}],
    ]
    # inputs are untouched
    assert left[0].bundles == [{"k1", "i1"}, {"k2", "i2"}]
    before = [b & independent for p in left + right for b in p.bundles]
    after = [b & independent for p in merged for b in p.bundles]
    assert after[before.index({"i1", "i2"})] == {"i2"}


def test_merge_requires_each_vertex_in_exactly_two_packings():
    utilities = [{"i1": Fraction(1)}, {"i1": Fraction(1)}]
    once = [OwnedPacking(slot=0, bundles=[{"i1"}])]
    never = [OwnedPacking(slot=1, bundles=[set()])]
    with pytest.raises(StructuralError):
        merge_packings(once, never, utilities, frozenset({"i1"}))


def test_contract_folds_into_own_slot_only():
    g = split_graph_2x2()
    seq = [
        OwnedPacking(slot=0, bundles=[{"k1", "i1"}, {"k2"}]),
        OwnedPacking(slot=1, bundles=[{"k1"}, {"k2", "i2"}]),
    ]
    u1 = {"k1": Fraction(2), "k2": Fraction(3), "i1": Fraction(7), "i2": Fraction(9)}
    u2 = {"k1": Fraction(1), "k2": Fraction(1), "i1": Fraction(1), "i2": Fraction(4)}
    agents = (Agent(id=1, type_id=1, utility=u1), Agent(id=2, type_id=2, utility=u2))
    kern = contract_to_kernel(g, (frozenset({"k1", "k2"}), frozenset({"i1", "i2"})), seq, agents)

    assert sorted(kern.graph.vertices) == ["k1", "k2"]
    assert kern.anchors == {"i1": "k1", "i2": "k2"}
    assert kern.slot_of == {1: 0, 2: 1}
    m1 = kern.agents[0].utility
    m2 = kern.agents[1].utility
    # agent 1 owns slot 0, so only i1 folds for her; i2 lives in slot 1
    assert m1 == {"k1": Fraction(9), "k2": Fraction(3)}
    assert m2 == {"k1": Fraction(1), "k2": Fraction(5)}
    # exact preservation on each agent's own packing
    assert m1["k1"] == u1["k1"] + u1["i1"]
    assert m2["k2"] == u2["k2"] + u2["i2"]


def test_contract_rejects_stranded_vertices():
    g = split_graph_2x2()
    pair = (frozenset({"k1", "k2"}), frozenset({"i1", "i2"}))
    agents = (Agent(id=1, type_id=1, utility={v: Fraction(1) for v in g.vertices}),)

    lonely = [OwnedPacking(slot=0, bundles=[{"i1"}, {"k1", "k2", "i2"}])]
    with pytest.raises(GuaranteeViolationError):
        contract_to_kernel(g, pair, lonely, agents)

    doubled = [OwnedPacking(slot=0, bundles=[{"k1", "i1"}, {"k2", "i1", "i2"}])]
    with pytest.raises(StructuralError):
        contract_to_kernel(g, pair, doubled, agents)

    dropped = [OwnedPacking(slot=0, bundles=[{"k1", "i1"}, {"k2"}])]
    with pytest.raises(StructuralError):
        contract_to_kernel(g, pair, dropped, agents)


def star(leaves: int) -> GoodsGraph:
    names = ["hub"] + [f"l{i}" for i in range(leaves)]
    return GoodsGraph.build(names, [("hub", f"l{i}") for i in range(leaves)])


def test_star_one_type_allocates_at_three_quarters():
    g = star(4)
    u = {v: Fraction(1) for v in g.vertices}
    inst = Instance(
        graph=g,
        agents=(Agent(id=1, type_id=1, utility=u), Agent(id=2, type_id=1, utility=dict(u))),
    )
    alloc = allocate_split(inst)
    assert alloc.target_alpha == Fraction(3, 4)
    records = {a.id: oracle.pmms(g, a, 2) for a in inst.agents}
    assert check_allocation(inst, alloc, Fraction(3, 4), records).passes


def two_flat_types() -> Instance:
    """A 4-clique with one pendant per clique vertex, and two agent types of flat value."""
    verts = ["k1", "k2", "k3", "k4", "i1", "i2", "i3", "i4"]
    clique = [("k1", "k2"), ("k1", "k3"), ("k1", "k4"), ("k2", "k3"), ("k2", "k4"), ("k3", "k4")]
    g = GoodsGraph.build(verts, clique + [("k1", "i1"), ("k2", "i2"), ("k3", "i3"), ("k4", "i4")])
    u = {v: Fraction(10) for v in verts}
    return Instance(
        graph=g,
        agents=(Agent(id=1, type_id=1, utility=u), Agent(id=2, type_id=2, utility=dict(u))),
    )


def test_two_types_run_the_tournament(record):
    inst = two_flat_types()
    g = inst.graph
    steps = [
        record(splitgraph, name)
        for name in ("build_packing_sequence", "merge_packings", "contract_to_kernel")
    ]
    solves = record(oracle, "max_min_ratio_allocation")
    alloc = allocate_split(inst)
    assert alloc.target_alpha == Fraction(3, 11)
    assert all(steps)
    (kernel_solve,) = solves
    _, kernel_agents, kernel_targets = kernel_solve.args
    for a in kernel_agents:
        got = a.value(kernel_solve.result[a.id])
        assert got >= Fraction(3, 4) * kernel_targets[a.id]
    records = {a.id: oracle.pmms(g, a, 2) for a in inst.agents}
    assert check_allocation(inst, alloc, Fraction(3, 11), records).passes


def test_kernel_solve_below_three_quarters_raises(monkeypatch):
    inst = two_flat_types()
    solve = oracle.max_min_ratio_allocation

    def short_changed(graph, agents, targets):
        bundles = solve(graph, agents, targets)
        first, second = sorted(bundles)
        return {first: frozenset(), second: bundles[first] | bundles[second]}

    monkeypatch.setattr(oracle, "max_min_ratio_allocation", short_changed)
    # two types give the whole allocation alpha 3/11, so only the kernel
    # check can name 3/4
    with pytest.raises(GuaranteeViolationError, match="agent 1 received 0, below 3/4 of target"):
        allocate_split(inst)


def test_single_agent_takes_everything():
    g = star(3)
    inst = Instance(
        graph=g, agents=(Agent(id=1, type_id=1, utility={v: Fraction(2) for v in g.vertices}),)
    )
    alloc = allocate_split(inst)
    assert alloc.bundle_of(1) == frozenset(g.vertices)
    assert check_allocation(inst, alloc, Fraction(1)).min_ratio == 1
    assert alloc.target_alpha == Fraction(3, 4)


def test_non_split_graph_rejected():
    c5 = GoodsGraph.build(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")],
    )
    u = {v: Fraction(1) for v in c5.vertices}
    inst = Instance(graph=c5, agents=(Agent(id=1, type_id=1, utility=u),))
    with pytest.raises(ClassMismatchError):
        allocate_split(inst)


def test_allocate_split_recognizes_the_graph_once(record):
    # The bounded solver reads only the split pair, so it asks for that alone.
    recognized = record(splitgraph, "recognize")
    solved = record(splitgraph, "_allocate_bounded_split")
    seeds = range(12)
    for seed in seeds:
        allocate_split(gen_split(seed, 9, 3, 20))
    assert solved, "no instance reached the bounded solver"
    assert len(recognized) == len(seeds)
