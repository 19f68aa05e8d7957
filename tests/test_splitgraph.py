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
    allocate_split,
    beta,
    build_packing_sequence,
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
    owners = [Agent(id=i, type_id=i, utility=u) for i, u in enumerate(utilities)]
    left = [[{"k1", "i1"}, {"k2", "i2"}]]
    right = [[{"k1", "i1", "i2"}, {"k2"}]]
    independent = frozenset({"i1", "i2"})
    merged = merge_packings(left, right, owners, independent)
    assert merged == [
        [{"k1", "i1"}, {"k2"}],
        [{"k1", "i2"}, {"k2"}],
    ]
    # inputs are untouched
    assert left[0] == [{"k1", "i1"}, {"k2", "i2"}]
    before = [b & independent for p in left + right for b in p]
    after = [b & independent for p in merged for b in p]
    assert after[before.index({"i1", "i2"})] == {"i2"}


def test_merge_requires_each_vertex_in_exactly_two_packings():
    owners = [Agent(id=i, type_id=i, utility={"i1": Fraction(1)}) for i in (0, 1)]
    once = [[{"i1"}]]
    never = [[set()]]
    with pytest.raises(StructuralError):
        merge_packings(once, never, owners, frozenset({"i1"}))


def four_slot_tournament():
    """Four owners, one slot each, on clique k1..k3 and independent set i1..i6.

    Slots 0 and 1 prize the low I-vertices and slots 2 and 3 the high ones,
    so every merge depends on which owners it is handed.
    """
    clique = frozenset({"k1", "k2", "k3"})
    independent = frozenset(f"i{j}" for j in range(1, 7))
    rows = [[6, 5, 4, 3, 2, 1], [6, 6, 4, 4, 2, 2], [1, 2, 3, 4, 5, 6], [1, 3, 3, 5, 5, 7]]
    owners = []
    for s, row in enumerate(rows):
        utility = {k: Fraction(4) for k in clique}
        utility.update((f"i{j}", Fraction(x)) for j, x in enumerate(row, 1))
        owners.append(Agent(id=s + 1, type_id=s + 1, utility=utility))
    partitions = [
        [{"k1", "i1", "i4", "i6"}, {"k2", "i2", "i3", "i5"}, {"k3"}],
        [{"k1", "i1", "i2"}, {"k2", "i4", "i6"}, {"k3", "i3", "i5"}],
        [{"k1", "i1", "i3", "i4"}, {"k2"}, {"k3", "i2", "i5", "i6"}],
        [{"k1", "i2"}, {"k2", "i1", "i5", "i6"}, {"k3", "i3", "i4"}],
    ]
    witnesses = [tuple(frozenset(b) for b in bundles) for bundles in partitions]
    return (clique, independent), owners, witnesses


def test_four_slots_run_two_rounds(record):
    split_pair, owners, witnesses = four_slot_tournament()
    merges = record(splitgraph, "merge_packings")
    final = build_packing_sequence(split_pair, owners, witnesses)
    # round 1 merges slots 0-1 and slots 2-3, round 2 the two halves
    assert [m.result for m in merges] == [
        [[{"k1", "i1", "i4"}, {"k2", "i3"}, {"k3"}], [{"k1", "i2"}, {"k2", "i6"}, {"k3", "i5"}]],
        [[{"k1", "i1", "i4"}, {"k2"}, {"k3", "i2", "i5"}], [{"k1"}, {"k2", "i6"}, {"k3", "i3"}]],
        final,
    ]
    assert final == [
        [{"k1", "i1"}, {"k2", "i3"}, {"k3"}],
        [{"k1", "i2"}, {"k2", "i6"}, {"k3"}],
        [{"k1", "i4"}, {"k2"}, {"k3", "i5"}],
        [{"k1"}, {"k2"}, {"k3"}],
    ]
    assert [[o.id for o in m.args[2]] for m in merges] == [[1, 2], [3, 4], [1, 2, 3, 4]]


def test_packing_sequence_input_checks():
    split_pair, owners, witnesses = four_slot_tournament()
    for count in (0, 3):
        with pytest.raises(InvalidInputError, match=f"slot count {count} is not a power of two"):
            build_packing_sequence(split_pair, owners[:count], witnesses[:count])
    with pytest.raises(InvalidInputError, match="one witness partition per slot"):
        build_packing_sequence(split_pair, owners, witnesses[:2])


def test_packing_sequence_raises_below_the_retention_floor():
    # slot 0 keeps the contested i1, leaving slot 1's only bundle worth 0 to
    # its owner, below beta(1, 1) = 4/11 of her floor of 1
    owners = [
        Agent(id=i, type_id=i, utility={"k1": Fraction(0), "i1": Fraction(1)}) for i in (1, 2)
    ]
    witness = (frozenset({"k1", "i1"}),)
    pair = (frozenset({"k1"}), frozenset({"i1"}))
    with pytest.raises(GuaranteeViolationError, match="a bundle of slot 1 fell below 4/11"):
        build_packing_sequence(pair, owners, [witness, witness])


def test_contract_folds_into_own_slot_only():
    g = split_graph_2x2()
    seq = [
        [{"k1", "i1"}, {"k2"}],
        [{"k1"}, {"k2", "i2"}],
    ]
    u1 = {"k1": Fraction(2), "k2": Fraction(3), "i1": Fraction(7), "i2": Fraction(9)}
    u2 = {"k1": Fraction(1), "k2": Fraction(1), "i1": Fraction(1), "i2": Fraction(4)}
    agents = (Agent(id=1, type_id=1, utility=u1), Agent(id=2, type_id=2, utility=u2))
    kern = contract_to_kernel(g, (frozenset({"k1", "k2"}), frozenset({"i1", "i2"})), seq, agents)

    assert sorted(kern.graph.vertices) == ["k1", "k2"]
    assert kern.anchors == {"i1": "k1", "i2": "k2"}
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

    lonely = [[{"i1"}, {"k1", "k2", "i2"}]]
    with pytest.raises(GuaranteeViolationError):
        contract_to_kernel(g, pair, lonely, agents)

    doubled = [[{"k1", "i1"}, {"k2", "i1", "i2"}]]
    with pytest.raises(StructuralError):
        contract_to_kernel(g, pair, doubled, agents)

    dropped = [[{"k1", "i1"}, {"k2"}]]
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
