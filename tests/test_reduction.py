from fractions import Fraction

import pytest

from graphfair import oracle, reduction
from graphfair.core import (
    Agent,
    Allocation,
    GoodsGraph,
    GuaranteeViolationError,
    Instance,
    Packing,
    StructuralError,
)
from graphfair.reduction import (
    allocate_reduction,
    compute_kj,
    finish_allocation,
    peel_heavy_vertices,
)


def path(names: list[str]) -> GoodsGraph:
    return GoodsGraph.build(names, [(names[i], names[i + 1]) for i in range(len(names) - 1)])


def inst_of(graph: GoodsGraph, *utils: dict) -> Instance:
    agents = tuple(
        Agent(id=i, type_id=i, utility={v: Fraction(x) for v, x in u.items()})
        for i, u in enumerate(utils, start=1)
    )
    return Instance(graph=graph, agents=agents)


def whole_component_solver(sub: Instance, targets) -> Allocation:
    assert sub.n == 1
    aid = sub.agents[0].id
    packing = Packing(bundles=((aid, frozenset(sub.graph.vertices)),))
    return Allocation(packing=packing, target_alpha=Fraction(1), per_agent_ratio={aid: Fraction(1)})


def recording(solver, calls: list):
    """Wrap a connected solver so it logs each (sub-instance, targets) it serves."""

    def run(sub: Instance, targets) -> Allocation:
        calls.append((sub, targets))
        return solver(sub, targets)

    return run


def test_compute_kj():
    assert compute_kj([]) == 0
    assert compute_kj([0]) == 0
    assert compute_kj([1, 1, 1]) == 1
    assert compute_kj([2, 2, 2]) == 2
    assert compute_kj([3, 2, 1]) == 2
    assert compute_kj([5, 4, 3, 3]) == 3
    assert compute_kj([4, 4, 4, 4]) == 4


def test_peel_takes_highest_value_smallest_id():
    g = path(["a", "b", "c"])
    inst = inst_of(g, {"a": 3, "b": 7, "c": 3})
    state = peel_heavy_vertices(inst, Fraction(1, 2), {1: Fraction(4)})
    assert state.heavy[0] == ("b", 1)

    tied = inst_of(g, {"a": 7, "b": 7, "c": 0})
    state = peel_heavy_vertices(tied, Fraction(1, 2), {1: Fraction(4)})
    assert state.heavy[0] == ("a", 1)


def test_peel_smallest_agent_id_moves_first():
    g = path(["a", "b"])
    inst = inst_of(g, {"a": 5, "b": 0}, {"a": 9, "b": 9})
    state = peel_heavy_vertices(inst, Fraction(1, 2), {1: Fraction(5), 2: Fraction(9)})
    # agent 1 grabs a even though agent 2 values it more
    assert state.heavy == [("a", 1), ("b", 2)]
    assert state.residual_agents == []
    assert state.components == []


def test_peel_zero_share_accepts_anything():
    g = path(["a", "b"])
    inst = inst_of(g, {"a": 0, "b": 0})
    state = peel_heavy_vertices(inst, Fraction(1, 2), {1: Fraction(0)})
    assert state.heavy == [("a", 1)]  # 0 >= 0 * 1/2, smallest vertex id
    assert state.components and frozenset({"b"}) in state.components


def test_peel_is_maximal():
    g = path(["a", "b", "c", "d"])
    inst = inst_of(g, {"a": 1, "b": 1, "c": 1, "d": 10})
    state = peel_heavy_vertices(inst, Fraction(1, 2), {1: Fraction(4)})
    assert state.heavy == [("d", 1)]
    # nothing left qualifies: 1 < 2
    assert state.residual_agents == []


def test_allocate_reduction_peel_then_component(record):
    g = path(["a", "b", "c", "d", "e", "f"])
    inst = inst_of(
        g,
        {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 100},
        {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1},
    )
    peels = record(reduction, "peel_heavy_vertices")
    served: list = []
    solver = recording(whole_component_solver, served)
    alloc = allocate_reduction(inst, Fraction(1, 2), solver)

    (peel,) = peels
    assert peel.result.heavy == [("f", 1)]
    assert peel.result.residual_agents == [2]

    (comp, targets), = served
    assert sorted(comp.graph.vertices) == ["a", "b", "c", "d", "e"]
    assert [a.id for a in comp.agents] == [2]
    # target is the 1-bundle share of the component, the whole path
    assert targets == {2: Fraction(5)}

    assert alloc.bundle_of(1) == frozenset({"f"})
    assert alloc.bundle_of(2) == frozenset({"a", "b", "c", "d", "e"})
    # ratios are against the original whole-graph shares (100/5 and 5/3)
    assert alloc.per_agent_ratio[1] == Fraction(20)
    assert alloc.per_agent_ratio[2] == Fraction(5, 3)


def test_allocate_reduction_routes_two_components(record):
    g = GoodsGraph.build(["a", "b", "x", "y"], [("a", "b"), ("x", "y")])
    inst = inst_of(
        g,
        {"a": 5, "b": 5, "x": 0, "y": 0},
        {"a": 0, "b": 0, "x": 5, "y": 5},
    )
    records = {
        1: oracle.pmms(g, inst.agent(1), 2),
        2: oracle.pmms(g, inst.agent(2), 2),
    }
    # inflate the shares above 2 * max vertex so nobody peels, keeping the
    # real witnesses for the component routing
    fake = {
        aid: oracle.MmsRecord(agent_id=aid, n=2, value=Fraction(11), witness=rec.witness)
        for aid, rec in records.items()
    }
    peels = record(reduction, "peel_heavy_vertices")
    served: list = []
    solver = recording(whole_component_solver, served)
    alloc = allocate_reduction(inst, Fraction(1, 2), solver, share_records=fake)
    assert peels[0].result.heavy == []
    assert len(peels[0].result.components) == 2
    assert [sub.n for sub, _ in served] == [1, 1]
    assert alloc.bundle_of(1) == frozenset({"a", "b"})
    assert alloc.bundle_of(2) == frozenset({"x", "y"})
    assert alloc.per_agent_ratio == {1: Fraction(10, 11), 2: Fraction(10, 11)}


def test_allocate_reduction_zero_share_agents_get_nothing():
    g = GoodsGraph.build(["a"], [])
    inst = inst_of(g, {"a": 1}, {"a": 3})
    alloc = allocate_reduction(inst, Fraction(1, 2), whole_component_solver)
    # both shares are 0 (two bundles, one vertex); agent 1 peels the vertex
    assert alloc.bundle_of(1) == frozenset({"a"})
    assert alloc.bundle_of(2) == frozenset()
    assert alloc.per_agent_ratio[2] == Fraction(1)


def test_lone_agent_gets_her_own_id_from_a_shared_share_record():
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b")])
    util = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(4)}
    # Another agent with the same utilities fills the share cache first.
    other = Agent(id=7, type_id=1, utility=util)
    assert oracle.pmms(g, other, 1).agent_id == 7
    inst = Instance(graph=g, agents=(Agent(id=1, type_id=1, utility=dict(util)),))
    alloc = allocate_reduction(inst, Fraction(1, 2), whole_component_solver)
    assert alloc.packing.bundles == ((1, frozenset({"c"})),)
    assert alloc.per_agent_ratio == {1: Fraction(1)}


def test_allocate_reduction_unroutable_agent_is_an_error():
    g = GoodsGraph.build(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    inst = inst_of(g, {"a": 1, "b": 1, "c": 1, "d": 1})
    # witness bundle straddles both components, so no component counts it
    bogus = oracle.MmsRecord(
        agent_id=1,
        n=1,
        value=Fraction(10),
        witness=Packing(bundles=((1, frozenset({"b", "c"})),)),
    )
    with pytest.raises(StructuralError):
        allocate_reduction(inst, Fraction(1, 2), whole_component_solver, share_records={1: bogus})


def test_finish_allocation_reports_ratios_and_zero_targets():
    inst = inst_of(path(["a", "b", "c"]), {"a": 1, "b": 2, "c": 3}, {"a": 5, "b": 0, "c": 0})
    bundles = {1: frozenset({"b", "c"}), 2: frozenset()}
    alloc = finish_allocation(inst.agents, {1: Fraction(10), 2: Fraction(0)}, bundles, Fraction(1, 2))
    assert alloc.packing.bundles == ((1, frozenset({"b", "c"})), (2, frozenset()))
    assert alloc.target_alpha == Fraction(1, 2)
    # agent 2 has target 0: an empty bundle satisfies her at ratio 1
    assert alloc.per_agent_ratio == {1: Fraction(1, 2), 2: Fraction(1)}


def test_finish_allocation_rejects_a_bundle_below_alpha():
    inst = inst_of(path(["a", "b"]), {"a": 1, "b": 2})
    with pytest.raises(GuaranteeViolationError, match="agent 1 received 2, below 1/2 of target 5"):
        finish_allocation(inst.agents, {1: Fraction(5)}, {1: frozenset({"b"})}, Fraction(1, 2))
