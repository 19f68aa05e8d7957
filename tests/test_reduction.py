import random
from fractions import Fraction

import pytest

from graphfair import generators, multipartite, oracle, reduction, splitgraph
from graphfair.core import (
    Agent,
    Allocation,
    GoodsGraph,
    GuaranteeViolationError,
    Instance,
    StructuralError,
)
from graphfair.reduction import (
    allocate_reduction,
    compute_kj,
    finish_allocation,
    peel_heavy_vertices,
)
from graphfair.verify import check_allocation


def path(names: list[str]) -> GoodsGraph:
    return GoodsGraph.build(names, [(names[i], names[i + 1]) for i in range(len(names) - 1)])


def inst_of(graph: GoodsGraph, *utils: dict) -> Instance:
    agents = tuple(
        Agent(id=i, type_id=i, utility={v: Fraction(x) for v, x in u.items()})
        for i, u in enumerate(utils, start=1)
    )
    return Instance(graph=graph, agents=agents)


def certified_ratios(inst: Instance, alloc: Allocation, records=None) -> dict:
    """Each agent's bundle value over her share, as the certificate measures it."""
    cert = check_allocation(inst, alloc, Fraction(0), records)
    return {aid: ratio for aid, _, _, _, ratio in cert.per_agent}


def halves_solver(graph: GoodsGraph, agents, targets) -> Allocation:
    """Two agents: the first takes the smaller-id half of the vertices."""
    assert len(agents) == 2
    vs = sorted(graph.vertices)
    half = len(vs) // 2
    bundles = {agents[0].id: frozenset(vs[:half]), agents[1].id: frozenset(vs[half:])}
    return finish_allocation(agents, targets, bundles, Fraction(1, 2))


def recording(solver, calls: list):
    """Wrap a connected solver so it logs each (graph, agents, targets) it serves."""

    def run(graph: GoodsGraph, agents, targets) -> Allocation:
        calls.append((graph, agents, targets))
        return solver(graph, agents, targets)

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
    solver = recording(halves_solver, served)
    alloc = allocate_reduction(inst, Fraction(1, 2), solver)

    (peel,) = peels
    assert peel.result.heavy == [("f", 1)]
    assert peel.result.residual_agents == [2]
    # the leftover path serves agent 2 alone, so she takes it whole
    assert served == []

    assert alloc.bundle_of(1) == frozenset({"f"})
    assert alloc.bundle_of(2) == frozenset({"a", "b", "c", "d", "e"})
    # ratios are against the original whole-graph shares (100/5 and 5/3)
    assert certified_ratios(inst, alloc) == {1: Fraction(20), 2: Fraction(5, 3)}


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
        aid: oracle.MmsRecord(value=Fraction(11), witness=rec.witness)
        for aid, rec in records.items()
    }
    peels = record(reduction, "peel_heavy_vertices")
    served: list = []
    solver = recording(halves_solver, served)
    alloc = allocate_reduction(inst, Fraction(1, 2), solver, share_records=fake)
    assert peels[0].result.heavy == []
    assert len(peels[0].result.components) == 2
    # each component serves one agent, who takes it whole
    assert served == []
    assert alloc.bundle_of(1) == frozenset({"a", "b"})
    assert alloc.bundle_of(2) == frozenset({"x", "y"})
    assert certified_ratios(inst, alloc, fake) == {1: Fraction(10, 11), 2: Fraction(10, 11)}


def test_allocate_reduction_solves_shared_components_and_serves_lone_agents_whole():
    g = GoodsGraph.build(list("abcdxy"), [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y")])
    on_path = {"a": 5, "b": 5, "c": 5, "d": 5, "x": 0, "y": 0}
    inst = inst_of(g, on_path, dict(on_path), {"a": 0, "b": 0, "c": 0, "d": 0, "x": 5, "y": 5})
    # Shares of 11 keep every vertex below half a share, so nobody peels;
    # the witnesses put two bundles of agents 1 and 2 on the path and one of
    # agent 3 on the edge.
    on_path_witness = (frozenset("ab"), frozenset("cd"), frozenset())
    on_edge_witness = (frozenset("xy"),)
    records = {
        aid: oracle.MmsRecord(value=Fraction(11), witness=witness)
        for aid, witness in ((1, on_path_witness), (2, on_path_witness), (3, on_edge_witness))
    }
    served: list = []
    alloc = allocate_reduction(
        inst, Fraction(1, 2), recording(halves_solver, served), share_records=records
    )
    ((graph, agents, targets),) = served
    assert sorted(graph.vertices) == ["a", "b", "c", "d"]
    assert [a.id for a in agents] == [1, 2]
    # the targets are the agents' 2-bundle shares of the path
    assert targets == {1: Fraction(10), 2: Fraction(10)}
    assert alloc.bundle_of(1) == frozenset("ab")
    assert alloc.bundle_of(2) == frozenset("cd")
    assert alloc.bundle_of(3) == frozenset("xy")


def flattened(inst: Instance, seed: int) -> Instance:
    """Near-equal utilities, one profile per agent type, so that few agents peel."""
    rng = random.Random(seed)
    per_type = {
        t: {v: Fraction(rng.randint(10, 12)) for v in inst.graph.vertices}
        for t in sorted({a.type_id for a in inst.agents})
    }
    agents = tuple(
        Agent(id=a.id, type_id=a.type_id, utility=per_type[a.type_id]) for a in inst.agents
    )
    return Instance(graph=inst.graph, agents=agents)


def with_heavy_first_agent(inst: Instance) -> Instance:
    """Agent 1, now of a type of her own, values one vertex above all others together."""
    first = inst.agents[0]
    v = min(inst.graph.vertices)
    utility = dict(first.utility)
    utility[v] = sum(utility.values()) + 1
    heavy = Agent(id=first.id, type_id=max(a.type_id for a in inst.agents) + 1, utility=utility)
    return Instance(graph=inst.graph, agents=(heavy,) + inst.agents[1:])


def test_class_solvers_only_see_two_or_more_agents(record):
    # (recorded calls, position of the agents among their arguments)
    solvers = {
        "multipartite": (record(multipartite, "allocate_bounded_multipartite"), 2),
        "split": (record(splitgraph, "_allocate_bounded_split"), 1),
    }
    for seed in range(20):
        mp_inst = generators.gen_multipartite(seed, 11, 2 + seed % 2, 20)
        split_inst = generators.gen_split(seed, 6 + seed % 5, 2 + seed % 3, 20)
        for allocate, inst in (
            (multipartite.allocate_multipartite, mp_inst),
            (splitgraph.allocate_split, split_inst),
        ):
            flat = flattened(inst, seed)
            allocate(flat)
            allocate(with_heavy_first_agent(flat))
    for name, (calls, at) in solvers.items():
        assert calls, name
        assert all(len(c.args[at]) >= 2 for c in calls), name


def test_allocate_reduction_zero_share_agents_get_nothing():
    g = GoodsGraph.build(["a"], [])
    inst = inst_of(g, {"a": 1}, {"a": 3})
    alloc = allocate_reduction(inst, Fraction(1, 2), halves_solver)
    # both shares are 0 (two bundles, one vertex); agent 1 peels the vertex
    assert alloc.bundle_of(1) == frozenset({"a"})
    assert alloc.bundle_of(2) == frozenset()
    assert certified_ratios(inst, alloc)[2] == Fraction(1)


def test_lone_agent_gets_her_own_id_from_a_shared_share_record():
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b")])
    util = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(4)}
    # Another agent with the same utilities fills the share cache first, and
    # the record she gets is the one agent 1 gets.
    shared = oracle.pmms(g, Agent(id=7, type_id=1, utility=util), 1)
    inst = Instance(graph=g, agents=(Agent(id=1, type_id=1, utility=dict(util)),))
    assert oracle.pmms(g, inst.agents[0], 1) is shared
    alloc = allocate_reduction(inst, Fraction(1, 2), halves_solver)
    assert alloc.bundles == ((1, frozenset({"c"})),)
    assert certified_ratios(inst, alloc) == {1: Fraction(1)}


def test_allocate_reduction_unroutable_agent_is_an_error():
    g = GoodsGraph.build(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    inst = inst_of(g, {"a": 1, "b": 1, "c": 1, "d": 1})
    # witness bundle straddles both components, so no component counts it
    bogus = oracle.MmsRecord(
        value=Fraction(10),
        witness=(frozenset({"b", "c"}),),
    )
    with pytest.raises(StructuralError):
        allocate_reduction(inst, Fraction(1, 2), halves_solver, share_records={1: bogus})


def test_finish_allocation_accepts_exactly_alpha_and_zero_targets():
    inst = inst_of(path(["a", "b", "c"]), {"a": 1, "b": 2, "c": 3}, {"a": 5, "b": 0, "c": 0})
    bundles = {1: frozenset({"b", "c"}), 2: frozenset()}
    # agent 1 gets exactly half her target; agent 2 has target 0, so an
    # empty bundle satisfies her
    alloc = finish_allocation(inst.agents, {1: Fraction(10), 2: Fraction(0)}, bundles, Fraction(1, 2))
    assert alloc.bundles == ((1, frozenset({"b", "c"})), (2, frozenset()))
    assert alloc.target_alpha == Fraction(1, 2)


def test_finish_allocation_rejects_a_bundle_below_alpha():
    inst = inst_of(path(["a", "b"]), {"a": 1, "b": 2})
    with pytest.raises(GuaranteeViolationError, match="agent 1 received 2, below 1/2 of target 5"):
        finish_allocation(inst.agents, {1: Fraction(5)}, {1: frozenset({"b"})}, Fraction(1, 2))
