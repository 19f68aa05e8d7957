import random
from fractions import Fraction

import pytest

from graphfair import blockcactus, generators, multipartite, oracle, reduction, splitgraph
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
from naive_oracles import frozen_route


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


class CountingUtility(dict):
    """A utility map that counts the values read from it."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_peel_scans_an_agent_who_accepts_nothing_once():
    # The pool only shrinks, so agent 1, who accepts nothing at the start,
    # accepts nothing later either, while agents 2..5 each peel a vertex.
    names = ["a", "b", "c", "d", "e", "f"]
    choosy = CountingUtility(dict.fromkeys(names, Fraction(1)))
    agents = [Agent(id=1, type_id=1, utility=choosy)] + [
        Agent(id=i, type_id=i, utility=dict.fromkeys(names, Fraction(i))) for i in range(2, 6)
    ]
    inst = Instance(graph=path(names), agents=tuple(agents))
    values = {1: Fraction(3), **{i: Fraction(i) for i in range(2, 6)}}
    state = peel_heavy_vertices(inst, Fraction(1, 2), values)
    assert state.heavy == [("a", 2), ("b", 3), ("c", 4), ("d", 5)]
    assert state.residual_agents == [1]
    assert state.components == [frozenset({"e", "f"})]
    assert choosy.reads == len(names)


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
    # targets above 2 * max vertex so nobody peels; the routing still reads
    # the real pmms witnesses
    targets = {1: Fraction(11), 2: Fraction(11)}
    fake = {
        aid: oracle.MmsRecord(value=t, witness=oracle.pmms(g, inst.agent(aid), 2).witness)
        for aid, t in targets.items()
    }
    peels = record(reduction, "peel_heavy_vertices")
    served: list = []
    solver = recording(halves_solver, served)
    alloc = allocate_reduction(inst, Fraction(1, 2), solver, targets=targets)
    assert peels[0].result.heavy == []
    assert len(peels[0].result.components) == 2
    # each component serves one agent, who takes it whole
    assert served == []
    assert alloc.bundle_of(1) == frozenset({"a", "b"})
    assert alloc.bundle_of(2) == frozenset({"x", "y"})
    assert certified_ratios(inst, alloc, fake) == {1: Fraction(10, 11), 2: Fraction(10, 11)}


def test_allocate_reduction_solves_shared_components_and_serves_lone_agents_whole(monkeypatch):
    g = GoodsGraph.build(list("abcdxy"), [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y")])
    on_path = {"a": 5, "b": 5, "c": 5, "d": 5, "x": 0, "y": 0}
    inst = inst_of(g, on_path, dict(on_path), {"a": 0, "b": 0, "c": 0, "d": 0, "x": 5, "y": 5})
    # Targets of 11 keep every vertex below half a target, so nobody peels;
    # the witnesses put two bundles of agent 1 and three of agent 2 on the
    # path and one of agent 3 on the edge.  The counts rank agent 2 first,
    # but the solver gets agents 1 and 2 in id order.
    witnesses = {
        1: (frozenset("ab"), frozenset("cd"), frozenset()),
        2: (frozenset("a"), frozenset("b"), frozenset("cd")),
        3: (frozenset("xy"),),
    }
    records = {
        aid: oracle.MmsRecord(value=Fraction(11), witness=witness)
        for aid, witness in witnesses.items()
    }
    monkeypatch.setattr(oracle, "pmms", lambda graph, agent, n: records[agent.id])
    state = peel_heavy_vertices(inst, Fraction(1, 2), dict.fromkeys(records, Fraction(11)))
    assert [ranked for _, ranked in frozen_route(state, records)] == [[2, 1], [3]]
    served: list = []
    alloc = allocate_reduction(
        inst,
        Fraction(1, 2),
        recording(halves_solver, served),
        targets=dict.fromkeys(records, Fraction(11)),
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


def test_allocate_reduction_unroutable_agent_is_an_error(monkeypatch):
    g = GoodsGraph.build(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    inst = inst_of(g, {"a": 1, "b": 1, "c": 1, "d": 1})
    # witness bundle straddles both components, so no component counts it
    bogus = oracle.MmsRecord(
        value=Fraction(10),
        witness=(frozenset({"b", "c"}),),
    )
    monkeypatch.setattr(oracle, "pmms", lambda graph, agent, n: bogus)
    with pytest.raises(StructuralError):
        allocate_reduction(inst, Fraction(1, 2), halves_solver, targets={1: Fraction(10)})


class WitnessReads:
    """A share record that counts the reads of its witness."""

    def __init__(self, record: oracle.MmsRecord):
        self.value = record.value
        self._witness = record.witness
        self.reads = 0

    @property
    def witness(self):
        self.reads += 1
        return self._witness


def test_a_lone_component_takes_its_agents_in_id_order_without_reading_witnesses(monkeypatch):
    # A path and an isolated vertex z.  Agent 3 peels z, which leaves one
    # component for agents 1 and 2.  Agent 1's 3-bundle witness spends a
    # bundle on z, agent 2's lies on the path, so the witness counts are 2
    # and 3 and would rank agent 2 first.
    names = list("abcdef")
    g = GoodsGraph.build(names + ["z"], [(names[i], names[i + 1]) for i in range(5)])
    inst = inst_of(
        g,
        {**dict.fromkeys(names, 2), "z": 5},
        {**dict.fromkeys(names, 2), "z": 0},
        {**dict.fromkeys(names, 0), "z": 10},
    )
    targets = {1: Fraction(11), 2: Fraction(11), 3: Fraction(10)}
    real = {a.id: oracle.pmms(g, a, 3) for a in inst.agents}
    assert frozenset("z") in real[1].witness
    assert all(b <= frozenset(names) for b in real[2].witness)
    state = peel_heavy_vertices(inst, Fraction(1, 2), targets)
    assert state.heavy == [("z", 3)]
    assert frozen_route(state, real) == [(frozenset(names), [2, 1])]

    counted = {aid: WitnessReads(rec) for aid, rec in real.items()}
    monkeypatch.setattr(oracle, "pmms", lambda graph, agent, n: counted[agent.id])
    served: list = []
    alloc = allocate_reduction(
        inst, Fraction(1, 2), recording(halves_solver, served), targets=targets
    )
    ((graph, agents, _),) = served
    assert sorted(graph.vertices) == names
    assert [a.id for a in agents] == [1, 2]
    assert counted[1].reads == counted[2].reads == 0
    records = {aid: oracle.MmsRecord(value=t, witness=()) for aid, t in targets.items()}
    cert = check_allocation(inst, alloc, Fraction(1, 2), records)
    assert cert.structural_ok and cert.passes


def test_a_lone_component_still_counts_witnesses_for_a_zero_share(monkeypatch):
    # One component and a positive target, but a pmms record of value 0:
    # the counting argument needs nonempty witness bundles, so the routing
    # reads the witness, finds no bundle inside the path and raises.
    inst = inst_of(path(["a", "b", "c", "d"]), {"a": 1, "b": 1, "c": 1, "d": 1})
    zero = WitnessReads(oracle.MmsRecord(value=Fraction(0), witness=(frozenset(),)))
    monkeypatch.setattr(oracle, "pmms", lambda graph, agent, n: zero)
    with pytest.raises(StructuralError, match="never routed"):
        allocate_reduction(inst, Fraction(1, 2), halves_solver, targets={1: Fraction(8)})
    assert zero.reads > 0

    # With a positive value the same witness is never read.
    positive = WitnessReads(oracle.MmsRecord(value=Fraction(8), witness=(frozenset(),)))
    monkeypatch.setattr(oracle, "pmms", lambda graph, agent, n: positive)
    alloc = allocate_reduction(inst, Fraction(1, 2), halves_solver, targets={1: Fraction(8)})
    assert alloc.bundle_of(1) == frozenset("abcd")
    assert positive.reads == 0


def recorded_routings(monkeypatch) -> list:
    """Log each allocate_reduction call made by a class allocator.

    Each entry is (instance, alpha, targets, served), where served lists the
    (component, agent ids) of every connected-solver call that this call
    made itself; calls nested inside a solver log entries of their own.
    """
    log: list = []
    original = reduction.allocate_reduction

    def run(inst, alpha, connected_solver, targets=None):
        served: list = []

        def solver(graph, agents, sub_targets):
            served.append((frozenset(graph.vertices), [a.id for a in agents]))
            return connected_solver(graph, agents, sub_targets)

        alloc = original(inst, alpha, solver, targets)
        log.append((inst, alpha, targets, served))
        return alloc

    for module in (blockcactus, multipartite, splitgraph):
        monkeypatch.setattr(module, "allocate_reduction", run)
    return log


def disjoint_union(*insts: Instance) -> Instance:
    """The instances side by side, vertices renamed apart, agents by position."""
    names = [{v: f"g{i}{v}" for v in inst.graph.vertices} for i, inst in enumerate(insts)]
    graph = GoodsGraph.build(
        [n for rename in names for n in rename.values()],
        [(rename[u], rename[v]) for rename, inst in zip(names, insts) for u, v in inst.graph.edges],
    )
    agents = tuple(
        Agent(
            id=a.id,
            type_id=a.type_id,
            utility={
                rename[v]: inst.agents[k].utility[v]
                for rename, inst in zip(names, insts)
                for v in inst.graph.vertices
            },
        )
        for k, a in enumerate(insts[0].agents)
    )
    return Instance(graph=graph, agents=agents)


def test_solver_calls_match_the_frozen_witness_routing(monkeypatch):
    log = recorded_routings(monkeypatch)
    for seed in range(24):
        cactus = generators.gen_block_cactus(seed, 13 + seed % 2, 3 + seed // 2 % 2, 20)
        split = generators.gen_split(seed, 8 + seed % 4, 2 + seed % 3, 20, 1 + seed % 2)
        apart = disjoint_union(
            generators.gen_block_cactus(seed, 5 + seed % 3, 3, 20),
            generators.gen_block_cactus(seed + 100, 4 + seed % 4, 3, 20),
        )
        for allocate, inst in (
            (blockcactus.allocate_block_cactus, cactus),
            (blockcactus.allocate_block_cactus, apart),
            (multipartite.allocate_multipartite, generators.gen_multipartite(seed, 11, 2 + seed % 2, 20)),
            (splitgraph.allocate_split, split),
        ):
            for drawn in (inst, flattened(inst, seed)):
                oracle.clear_cache()
                allocate(drawn)

    lone = several = 0
    for inst, alpha, targets, served in log:
        records = {a.id: oracle.pmms(inst.graph, a, inst.n) for a in inst.agents}
        if targets is None:
            if inst.n == 1:
                assert served == []
                continue
            targets = {aid: rec.value for aid, rec in records.items()}
        state = peel_heavy_vertices(inst, alpha, targets)
        routes = frozen_route(state, records)
        # Same component, same agents, now in id order; a component that
        # serves one agent is hers whole and calls no solver.
        assert served == [(comp, sorted(ranked)) for comp, ranked in routes if len(ranked) >= 2]
        pending = state.residual_agents
        if len(state.components) == 1 and all(records[aid].value > 0 for aid in pending):
            # The counting argument: every f is at least |pending|.
            (comp,) = state.components
            for aid in pending:
                assert sum(1 for b in records[aid].witness if b and b <= comp) >= len(pending)
            lone += len(served)
        else:
            several += len(served)
    assert lone and several


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
