from fractions import Fraction

import pytest

from graphfair import blockcactus, oracle, reduction
from graphfair.blockcactus import (
    allocate_block_cactus,
    allocate_bounded,
    is_block_cactus_graph,
)
from graphfair.core import Agent, ClassMismatchError, GoodsGraph, Instance, InvalidInputError
from graphfair.verify import check_allocation

HALF = Fraction(1, 2)


def flat_agents(graph: GoodsGraph, n: int, value: int = 10) -> tuple[Agent, ...]:
    return tuple(
        Agent(id=i, type_id=i, utility={v: Fraction(value) for v in graph.vertices})
        for i in range(1, n + 1)
    )


def cycle_with_pendant() -> GoodsGraph:
    return GoodsGraph.build(
        ["v1", "v2", "v3", "v4", "v5", "w"],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v1", "v5"), ("v5", "w")],
    )


def test_is_block_cactus_graph():
    assert is_block_cactus_graph(cycle_with_pendant())
    diamond = GoodsGraph.build(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")]
    )
    assert not is_block_cactus_graph(diamond)
    k23 = GoodsGraph.build(
        ["a1", "a2", "b1", "b2", "b3"],
        [(a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")],
    )
    assert not is_block_cactus_graph(k23)


def test_triangle_pendant_allocates_at_half():
    g = GoodsGraph.build(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
    )
    inst = Instance(
        graph=g,
        agents=(
            Agent(id=1, type_id=1, utility={"a": Fraction(2), "b": Fraction(3), "c": Fraction(1), "d": Fraction(4)}),
            Agent(id=2, type_id=2, utility={"a": Fraction(1), "b": Fraction(1), "c": Fraction(1), "d": Fraction(1)}),
        ),
    )
    alloc = allocate_block_cactus(inst)
    records = {a.id: oracle.pmms(g, a, 2) for a in inst.agents}
    cert = check_allocation(inst, alloc, HALF, records)
    assert cert.passes, (cert.notes, cert.min_ratio)


def record_steps(record):
    """Record the bounded solver's three exits: exact solve, carve, absorb."""
    return (
        record(oracle, "max_min_ratio_allocation"),
        record(blockcactus, "greedy_prefix_carve"),
        record(blockcactus, "allocate_reduction"),
    )


def test_single_block_is_solved_directly(record):
    g = GoodsGraph.build(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]
    )
    agents = flat_agents(g, 2)
    solves, carves, absorbs = record_steps(record)
    alloc = allocate_bounded(g, agents, {1: Fraction(10), 2: Fraction(10)})
    assert (len(solves), carves, absorbs) == (1, [], [])
    assert all(a.value(alloc.bundle_of(a.id)) >= 5 for a in agents)


def test_case_two_carves_the_terminal_cycle(record):
    g = cycle_with_pendant()
    agents = flat_agents(g, 2)
    # the rim of the 5-cycle is worth 40 to everyone, above both targets,
    # so the bounded call must take the carve branch
    solves, carves, absorbs = record_steps(record)
    rest = record(blockcactus, "allocate_bounded")
    alloc = allocate_bounded(g, agents, {1: Fraction(25), 2: Fraction(25)})
    assert (solves, len(carves), absorbs) == ([], 1, [])
    assert alloc.bundle_of(1) == frozenset({"v1", "v2"})
    assert alloc.bundle_of(2) == frozenset({"v3", "v4"})
    # each piece is worth 20 against a target of 25
    assert [a.value(alloc.bundle_of(a.id)) for a in agents] == [20, 20]
    # the recursive call after the carve: pieces and their owners are gone
    (call,) = rest
    rest_graph, rest_agents, _ = call.args
    assert set(rest_graph.vertices) == {"v5", "w"}
    assert list(rest_agents) == []


def test_carve_never_hands_out_the_cut_vertex(record):
    g = cycle_with_pendant()
    agents = (
        flat_agents(g, 1)[0],
        Agent(
            id=2,
            type_id=2,
            utility={**{v: Fraction(1) for v in g.vertices}, "v5": Fraction(10), "w": Fraction(100)},
        ),
    )
    # Agent 1 carves v1-v2.  Agent 2 would cross half her target of 20 only
    # by taking the cut vertex v5, which would cut w off from the rest.
    _, carves, _ = record_steps(record)
    alloc = allocate_bounded(g, agents, {1: Fraction(25), 2: Fraction(20)})
    (carve,) = carves
    assert carve.result.assignments == ((1, frozenset({"v1", "v2"})),)
    assert alloc.bundle_of(1) == frozenset({"v1", "v2"})
    # agent 2 is served with the rest of the graph, which keeps v5 and w
    assert alloc.bundle_of(2) == frozenset({"v3", "v4", "v5", "w"})


def test_case_one_absorbs_a_light_rim(record):
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    agents = flat_agents(g, 2)
    # both terminal rims are single vertices worth 10 < 15
    _, carves, absorbs = record_steps(record)
    alloc = allocate_bounded(g, agents, {1: Fraction(15), 2: Fraction(15)})
    assert carves == [] and len(absorbs) == 1
    folded = absorbs[0].args[0]
    assert len(folded.graph) == 2  # rim merged into its cut vertex
    # every agent still reaches half her unchanged target
    for aid in (1, 2):
        got = agents[aid - 1].value(alloc.bundle_of(aid))
        assert got >= Fraction(15, 2)
    # the folded cut vertex carries the rim's value into the reduction
    merged_values = sorted(folded.agent(1).utility[v] for v in folded.graph.vertices)
    assert merged_values == [Fraction(10), Fraction(20)]


def test_flat_profile_runs_bounded_path_end_to_end(record):
    g = cycle_with_pendant()
    inst = Instance(graph=g, agents=flat_agents(g, 2))
    peels = record(reduction, "peel_heavy_vertices")
    bounded = record(blockcactus, "allocate_bounded")
    alloc = allocate_block_cactus(inst)
    # nothing peels: every vertex is 10, the threshold is 30/2
    assert peels[0].result.heavy == []
    assert any(len(call.args[1]) >= 2 for call in bounded)
    records = {a.id: oracle.pmms(g, a, 2) for a in inst.agents}
    assert check_allocation(inst, alloc, HALF, records).passes


def test_single_agent_takes_everything():
    g = cycle_with_pendant()
    inst = Instance(graph=g, agents=flat_agents(g, 1))
    alloc = allocate_block_cactus(inst)
    assert alloc.bundle_of(1) == frozenset(g.vertices)
    assert check_allocation(inst, alloc, HALF).min_ratio == 1


def test_single_agent_on_disconnected_graph_takes_best_component():
    # a path a-b worth 5 and a triangle c-d-e worth 6: the triangle wins whole
    g = GoodsGraph.build(
        ["a", "b", "c", "d", "e"], [("a", "b"), ("c", "d"), ("d", "e"), ("c", "e")]
    )
    values = {"a": 4, "b": 1, "c": 2, "d": 2, "e": 2}
    only = Agent(id=1, type_id=1, utility={v: Fraction(x) for v, x in values.items()})
    inst = Instance(graph=g, agents=(only,))
    alloc = allocate_block_cactus(inst)
    assert alloc.bundle_of(1) == frozenset({"c", "d", "e"})
    cert = check_allocation(inst, alloc, HALF)
    assert cert.passes and cert.min_ratio == 1


def test_class_mismatch_rejected():
    k23 = GoodsGraph.build(
        ["a1", "a2", "b1", "b2", "b3"],
        [(a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")],
    )
    inst = Instance(graph=k23, agents=flat_agents(k23, 2))
    with pytest.raises(ClassMismatchError):
        allocate_block_cactus(inst)


def test_bounded_call_names_the_agent_without_a_target():
    # A missing or inexact target, or a repeated agent id, is an input error
    # with the ratio search's message, not a KeyError, a float comparison or
    # a dropped agent.  The path has five blocks, so the refusals after the
    # first are the solver's own and not the ratio search's.
    k3 = GoodsGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    path = GoodsGraph.build(
        ["p1", "p2", "p3", "p4", "p5", "p6"],
        [("p1", "p2"), ("p2", "p3"), ("p3", "p4"), ("p4", "p5"), ("p5", "p6")],
    )
    cases = [
        (k3, flat_agents(k3, 2), {1: Fraction(1)}, "no target for agent 2"),
        (path, flat_agents(path, 2), {1: 3.0, 2: 3.0}, "target of agent 1 is 3.0, not an int"),
        (path, flat_agents(path, 2), {1: True, 2: True}, "target of agent 1 is True, not an int"),
        (path, flat_agents(path, 1) * 2, {1: Fraction(3)}, "two agents share an id"),
    ]
    for graph, agents, targets, message in cases:
        with pytest.raises(InvalidInputError, match=message):
            allocate_bounded(graph, agents, targets)
