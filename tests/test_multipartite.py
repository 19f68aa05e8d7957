import random
from fractions import Fraction

import pytest

from graphfair import io, multipartite as mp, oracle, reduction
from graphfair.core import (
    Agent,
    ClassMismatchError,
    GoodsGraph,
    GuaranteeViolationError,
    Instance,
    InvalidInputError,
)
from graphfair.generators import gen_multipartite
from graphfair.graphs import recognize
from graphfair.multipartite import (
    allocate_bounded_multipartite,
    allocate_multipartite,
    make_bipart_split,
)
from graphfair.verify import check_allocation

from naive_oracles import is_partition_of, packing_problems

QUARTER = Fraction(1, 4)


def multipartite(*sizes: int) -> GoodsGraph:
    names: list[list[str]] = []
    k = 0
    for s in sizes:
        names.append([f"v{k + i:02d}" for i in range(s)])
        k += s
    flat = [v for part in names for v in part]
    edges = [
        (a, b)
        for i, pa in enumerate(names)
        for pb in names[i + 1 :]
        for a in pa
        for b in pb
    ]
    return GoodsGraph.build(flat, edges)


def flat_agents(graph: GoodsGraph, n: int, value: int = 10) -> tuple[Agent, ...]:
    return tuple(
        Agent(id=i, type_id=i, utility={v: Fraction(value) for v in graph.vertices})
        for i in range(1, n + 1)
    )


def test_make_bipart_split_prefix_of_small_parts():
    g = multipartite(2, 3, 5)
    parts = sorted(recognize(g).parts, key=lambda p: (len(p), sorted(p)))
    agents = flat_agents(g, 2)
    split = make_bipart_split(parts, agents, 2)
    assert split.v1 == parts[0]
    assert split.v2 == parts[1] | parts[2]
    # flat agents weakly prefer the bigger half, ties go to v1
    assert split.n1 == () and split.n2 == (1, 2)
    # the split orders the parts itself
    assert make_bipart_split(parts[::-1], agents, 2) == split


def test_make_bipart_split_tie_prefers_v1():
    g = multipartite(5, 5)
    parts = sorted(recognize(g).parts, key=lambda p: (len(p), sorted(p)))
    agents = flat_agents(g, 2)
    split = make_bipart_split(parts, agents, 2)
    assert split.n1 == (1, 2) and split.n2 == ()


def test_make_bipart_split_needs_a_leftover_part():
    g = multipartite(1, 9)
    parts = sorted(recognize(g).parts, key=lambda p: (len(p), sorted(p)))
    agents = flat_agents(g, 2)
    # the singleton part is short of n=2, and taking both parts leaves nothing
    with pytest.raises(GuaranteeViolationError):
        make_bipart_split(parts, agents, 2)


def test_bounded_call_serves_everyone_a_quarter(record):
    g = multipartite(5, 5)
    parts = sorted(recognize(g).parts, key=lambda p: (len(p), sorted(p)))
    agents = flat_agents(g, 2)
    targets = {a.id: oracle.mms(g, a, 2).value for a in agents}
    assert targets == {1: Fraction(50), 2: Fraction(50)}
    splits = record(mp, "make_bipart_split")
    alloc = allocate_bounded_multipartite(g, parts, agents, targets)
    assert is_partition_of([b for _, b in alloc.bundles], g)
    assert packing_problems(alloc.bundles, g) == []
    for a in agents:
        assert a.value(alloc.bundle_of(a.id)) >= QUARTER * targets[a.id]
    (call,) = splits
    split = call.result
    # flat ties put both agents on v1, each served agent draws a spare from v2
    assert set(split.n1) == {1, 2}
    assert all(alloc.bundle_of(a.id) & split.v2 for a in agents)


def test_bounded_call_rejects_small_graphs():
    g = multipartite(2, 2)
    parts = sorted(recognize(g).parts, key=lambda p: (len(p), sorted(p)))
    agents = flat_agents(g, 2)
    with pytest.raises(GuaranteeViolationError):
        allocate_bounded_multipartite(g, parts, agents, {1: Fraction(1), 2: Fraction(1)})


def test_bounded_call_input_checks():
    g = multipartite(3, 3)
    parts = sorted(recognize(g).parts, key=lambda p: (len(p), sorted(p)))
    (agent,) = flat_agents(g, 1)
    with pytest.raises(InvalidInputError):
        allocate_bounded_multipartite(g, parts, (agent,), {1: Fraction(-1)})
    # the reduction serves a lone agent itself, so fewer than two is an error
    for agents in ((agent,), ()):
        with pytest.raises(GuaranteeViolationError, match="two or more agents"):
            allocate_bounded_multipartite(g, parts, agents, {1: Fraction(60)})


def test_bounded_call_names_the_agent_without_a_target():
    # A missing or inexact target, or a repeated agent id, is an input error
    # with the ratio search's message, not a KeyError, a float comparison or
    # a dropped agent.  Each flat agent's share of K5,5 is 50.
    g = multipartite(5, 5)
    parts = sorted(recognize(g).parts, key=lambda p: (len(p), sorted(p)))
    cases = [
        (flat_agents(g, 2), {1: Fraction(10)}, "no target for agent 2"),
        (flat_agents(g, 2), {1: 50.0, 2: 50.0}, "target of agent 1 is 50.0, not an int"),
        (flat_agents(g, 2), {1: True, 2: True}, "target of agent 1 is True, not an int"),
        (flat_agents(g, 1) * 2, {1: Fraction(50)}, "two agents share an id"),
    ]
    for agents, targets, message in cases:
        with pytest.raises(InvalidInputError, match=message):
            allocate_bounded_multipartite(g, parts, agents, targets)


def unshaped_profile(rng: random.Random, kind: str, graph: GoodsGraph) -> dict:
    if kind == "raw":
        return {v: Fraction(rng.randint(0, 20)) for v in graph.vertices}
    if kind == "flat":
        return {v: Fraction(rng.randint(8, 12)) for v in graph.vertices}
    return {v: Fraction(rng.randint(1, 20) if rng.random() < 0.3 else 0) for v in graph.vertices}


def test_every_bounded_call_on_unshaped_graphs_has_five_light_vertices_per_agent(record):
    # Random part sizes, unlike gen_multipartite's shaped ones.  The docstring
    # of allocate_bounded_multipartite argues both checks for every call.
    rng = random.Random("unshaped-multipartite")
    bounded = record(mp, "allocate_bounded_multipartite")
    for _ in range(800):
        m = rng.randint(4, 13)
        count = rng.randint(2, m)
        sizes = [1] * count
        for _ in range(m - count):
            sizes[rng.randrange(count)] += 1
        g = multipartite(*sizes)
        kind = rng.choice(["raw", "flat", "sparse"])
        agents = tuple(
            Agent(id=i, type_id=i, utility=unshaped_profile(rng, kind, g))
            for i in range(1, rng.randint(2, 3) + 1)
        )
        allocate_multipartite(Instance(graph=g, agents=agents))
    assert len(bounded) >= 30
    for call in bounded:
        graph, _, agents, targets = call.args
        assert len(graph.vertices) >= 5 * len(agents)
        for a in agents:
            assert all(4 * a.utility[v] < targets[a.id] for v in graph.vertices)


def test_allocate_multipartite_end_to_end_flat(record):
    g = multipartite(4, 6)
    inst = Instance(graph=g, agents=flat_agents(g, 2))
    bounded = record(mp, "allocate_bounded_multipartite")
    alloc = allocate_multipartite(inst)
    records = {a.id: oracle.pmms(g, a, 2) for a in inst.agents}
    assert check_allocation(inst, alloc, QUARTER, records).passes
    assert any(len(call.args[2]) >= 2 for call in bounded)


def test_allocate_multipartite_single_agent():
    g = multipartite(2, 2)
    inst = Instance(graph=g, agents=flat_agents(g, 1))
    alloc = allocate_multipartite(inst)
    assert alloc.bundle_of(1) == frozenset(g.vertices)
    assert check_allocation(inst, alloc, Fraction(1)).min_ratio == 1


def test_allocate_multipartite_rejects_other_graphs():
    p4 = GoodsGraph.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    inst = Instance(graph=p4, agents=flat_agents(p4, 2))
    with pytest.raises(ClassMismatchError):
        allocate_multipartite(inst)


def test_components_get_the_top_level_parts_restricted(record):
    g = multipartite(2, 5, 7)
    # Agent 1 peels v00.  Agents 2 and 3 value v00 most, so it keeps their
    # shares above four times any other vertex, and the 13 vertices left
    # serve them both.
    flat = {v: Fraction(10) for v in g.vertices}
    agents = tuple(
        Agent(id=i, type_id=i, utility={**flat, "v00": Fraction(x)})
        for i, x in ((1, 1000), (2, 40), (3, 40))
    )
    inst = Instance(graph=g, agents=agents)
    recognized = record(mp, "recognize")
    bounded = record(mp, "allocate_bounded_multipartite")
    alloc = allocate_multipartite(inst)
    assert alloc.bundle_of(1) == frozenset({"v00"})
    assert len(recognized) == 1  # only the whole graph is recognized

    def order(parts):
        return sorted(parts, key=lambda p: (len(p), sorted(p)))

    (call,) = bounded
    graph, parts = call.args[:2]
    assert "v00" not in graph.vertices
    assert order(parts) == order(recognize(graph).parts)


def zero_first(inst: Instance) -> tuple[Agent, ...]:
    zero = dict.fromkeys(inst.graph.vertices, Fraction(0))
    first, *rest = inst.agents
    return (Agent(id=first.id, type_id=first.type_id, utility=zero), *rest)


def zero_all(inst: Instance) -> tuple[Agent, ...]:
    zero = dict.fromkeys(inst.graph.vertices, Fraction(0))
    return tuple(Agent(id=a.id, type_id=a.type_id, utility=zero) for a in inst.agents)


def one_type(inst: Instance) -> tuple[Agent, ...]:
    first = inst.agents[0]
    return tuple(Agent(id=a.id, type_id=first.type_id, utility=first.utility) for a in inst.agents)


def certify_twice(inst: Instance, label) -> None:
    """Two cold runs certify at 1/4, raise no guarantee error and give one output."""
    runs = []
    for _ in range(2):
        oracle.clear_cache()
        try:
            alloc = allocate_multipartite(inst)
        except GuaranteeViolationError as exc:
            raise AssertionError(f"{label}: the allocator broke its guarantee: {exc}") from exc
        assert alloc.target_alpha == QUARTER, label
        cert = check_allocation(inst, alloc, QUARTER)
        assert cert.passes, (label, cert.notes)
        runs.append(io.canonical_dumps(io.allocation_to_doc(inst, cert)))
    assert runs[0] == runs[1], label


@pytest.mark.parametrize("variant", [zero_first, zero_all, one_type])
@pytest.mark.parametrize("n, vertices", [(2, 10), (3, 11), (4, 12), (2, 13), (3, 13)])
def test_zero_and_single_type_profiles_certify_and_repeat_byte_for_byte(variant, n, vertices):
    # Generator seeds 0-9 at the fewest vertices the generator allows for n
    # agents and at 13 vertices, with agent 1 valuing nothing, every agent
    # valuing nothing, or every agent of agent 1's type.
    for seed in range(10):
        generated = gen_multipartite(seed, vertices, n, 20)
        certify_twice(Instance(graph=generated.graph, agents=variant(generated)), seed)


def favourite_only(agent: Agent) -> Agent:
    """The agent valuing only her first most valuable vertex: a zero share for n >= 2."""
    top = max(sorted(agent.utility), key=agent.utility.__getitem__)
    utility = {v: (x if v == top else Fraction(0)) for v, x in agent.utility.items()}
    return Agent(id=agent.id, type_id=agent.type_id, utility=utility)


@pytest.mark.parametrize("n, vertices", [(2, 10), (3, 11), (4, 12), (2, 13), (3, 13), (4, 13)])
def test_mixed_zero_and_positive_shares_certify_and_repeat_byte_for_byte(n, vertices):
    # Every even-numbered agent values one vertex alone, so her share is 0
    # although her utility is not; the others keep the generator's profiles
    # and positive shares.  Zero-share agents peel whenever goods remain.
    for seed in range(10):
        generated = gen_multipartite(seed, vertices, n, 20)
        agents = tuple(a if a.id % 2 else favourite_only(a) for a in generated.agents)
        inst = Instance(graph=generated.graph, agents=agents)
        shares = {a.id: oracle.pmms(inst.graph, a, n).value for a in agents}
        assert all((shares[a.id] > 0) == (a.id % 2 == 1) for a in agents), (seed, shares)
        certify_twice(inst, seed)


# Two-agent instances (generator seed, vertices, profile) in which agent 1's
# heaviest vertex crosses the peel threshold: worth x, it is at least a
# quarter of her share, and worth x - 1 it is not, while still her heaviest.
# Found by scaling that vertex and recomputing her share.  With three or
# more agents on at most 13 vertices, a quarter share is below the other
# vertices' values, so the heaviest vertex alone cannot cross it.
PEEL_THRESHOLD = [
    (0, 10, "flat", "v05", 14),
    (1, 10, "flat", "v02", 13),
    (3, 10, "flat", "v02", 14),
    (0, 13, "flat", "v05", 18),
    (1, 13, "flat", "v02", 17),
    (2, 13, "flat", "v08", 16),
    (3, 13, "flat", "v02", 18),
    (2, 13, "raw", "v06", 21),
]


@pytest.mark.parametrize("side", ["under", "over"])
@pytest.mark.parametrize("seed, vertices, profile, vertex, x", PEEL_THRESHOLD)
def test_heaviest_vertex_at_the_peel_threshold(seed, vertices, profile, vertex, x, side, record):
    generated = gen_multipartite(seed, vertices, 2, 20)
    graph = generated.graph
    first, second = generated.agents
    if profile == "flat":
        # Near-equal 8..12 utilities, drawn for agent 1, then agent 2.
        rng = random.Random(seed)
        first, second = (
            Agent(
                id=a.id,
                type_id=a.type_id,
                utility={v: Fraction(rng.randint(8, 12)) for v in graph.vertices},
            )
            for a in (first, second)
        )
    over = side == "over"
    worth = x if over else x - 1
    utility = {**first.utility, vertex: Fraction(worth)}
    agent = Agent(id=first.id, type_id=first.type_id, utility=utility)
    inst = Instance(graph=graph, agents=(agent, second))
    assert all(u < worth for v, u in utility.items() if v != vertex)
    assert (4 * worth >= oracle.pmms(inst.graph, agent, 2).value) == over
    peels = record(reduction, "peel_heavy_vertices")
    certify_twice(inst, (seed, side))
    # Over the threshold agent 1 peels the vertex; under it she peels nothing.
    assert len(peels) == 2
    for call in peels:
        assert [v for v, aid in call.result.heavy if aid == 1] == ([vertex] if over else [])
