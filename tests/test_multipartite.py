from fractions import Fraction

import pytest

from graphfair import multipartite as mp, oracle
from graphfair.core import (
    Agent,
    ClassMismatchError,
    GoodsGraph,
    GuaranteeViolationError,
    Instance,
    InvalidInputError,
)
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
