"""The fail-first search against the canonical share search.

A component that the block DP turns away but that has a simplicial vertex
(one whose neighbourhood in the component is a clique) gets its share value
from the share search run on a view of it: its vertices relabelled fewest
neighbours first, ties by index.  When that order is the index order the
component is searched as it is, with no relabelling.  Its witness still
comes from the search in canonical order, told that value, so every record
must equal the one the canonical search alone gives: the value, and the
first optimum as witness.  The differentials run on every connected graph of
at most 7 vertices in networkx's atlas and on the 48 room cases of
`test_search_replay`.  `fail_first` below is the reference relabelling.
"""

import random
from fractions import Fraction

import networkx as nx
import pytest

from graphfair import generators as gen
from graphfair import oracle
from graphfair.core import Agent, GoodsGraph, GuaranteeViolationError

from test_search_replay import ALPHABETS, room_cases


def graph_of(adj) -> GoodsGraph:
    """A graph whose `neighbor_masks` are `adj`: names sort in index order."""
    names = [f"v{i:02d}" for i in range(len(adj))]
    edges = [(names[i], names[j]) for i, row in enumerate(adj) for j in range(i) if row >> j & 1]
    return GoodsGraph.build(names, edges)


def fail_first(adj, mask: int) -> tuple[list[int], list[int]]:
    """The vertices of `mask` fewest neighbours first, ties by index, and the
    adjacency relabelled to match: vertex order[p] becomes vertex p."""
    order = sorted(oracle._bits(mask), key=lambda i: (adj[i] & mask).bit_count())
    position = {i: p for p, i in enumerate(order)}
    return order, [sum(1 << position[j] for j in oracle._bits(adj[i] & mask)) for i in order]


def view_value(adj, full, wts, n):
    order, view = fail_first(adj, full)
    return oracle._minmax_partition_search(view, (1 << len(order)) - 1, [wts[i] for i in order], n)[0]


def assert_records_match_the_canonical_search(graph: GoodsGraph, wts: list[int], n: int) -> str:
    """pmms and mms of a connected graph: the canonical search's value and parts.

    Returns the name of the method the share took its value from, or "no
    plan" when n is above the vertex count and the share is 0 unsearched.
    """
    adj, full = graph.neighbor_masks, (1 << len(graph.vertices)) - 1
    value, parts = oracle._minmax_partition_search(adj, full, wts, n)
    agent = Agent(id=1, type_id=1, utility=dict(zip(graph.vertices, map(Fraction, wts))))
    oracle.clear_cache()
    rec = oracle.pmms(graph, agent, n)
    witness = tuple(frozenset(graph.vertices[i] for i in oracle._bits(mask)) for mask in parts)
    assert rec.value == value, (graph, wts, n)
    assert rec.witness == witness + (frozenset(),) * (n - len(parts)), (graph, wts, n)
    assert oracle.mms(graph, agent, n) is rec
    entry = oracle._plans.get((graph, full))
    return "no plan" if entry is None else entry[0]


SOURCES = ("no plan", "the index-order search", "the fail-first search", "the threshold DP")


def atlas_graphs():
    for g in nx.graph_atlas_g()[1:]:
        if nx.is_connected(g):
            m = g.number_of_nodes()
            yield [sum(1 << j for j in g[i]) for i in range(m)]


def test_the_view_is_an_isomorphism_with_degrees_ascending(record):
    # Each component's entry is asked for its 2-bundle value with weight i at
    # vertex i, so the weights the relabelled search receives spell out the
    # order it searches the component in.
    rng = random.Random("fail-first:iso")
    masks = [(adj, (1 << len(adj)) - 1) for adj in atlas_graphs()]
    # Components of larger graphs, whose masks are not a prefix of the bits.
    for _ in range(60):
        size = rng.randint(2, 14)
        adj = [0] * size
        for i in range(size):
            for j in range(i):
                if rng.random() < 0.3:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        masks += [(adj, comp) for comp in oracle._components(adj, (1 << size) - 1)]
    calls = record(oracle, "_minmax_partition_search")
    names = dict.fromkeys(("the threshold DP", "the fail-first search", "the index-order search"), 0)
    in_order = 0
    for adj, mask in masks:
        members = [i for i in range(len(adj)) if mask >> i & 1]
        if len(members) < 2:
            continue
        oracle.clear_cache()
        calls.clear()
        name, value = oracle._component_plan(graph_of(adj), mask)
        names[name] += 1
        value(list(range(len(adj))), 2)
        if name == "the threshold DP":
            assert calls == [], (adj, mask)
            continue
        view, full, order, k = calls[0].args
        assert (len(calls), k) == (1, 2)
        if name == "the index-order search":
            # The component as it is: it has no simplicial vertex, or its
            # fail-first order is the index order and it needs no view.
            assert (list(view), full, order) == (adj, mask, list(range(len(adj)))), (adj, mask)
            simplicial = oracle._has_simplicial(adj, mask)
            assert fail_first(adj, mask)[0] == members or not simplicial
            in_order += simplicial
            continue
        assert order != members and oracle._has_simplicial(adj, mask), (adj, mask)
        assert (order, view) == fail_first(adj, mask)
        assert sorted(order) == members
        assert full == (1 << len(members)) - 1
        ranks = [((adj[i] & mask).bit_count(), i) for i in order]
        assert ranks == sorted(ranks)
        for p, i in enumerate(order):
            for q, j in enumerate(order):
                assert (view[p] >> q & 1) == (adj[i] >> j & 1), (adj, mask)
    assert names == {"the threshold DP": 193, "the fail-first search": 583, "the index-order search": 282}
    # Of the index-order ones, 58 have a simplicial vertex, and so would
    # have had a view, but are already in fail-first order.
    assert in_order == 58


def test_atlas_view_values_and_witnesses_match_the_canonical_search():
    # Every connected graph of at most 7 vertices, weighted from three
    # alphabets with ties and zeros, for every n from 2 to one past its
    # vertex count.  The view's value is checked on every graph, the gate
    # aside; the records take their values from all three methods.
    rng = random.Random("fail-first:atlas")
    sources = dict.fromkeys(SOURCES, 0)
    for adj in atlas_graphs():
        m, full = len(adj), (1 << len(adj)) - 1
        graph = graph_of(adj)
        for alphabet in ALPHABETS:
            wts = [rng.choice(alphabet) for _ in range(m)]
            for n in range(2, m + 2):
                assert view_value(adj, full, wts, n) == oracle._minmax_partition_search(adj, full, wts, n)[0]
                sources[assert_records_match_the_canonical_search(graph, wts, n)] += 1
    assert sources == {
        "no plan": 2988,
        "the index-order search": 4854,
        "the fail-first search": 9918,
        "the threshold DP": 2583,
    }


def test_room_case_view_values_and_witnesses_match_the_canonical_search():
    cases = list(room_cases())
    sources = dict.fromkeys(SOURCES, 0)
    for adj, full, wts, n in cases:
        assert view_value(adj, full, wts, n) == oracle._minmax_partition_search(adj, full, wts, n)[0]
        sources[assert_records_match_the_canonical_search(graph_of(adj), wts, n)] += 1
    # The flat multipartite cases have no simplicial vertex.
    assert sources == {
        "no plan": 0,
        "the index-order search": 12,
        "the fail-first search": 34,
        "the threshold DP": 2,
    }


def test_a_complete_multipartite_component_builds_no_view():
    # Every part has two or more vertices, so each vertex's neighbourhood
    # holds two non-adjacent vertices of some other part.
    for seed in range(12):
        graph = gen.gen_multipartite(seed, 10 + seed % 4, 2 + seed % 2, 20).graph
        full = (1 << len(graph.vertices)) - 1
        assert not oracle._has_simplicial(graph.neighbor_masks, full)
        agent = Agent(id=1, type_id=1, utility=dict.fromkeys(graph.vertices, Fraction(1)))
        oracle.clear_cache()
        oracle.pmms(graph, agent, 3).witness
        assert [(key, name) for key, (name, _) in oracle._plans.items()] == [
            ((graph, full), "the index-order search")
        ]


def test_a_cold_split_share_runs_one_search_and_its_witness_one_more(record):
    calls = record(oracle, "_minmax_partition_search")
    inst = gen.gen_split(3, 11, 3, 20, 1)
    graph, agent = inst.graph, inst.agents[0]
    full = (1 << len(graph.vertices)) - 1
    rec = oracle.pmms(graph, agent, inst.n)
    assert oracle._plans[graph, full][0] == "the fail-first search"
    # The value: one search, of the relabelled component, with no floor.
    wts, scale = oracle._weights_for(agent, list(graph.vertices))
    order, view = fail_first(graph.neighbor_masks, full)
    assert [(call.args, call.kwargs) for call in calls] == [
        ((view, full, [wts[i] for i in order], inst.n), {})
    ]
    assert view != list(graph.neighbor_masks)
    witness = rec.witness
    # The witness: one more search, in canonical order, told the value.
    assert len(calls) == 2
    assert calls[1].args[:2] == (graph.neighbor_masks, full)
    assert calls[1].kwargs == {"floor": rec.value * scale}
    assert calls[1].args[2] == wts
    value, parts = oracle._minmax_partition_search(graph.neighbor_masks, full, wts, inst.n)
    assert rec.value * scale == value
    assert witness == tuple(frozenset(graph.vertices[i] for i in oracle._bits(mask)) for mask in parts)
    assert len(calls) == 3
    rec.witness
    assert len(calls) == 3


def test_a_view_value_the_canonical_search_cannot_reach_is_refused(monkeypatch):
    # A view search that reports one more than the optimum leaves the
    # canonical floor search with no partition worth it.
    search = oracle._minmax_partition_search

    def inflated(adj, full, wts, n, floor=None):
        value, parts = search(adj, full, wts, n, floor)
        return (value + 1, parts) if floor is None else (value, parts)

    monkeypatch.setattr(oracle, "_minmax_partition_search", inflated)
    inst = gen.gen_split(3, 11, 3, 20, 1)
    rec = oracle.pmms(inst.graph, inst.agents[0], inst.n)
    with pytest.raises(GuaranteeViolationError, match="the canonical floor search found None, the fail-first search"):
        rec.witness
