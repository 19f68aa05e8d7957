"""The threshold DP on the block-cut tree against the frozen share search.

A component whose blocks have at most 4 vertices gets its share value from
the DP, and its record builds the witness on first read with a search that
knows the value.  Both must agree with `frozen_minmax_partition_search`: the
value with its value, the witness with its first optimum.  Graphs are random
trees of blocks (edges, triangles, 4-cycles, 4-cliques, and 4-cliques less an
edge) with shuffled vertex names, so the tree's root, the smallest vertex,
may sit anywhere in it.
"""

import random
from fractions import Fraction

import pytest

from graphfair import generators as gen
from graphfair import oracle
from graphfair.blockcactus import allocate_block_cactus
from graphfair.core import Agent, GoodsGraph, Instance, UndefinedMmsError
from graphfair.multipartite import allocate_multipartite
from graphfair.verify import check_allocation

from naive_oracles import frozen_minmax_partition_search
from test_fail_first import fail_first

BIG = 2**64
KINDS = ("0..3", "0..20", "zero", "{0, 1, 2^64 + small}")

BLOCKS = {
    "edge": (2, [(0, 1)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "4-cycle": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "4-clique": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "diamond": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
}


def small_block_graph(rng: random.Random, size: int, prefix: str = "v") -> GoodsGraph:
    """A connected graph of `size` vertices whose blocks have at most 4."""
    order = list(range(size))
    rng.shuffle(order)
    names = [f"{prefix}{i:02d}" for i in order]
    edges = []
    placed = 1
    while placed < size:
        kinds = [k for k, (b, _) in BLOCKS.items() if b - 1 <= size - placed]
        b, pattern = BLOCKS[rng.choice(kinds)]
        members = [names[rng.randrange(placed)]] + names[placed : placed + b - 1]
        rng.shuffle(members)
        edges += [(members[i], members[j]) for i, j in pattern]
        placed += b - 1
    return GoodsGraph.build(names, edges)


def weights(rng: random.Random, kind: str, vertices) -> dict[str, Fraction]:
    if kind == "0..3":
        return {v: Fraction(rng.randint(0, 3)) for v in vertices}
    if kind == "0..20":
        return {v: Fraction(rng.randint(0, 20)) for v in vertices}
    if kind == "zero":
        return {v: Fraction(0) for v in vertices}
    return {v: Fraction(rng.choice([0, 1, BIG + rng.randint(0, 5)])) for v in vertices}


def searches(calls) -> list[tuple[int, int]]:
    """The (vertex mask, bundle count) of each recorded share search."""
    return [(call.args[1], call.args[3]) for call in calls]


def scale_of(agent: Agent) -> int:
    return oracle._weights_for(agent, sorted(agent.utility))[1]


def frozen_record(graph: GoodsGraph, agent: Agent, n: int):
    """(value, witness) of the frozen search on a connected graph."""
    ids = graph.vertices
    wts, scale = oracle._weights_for(agent, ids)
    full = (1 << len(ids)) - 1
    value, parts = frozen_minmax_partition_search(graph.neighbor_masks, full, wts, n)
    bundles = tuple(frozenset(ids[i] for i in range(len(ids)) if p >> i & 1) for p in parts)
    witness = bundles + (frozenset(),) * (n - len(parts))
    return Fraction(value, scale), witness


@pytest.mark.parametrize("kind", KINDS)
def test_dp_value_and_witness_match_the_frozen_search(kind, record):
    calls = record(oracle, "_minmax_partition_search")
    rng = random.Random(f"block-dp:{kind}")
    for size in range(1, 13):
        for _ in range(3):
            graph = small_block_graph(rng, size)
            agent = Agent(id=1, type_id=1, utility=weights(rng, kind, graph.vertices))
            for n in range(2, size + 1):
                oracle.clear_cache()
                calls.clear()
                rec = oracle.pmms(graph, agent, n)
                assert calls == [], (graph, n)
                value, witness = frozen_record(graph, agent, n)
                assert rec.value == value, (graph, agent.utility, n)
                assert rec.witness == witness, (graph, agent.utility, n)
                # The first read ran one search, which knew the value.
                assert [call.kwargs for call in calls] == [{"floor": value * scale_of(agent)}]


def index_order_entry(graph: GoodsGraph, mask: int):
    """The plan entry that searches component `mask` as it is, in index order."""
    adj = graph.neighbor_masks
    return "the index-order search", lambda wts, k: oracle._minmax_partition_search(adj, mask, wts, k)[0]


def searched_records(graph: GoodsGraph, agent: Agent, n: int, monkeypatch) -> dict:
    """pmms and mms records with the DP turned off, so every share is searched."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_component_plan", index_order_entry)
        oracle.clear_cache()
        records = {}
        for share in (oracle.pmms, oracle.mms):
            try:
                rec = share(graph, agent, n)
            except UndefinedMmsError:
                continue
            records[share] = (rec.value, rec.witness)
    oracle.clear_cache()
    return records


def test_disconnected_block_graphs_give_the_searched_records(monkeypatch):
    rng = random.Random("block-dp:disconnected")
    for trial in range(20):
        parts = [small_block_graph(rng, rng.randint(1, 5), prefix=f"c{c}") for c in range(3)]
        graph = GoodsGraph.build(
            [v for p in parts for v in p.vertices], [e for p in parts for e in p.edges]
        )
        kind = KINDS[trial % len(KINDS)]
        agent = Agent(id=1, type_id=1, utility=weights(rng, kind, graph.vertices))
        for n in range(1, len(graph.vertices) + 2):
            expected = searched_records(graph, agent, n, monkeypatch)
            for share in (oracle.pmms, oracle.mms):
                if share in expected:
                    rec = share(graph, agent, n)
                    assert (rec.value, rec.witness) == expected[share], (graph, n, share)


def test_a_block_of_five_vertices_falls_back_to_the_search(record, monkeypatch):
    calls = record(oracle, "_minmax_partition_search")
    # A 5-cycle with a pendant triangle: 8 edges on 7 vertices pass the edge
    # count, and the block-cut tree then shows the 5-vertex block.
    names = ["a", "b", "c", "d", "e", "f", "g"]
    cycle = [(names[i], names[(i + 1) % 5]) for i in range(5)]
    graph = GoodsGraph.build(names, cycle + [("e", "f"), ("f", "g"), ("e", "g")])
    rng = random.Random("block-dp:five")
    for n in (2, 3, 4):
        agent = Agent(id=1, type_id=1, utility=weights(rng, "0..20", names))
        expected = searched_records(graph, agent, n, monkeypatch)
        calls.clear()
        rec = oracle.pmms(graph, agent, n)
        # The value came from one search of the component relabelled fewest
        # neighbours first (the triangle's f and g are simplicial); the
        # witness, on first read, from a canonical search that knew the value.
        assert oracle._plans[graph, 0b1111111][0] == "the fail-first search"
        assert searches(calls) == [(0b1111111, n)]
        view = fail_first(graph.neighbor_masks, 0b1111111)[1]
        assert calls[0].args[0] == view != list(graph.neighbor_masks)
        assert (rec.value, rec.witness) == expected[oracle.pmms]
        assert oracle.mms(graph, agent, n) is rec
        assert searches(calls) == [(0b1111111, n)] * 2
        assert calls[1].args[0] == graph.neighbor_masks
        assert calls[1].kwargs == {"floor": rec.value * scale_of(agent)}


def cold_certificate_searches(inst: Instance, allocate, calls) -> int:
    """Searches run by a cold certificate: pmms for every agent, then the check."""
    alloc = allocate(inst)
    oracle.clear_cache()
    calls.clear()
    records = {a.id: oracle.pmms(inst.graph, a, inst.n) for a in inst.agents}
    cert = check_allocation(inst, alloc, alloc.target_alpha, records)
    assert cert.passes, cert.notes
    return len(calls)


def test_a_cold_certificate_runs_no_search_on_a_block_cactus_instance(record):
    calls = record(oracle, "_minmax_partition_search")
    for seed in range(6):
        inst = gen.gen_block_cactus(seed, 12, 3, 20)
        assert cold_certificate_searches(inst, allocate_block_cactus, calls) == 0, seed


def test_a_cold_certificate_on_a_multipartite_instance_searches_as_before(record):
    # Complete multipartite graphs are too dense for the DP: each utility
    # function still costs one search for the whole graph.
    calls = record(oracle, "_minmax_partition_search")
    for seed in range(4):
        inst = gen.gen_multipartite(seed, 10, 2, 20)
        types = {tuple(sorted(a.utility.items())) for a in inst.agents}
        assert cold_certificate_searches(inst, allocate_multipartite, calls) == len(types), seed
