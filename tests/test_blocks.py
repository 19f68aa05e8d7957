"""The lowpoint search on the bitmask view, and the DP's threshold search.

`graphs.block_cut_tree` is the one block search.  Its pairs, translated
into vertex ids here, must equal `naive_oracles.frozen_block_cut_tree`, the
string-keyed search it replaced, field by field; the search itself is held
to networkx on connected vertex subsets.  The block DP reads its pairs, and
its threshold search jumps to the least set a count closed; it must find
the value of `naive_oracles.frozen_threshold_share`, the plain bisection.
Share calls must build no induced graph, and neither may the peels of a
block-cactus allocation.  `hamiltonian_path_in_block` reads its clique and
cycle tests off the same view and must equal
`naive_oracles.frozen_hamiltonian_path_in_block`, the string walk it replaced.
"""

import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings

from graphfair import blockdp, generators as gen, graphs, oracle, reduction
from graphfair.blockcactus import allocate_block_cactus
from graphfair.core import (
    Agent,
    GoodsGraph,
    StructuralError,
    UndefinedMmsError,
    UnsupportedBlockError,
)
from graphfair.graphs import _bits, _components, block_cut_tree, hamiltonian_path_in_block
from naive_oracles import (
    frozen_block_cut_tree,
    frozen_hamiltonian_path_in_block,
    frozen_threshold_share,
)
import naive_oracles
from test_block_dp import KINDS, small_block_graph, weights
from test_graphs import named_tree
from test_properties import block_cactus_instances


def atlas():
    """All 1253 atlas graphs of up to 7 vertices, the empty graph included."""
    for g in nx.graph_atlas_g():
        yield g, GoodsGraph.build([f"v{v}" for v in g.nodes], [(f"v{a}", f"v{b}") for a, b in g.edges])


def random_graphs(count=300):
    """Seeded G(n, p) graphs of 1 to 14 vertices, named so that id order is not index order."""
    rng = random.Random("blocks:gnp")
    for _ in range(count):
        g = nx.gnp_random_graph(rng.randint(1, 14), rng.uniform(0.1, 0.6), seed=rng.getrandbits(32))
        yield g, GoodsGraph.build([f"v{v}" for v in g.nodes], [(f"v{a}", f"v{b}") for a, b in g.edges])


def matches_the_frozen_search(g: nx.Graph, graph: GoodsGraph, index: int) -> bool:
    """Hold the translated search to the frozen one; True when `graph` is connected.

    The frozen search refuses an empty or disconnected graph.  On a
    disconnected one the live search must reach exactly the component of
    the lowest vertex, as networkx finds it.
    """
    if not graph.vertices:
        with pytest.raises(StructuralError, match="empty graph has no block structure"):
            frozen_block_cut_tree(graph)
        return False
    blocks, cuts, terminal, reached = named_tree(graph)
    if not nx.is_connected(g):
        with pytest.raises(StructuralError, match="graph is disconnected"):
            frozen_block_cut_tree(graph)
        lowest = int(graph.vertices[0][1:])
        assert reached == {f"v{v}" for v in nx.node_connected_component(g, lowest)}, index
        return False
    tree = frozen_block_cut_tree(graph)
    got = blocks, cuts, terminal
    assert got == (tree.blocks, tree.cut_vertices, tree.terminal_blocks), index
    assert reached == frozenset(graph.vertices), index
    return True


def test_block_cut_tree_matches_the_frozen_search_on_every_atlas_graph():
    connected = sum(matches_the_frozen_search(g, graph, i) for i, (g, graph) in enumerate(atlas()))
    assert connected == 996  # the connected graphs of 1 to 7 vertices


def test_block_cut_tree_matches_the_frozen_search_on_random_graphs():
    connected = sum(
        matches_the_frozen_search(g, graph, i) for i, (g, graph) in enumerate(random_graphs())
    )
    assert connected >= 100


def path_outcome(find, block: frozenset[str], graph: GoodsGraph, endpoint: str):
    try:
        return find(block, graph, endpoint)
    except (StructuralError, UnsupportedBlockError) as exc:
        return type(exc).__name__, str(exc)


def test_hamiltonian_paths_match_the_frozen_walk_on_every_atlas_graph():
    # Every block of every component, with every vertex of the graph as the
    # endpoint: clique and cycle blocks give paths for endpoints inside them,
    # and other blocks and outside endpoints must fail the same way.
    kinds = {"path": 0, "StructuralError": 0, "UnsupportedBlockError": 0}
    cycles = 0
    for index, (_, graph) in enumerate(atlas()):
        ids, adj = graph.vertices, graph.neighbor_masks
        for comp in _components(adj, (1 << len(ids)) - 1):
            for _, mask in block_cut_tree(adj, comp)[0]:
                block = frozenset(ids[i] for i in _bits(mask))
                for endpoint in ids:
                    got = path_outcome(hamiltonian_path_in_block, block, graph, endpoint)
                    want = path_outcome(frozen_hamiltonian_path_in_block, block, graph, endpoint)
                    assert got == want, (index, sorted(block), endpoint)
                    kinds["path" if isinstance(got, list) else got[0]] += 1
                    cycles += isinstance(got, list) and not naive_oracles._is_clique(graph, block)
    assert all(kinds.values()) and cycles, (kinds, cycles)


def assert_blocks_match_networkx(g: nx.Graph, graph: GoodsGraph, mask: int) -> None:
    """`block_cut_tree(adj, mask)` against networkx on the component of mask's lowest vertex."""
    pos = graph.position
    comp = _components(graph.neighbor_masks, mask)[0]
    pairs, reached = block_cut_tree(graph.neighbor_masks, mask)
    assert reached == comp
    sub = g.subgraph(v for v in g.nodes if comp >> pos[f"v{v}"] & 1)
    # networkx lists no block for a lone vertex; block_cut_tree lists it as one.
    expected = sorted(sum(1 << pos[f"v{v}"] for v in b) for b in nx.biconnected_components(sub))
    expected = expected or [comp]
    assert sorted(block for _, block in pairs) == expected
    root = int(graph.vertices[(comp & -comp).bit_length() - 1][1:])
    depth = {pos[f"v{v}"]: d for v, d in nx.single_source_shortest_path_length(sub, root).items()}
    for i, (parent, block) in enumerate(pairs):
        # The parent is the block's one vertex nearest the root.
        nearest = min(depth[x] for x in _bits(block))
        assert [x for x in _bits(block) if depth[x] == nearest] == [parent]
        # The blocks below this one hang from its other vertices.
        for later_parent, _ in pairs[i + 1 :]:
            assert not (block ^ (1 << parent)) >> later_parent & 1


def test_blocks_of_vertex_subsets_match_networkx():
    for index, (g, graph) in enumerate(atlas()):
        if not g.number_of_nodes():
            continue
        rng = random.Random(index)
        full = (1 << g.number_of_nodes()) - 1
        masks = [full] + [rng.getrandbits(g.number_of_nodes()) or 1 for _ in range(3)]
        for mask in masks:
            assert_blocks_match_networkx(g, graph, mask)
            for comp in _components(graph.neighbor_masks, mask):
                assert_blocks_match_networkx(g, graph, comp)
    for index, (g, graph) in enumerate(random_graphs(100)):
        rng = random.Random(index)
        for mask in _components(graph.neighbor_masks, rng.getrandbits(len(graph.vertices)) or 1):
            assert_blocks_match_networkx(g, graph, mask)


def assert_threshold_calls_match_the_bisection(calls) -> None:
    for call in calls:
        assert call.result == frozen_threshold_share(*call.args), call.args


@pytest.mark.parametrize("kind", KINDS)
def test_threshold_share_matches_the_bisection_on_the_block_dp_draws(kind, record):
    # The connected draws of tests/test_block_dp.py, in its order.
    calls = record(oracle, "_threshold_share")
    rng = random.Random(f"block-dp:{kind}")
    for size in range(1, 13):
        for _ in range(3):
            graph = small_block_graph(rng, size)
            agent = Agent(id=1, type_id=1, utility=weights(rng, kind, graph.vertices))
            for n in range(2, size + 1):
                oracle.clear_cache()
                oracle.pmms(graph, agent, n)
    assert calls
    assert_threshold_calls_match_the_bisection(calls)


def test_threshold_share_matches_the_bisection_on_disconnected_block_dp_draws(record):
    calls = record(oracle, "_threshold_share")
    rng = random.Random("block-dp:disconnected")
    for trial in range(20):
        parts = [small_block_graph(rng, rng.randint(1, 5), prefix=f"c{c}") for c in range(3)]
        graph = GoodsGraph.build(
            [v for p in parts for v in p.vertices], [e for p in parts for e in p.edges]
        )
        agent = Agent(id=1, type_id=1, utility=weights(rng, KINDS[trial % len(KINDS)], graph.vertices))
        for n in range(1, len(graph.vertices) + 2):
            oracle.clear_cache()
            for share in (oracle.pmms, oracle.mms):
                try:
                    share(graph, agent, n)
                except UndefinedMmsError:
                    pass
    assert calls
    assert_threshold_calls_match_the_bisection(calls)


def test_threshold_share_matches_the_bisection_on_cold_block_cactus_certificates(record):
    calls = record(oracle, "_threshold_share")
    for seed in range(6):
        inst = gen.gen_block_cactus(seed, 12, 3, 20)
        allocate_block_cactus(inst)
        oracle.clear_cache()
        for a in inst.agents:
            oracle.pmms(inst.graph, a, inst.n)
    assert calls
    assert_threshold_calls_match_the_bisection(calls)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(block_cactus_instances())
def test_threshold_share_matches_the_bisection_on_block_cactus_properties(inst):
    found = []
    share = oracle._threshold_share

    def logged(*args):
        found.append((args, share(*args)))
        return found[-1][1]

    oracle._threshold_share = logged
    try:
        oracle.clear_cache()
        allocate_block_cactus(inst)
        oracle.clear_cache()
        for a in inst.agents:
            oracle.pmms(inst.graph, a, inst.n)
    finally:
        oracle._threshold_share = share
    for args, value in found:
        assert value == frozen_threshold_share(*args), args


def test_the_jump_makes_fewer_counts_than_the_bisection(record):
    # On the path a-b-c-d weighted 8, 0, 1, 8, two bundles: the first count,
    # at t = 4, closes {d} and {a, b, c}, both worth 8 = 17 // 2, so the
    # search is done; the bisection also counts at 6, 7 and 8.
    graph = GoodsGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    plan = oracle._block_plan(graph, 0b1111)
    jumps = record(blockdp, "_set_count")
    steps = record(naive_oracles, "frozen_set_count")
    assert blockdp._threshold_share(plan, [8, 0, 1, 8], 17, 2) == 8
    assert frozen_threshold_share(plan, [8, 0, 1, 8], 17, 2) == 8
    assert (len(jumps), len(steps)) == (1, 4)


def split_graph_with_a_big_block() -> GoodsGraph:
    """A 5-clique with a pendant at each clique vertex: 15 edges on 10 vertices."""
    clique = [f"k{i}" for i in range(5)]
    pendants = [f"p{i}" for i in range(5)]
    edges = [(a, b) for i, a in enumerate(clique) for b in clique[i + 1 :]]
    return GoodsGraph.build(clique + pendants, edges + list(zip(clique, pendants)))


def test_shares_build_no_induced_graph(record):
    split = split_graph_with_a_big_block()
    # It passes the DP's edge count, so only its blocks turn it away.
    assert 2 * len(split.edges) <= 4 * (len(split.vertices) - 1)
    assert max(map(len, named_tree(split)[0])) == 5
    assert graphs.recognize(split).has("split")
    cases = [(split, Agent(id=1, type_id=1, utility={v: Fraction(i % 4) for i, v in enumerate(split.vertices)}))]
    for seed in range(4):
        inst = gen.gen_block_cactus(seed, 12, 3, 20)
        cases += [(inst.graph, a) for a in inst.agents]
    induced = record(GoodsGraph, "induced")
    for graph, agent in cases:
        for n in (2, 3, 4):
            oracle.clear_cache()
            oracle.pmms(graph, agent, n)
            oracle.mms(graph, agent, n)
            if graph is split:
                assert oracle._plans == {(split, (1 << 10) - 1): None}
    assert induced == []


def test_block_cactus_allocation_peels_build_no_induced_graph(record):
    peels = record(reduction, "peel_heavy_vertices")
    for seed in range(6):
        for vertices, agents in ((9, 2), (12, 3), (14, 4)):
            allocate_block_cactus(gen.gen_block_cactus(seed, vertices, agents, 20))
    # Replay every peel the allocations made, the absorb's re-entries
    # included, and watch for induced graphs.
    made = list(peels)
    induced = record(GoodsGraph, "induced")
    assert len(made) > 18
    for call in made:
        assert reduction.peel_heavy_vertices(*call.args) == call.result
    assert induced == []


def test_a_component_too_dense_for_the_dp_is_cached_as_none():
    graph = gen.gen_multipartite(0, 10, 2, 20).graph
    full = (1 << len(graph.vertices)) - 1
    agent = Agent(id=1, type_id=1, utility=dict.fromkeys(graph.vertices, Fraction(1)))
    oracle.pmms(graph, agent, 2)
    assert oracle._plans == {(graph, full): None}
