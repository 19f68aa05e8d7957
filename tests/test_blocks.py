"""The lowpoint search on the bitmask view, and the DP's threshold search.

`graphs.block_cut_tree` is the one block search.  Its pairs, translated
into vertex ids here, must equal `naive_oracles.frozen_block_cut_tree`, the
string-keyed search it replaced, field by field; the search itself is held
to networkx on connected vertex subsets.  The block DP reads its pairs, and
its threshold search jumps to the least set a count closed; it must find
the value of `naive_oracles.frozen_threshold_share`, the plain bisection,
run on `naive_oracles.frozen_plan` of the same component.  Its count reads
one table per set of open children and must return the `(count, least)` of
`naive_oracles.frozen_jump_set_count`, the count that scanned every layout,
at every threshold; each table, read off reachability, must equal the
table the count built by filtering `naive_oracles.frozen_layouts`, and each
entry must pick as a scan of those layouts does.
Share calls must build no induced graph, and neither may the peels of a
block-cactus allocation.  `hamiltonian_path_in_block` reads its clique and
cycle tests off the same view and must equal
`naive_oracles.frozen_hamiltonian_path_in_block`, the string walk it replaced.
"""

import random
from fractions import Fraction
from itertools import combinations, product

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


def assert_threshold_calls_match_the_bisection(calls, plans) -> None:
    # Each live plan, by id, and `frozen_plan` of the same component.
    frozen = {id(call.result): naive_oracles.frozen_plan(*call.args) for call in plans}
    for call in calls:
        plan, *rest = call.args
        assert call.result == frozen_threshold_share(frozen[id(plan)], *rest), rest


def run_block_dp_draws(kind: str) -> None:
    """The connected draws of tests/test_block_dp.py, in its order."""
    rng = random.Random(f"block-dp:{kind}")
    for size in range(1, 13):
        for _ in range(3):
            graph = small_block_graph(rng, size)
            agent = Agent(id=1, type_id=1, utility=weights(rng, kind, graph.vertices))
            for n in range(2, size + 1):
                oracle.clear_cache()
                oracle.pmms(graph, agent, n)


def run_disconnected_draws() -> None:
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


def run_cold_block_cactus_certificates() -> None:
    for seed in range(6):
        inst = gen.gen_block_cactus(seed, 12, 3, 20)
        allocate_block_cactus(inst)
        oracle.clear_cache()
        for a in inst.agents:
            oracle.pmms(inst.graph, a, inst.n)


@pytest.mark.parametrize("kind", KINDS)
def test_threshold_share_matches_the_bisection_on_the_block_dp_draws(kind, record):
    plans = record(oracle, "_plan")
    calls = record(oracle, "_threshold_share")
    run_block_dp_draws(kind)
    assert calls
    assert_threshold_calls_match_the_bisection(calls, plans)


def test_threshold_share_matches_the_bisection_on_disconnected_block_dp_draws(record):
    plans = record(oracle, "_plan")
    calls = record(oracle, "_threshold_share")
    run_disconnected_draws()
    assert calls
    assert_threshold_calls_match_the_bisection(calls, plans)


def test_threshold_share_matches_the_bisection_on_cold_block_cactus_certificates(record):
    plans = record(oracle, "_plan")
    calls = record(oracle, "_threshold_share")
    run_cold_block_cactus_certificates()
    assert calls
    assert_threshold_calls_match_the_bisection(calls, plans)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(block_cactus_instances())
def test_threshold_share_matches_the_bisection_on_block_cactus_properties(inst):
    found = []
    frozen = {}
    share, plan = oracle._threshold_share, oracle._plan

    def logged(*args):
        found.append((args, share(*args)))
        return found[-1][1]

    def planned(*args):
        made = plan(*args)
        frozen[id(made)] = naive_oracles.frozen_plan(*args)
        return made

    oracle._threshold_share, oracle._plan = logged, planned
    try:
        oracle.clear_cache()
        allocate_block_cactus(inst)
        oracle.clear_cache()
        for a in inst.agents:
            oracle.pmms(inst.graph, a, inst.n)
    finally:
        oracle._threshold_share, oracle._plan = share, plan
    for (live, *rest), value in found:
        assert value == frozen_threshold_share(frozen[id(live)], *rest), rest


def connected_set_weights(adj: list[int], comp: int, wts: list[int]) -> set[int]:
    """The weight of every connected set of vertices in the component `comp`."""
    found = set()
    sub = comp
    while sub:
        if len(_components(adj, sub)) == 1:
            found.add(sum(wts[i] for i in _bits(sub)))
        sub = (sub - 1) & comp
    return found


def probes(adj: list[int], comp: int, wts: list[int], hi: int):
    """Thresholds in [1, hi] that stand for every t in it.

    P(t) and the least closed set compare t only with weights of connected
    sets, so t and t' give the same count unless a connected set weighs at
    least one of them and less than the other.  When the range is longer
    than the component has vertex sets, the count is read at 1 and just
    above each connected set's weight; otherwise at every t.
    """
    if hi <= 1 << comp.bit_count():
        return range(1, hi + 1)
    return sorted({1} | {s + 1 for s in connected_set_weights(adj, comp, wts) if s < hi})


def test_set_count_matches_the_frozen_jump_count_at_every_threshold(record):
    plans = record(oracle, "_plan")
    calls = record(oracle, "_threshold_share")
    for kind in KINDS:
        run_block_dp_draws(kind)
    run_disconnected_draws()
    run_cold_block_cactus_certificates()
    made = {id(call.result): call for call in plans}
    bounds: dict = {}
    for call in calls:
        plan, wts, total, k = call.args
        key = (id(plan), tuple(wts), total)
        bounds[key] = max(bounds.get(key, 0), total // k + 1)
    assert len(bounds) > 500
    kinds = {"small": 0, "wide": 0}
    for (plan_id, wts, total), hi in bounds.items():
        pairs, adj = made[plan_id].args
        live, frozen = made[plan_id].result, naive_oracles.frozen_plan(pairs, adj)
        comp = 0
        for _, block in pairs:
            comp |= block
        ts = probes(adj, comp, list(wts), hi)
        kinds["small" if isinstance(ts, range) else "wide"] += 1
        for t in ts:
            got = blockdp._set_count(live, list(wts), total, t)
            assert got == naive_oracles.frozen_jump_set_count(frozen, list(wts), total, t), (wts, t)
    assert all(kinds.values()), kinds


def test_the_jump_makes_fewer_counts_than_the_bisection(record):
    # On the path a-b-c-d weighted 8, 0, 1, 8, two bundles: the first count,
    # at t = 4, closes {d} and {a, b, c}, both worth 8 = 17 // 2, so the
    # search is done; the bisection also counts at 6, 7 and 8.
    graph = GoodsGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    name, value = oracle._component_plan(graph, 0b1111)
    frozen = naive_oracles.frozen_plan(block_cut_tree(graph.neighbor_masks, 0b1111)[0], graph.neighbor_masks)
    jumps = record(blockdp, "_set_count")
    steps = record(naive_oracles, "frozen_set_count")
    assert name == "the threshold DP"
    assert value([8, 0, 1, 8], 2) == 8
    assert frozen_threshold_share(frozen, [8, 0, 1, 8], 17, 2) == 8
    assert (len(jumps), len(steps)) == (1, 4)


def test_the_tables_hold_the_eleven_biconnected_patterns():
    expected = set()
    for size in (3, 4):
        for pairs in product((0, 1), repeat=size * (size - 1) // 2):
            g = nx.Graph()
            g.add_nodes_from(range(size))
            g.add_edges_from(e for e, edge in zip(combinations(range(size), 2), pairs) if edge)
            if nx.is_biconnected(g):
                expected.add((size, pairs))
    assert len(expected) == 11
    assert set(blockdp._TABLES) == expected


def scanned_table(size: int, pairs: tuple[int, ...]) -> tuple:
    """A pattern's table as the count built it, by filtering its frozen layouts."""
    layouts = naive_oracles.frozen_layouts(size, pairs)
    table = []
    for open_set in range(1 << (size - 1)):
        joins = []
        beside: dict[tuple, tuple] = {}
        for join, group in layouts:
            if any(open_set >> i & 1 == 0 for i in join):
                continue
            joins.append(join)
            if group and all(open_set >> i & 1 for i in group):
                if len(join) >= len(beside.get(group, ())):
                    beside[group] = join
        table.append((max(joins, key=len), tuple(beside.items())))
    return tuple(table)


def test_every_table_equals_the_filter_of_the_frozen_layouts():
    for (size, pairs), table in blockdp._TABLES.items():
        assert table == scanned_table(size, pairs), pairs


def scanned_pick(layouts: tuple, ws: list[int], t: int) -> tuple:
    """(closes a set, join weight added, weight of the set closed), scanning every layout."""
    best_got = best_add = -1
    best_set = None
    for join, group in layouts:
        add = sum(ws[i] for i in join)
        if add < 0:
            continue
        s = sum(ws[i] for i in group)
        got = int(bool(group) and s >= t)
        if got > best_got or (got == best_got and add > best_add):
            best_got, best_add, best_set = got, add, s if got else None
    return best_got, best_add, best_set


def table_pick(entry: tuple, ws: list[int], t: int) -> tuple:
    """The same pick read off a table entry: the heaviest join beside a group that reaches t."""
    plain, groups = entry
    pick = (0, sum(ws[i] for i in plain), None)
    for group, join in groups:
        s = sum(ws[i] for i in group)
        add = sum(ws[i] for i in join)
        if s >= t and (not pick[0] or add > pick[1]):
            pick = (1, add, s)
    return pick


@pytest.mark.parametrize("t", (1, 5, 2**64))
def test_every_table_entry_picks_as_a_scan_of_the_layouts(t):
    # Closed children weigh -(total + 1), as in the count the tables replaced.
    draws = (0, 1, t - 1, t, 2**64)
    for (size, pairs), table in blockdp._TABLES.items():
        layouts = naive_oracles.frozen_layouts(size, pairs)
        assert len(table) == 1 << (size - 1)
        for open_set, entry in enumerate(table):
            kids = [i for i in range(size - 1) if open_set >> i & 1]
            for drawn in product(draws, repeat=len(kids)):
                total = sum(drawn)
                ws = [-(total + 1)] * (size - 1)
                for i, w in zip(kids, drawn):
                    ws[i] = w
                assert table_pick(entry, ws, t) == scanned_pick(layouts, ws, t), (pairs, ws)


def test_every_small_block_of_an_atlas_graph_is_a_bridge_a_lone_vertex_or_tabled():
    kinds = {"lone": 0, "bridge": 0}
    tabled = set()
    for _, graph in atlas():
        adj = graph.neighbor_masks
        for comp in _components(adj, (1 << len(graph.vertices)) - 1):
            pairs, _ = block_cut_tree(adj, comp)
            if any(block.bit_count() > 4 for _, block in pairs):
                continue
            for v, block in pairs:
                kids = tuple(_bits(block ^ (1 << v)))
                if len(kids) < 2:
                    kinds["bridge" if kids else "lone"] += 1
                    continue
                key = len(kids) + 1, tuple(adj[a] >> b & 1 for a, b in combinations((v,) + kids, 2))
                assert key in blockdp._TABLES, key
                tabled.add(key)
            blockdp._plan(pairs, adj)
    assert all(kinds.values()), kinds
    assert tabled == set(blockdp._TABLES)


@pytest.mark.parametrize("w", (0, 1, 7, 2**64))
def test_a_one_vertex_component_shares_as_the_frozen_dp(w):
    pairs, _ = block_cut_tree([0], 1)
    plan = blockdp._plan(pairs, [0])
    frozen = naive_oracles.frozen_plan(pairs, [0])
    assert plan == ((0, (), ()),)
    for k in (1, 2, 3):
        assert blockdp._threshold_share(plan, [w], w, k) == frozen_threshold_share(frozen, [w], w, k)
    for t in {1, w, w + 1} - {0}:
        assert blockdp._set_count(plan, [w], w, t) == naive_oracles.frozen_jump_set_count(frozen, [w], w, t)


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
                # The DP turns it away; its pendants are simplicial, so the
                # plan cache holds the fail-first search instead.
                assert [(key, name) for key, (name, _) in oracle._plans.items()] == [
                    ((split, (1 << 10) - 1), "the fail-first search")
                ]
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


def test_a_component_too_dense_for_the_dp_is_searched_in_index_order():
    graph = gen.gen_multipartite(0, 10, 2, 20).graph
    full = (1 << len(graph.vertices)) - 1
    agent = Agent(id=1, type_id=1, utility=dict.fromkeys(graph.vertices, Fraction(1)))
    oracle.pmms(graph, agent, 2)
    assert [(key, name) for key, (name, _) in oracle._plans.items()] == [
        ((graph, full), "the index-order search")
    ]
