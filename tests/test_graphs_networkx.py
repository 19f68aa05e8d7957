"""The structure code against networkx on every graph of up to 7 vertices.

networkx's graph atlas lists all 1253 graphs with at most 7 vertices up to
isomorphism; the empty graph is skipped.  Vertex i becomes the id "v{i}",
so id order is index order.
"""

import random
from itertools import combinations, product

import networkx as nx

from graphfair.blockcactus import is_block_cactus_graph
from graphfair.core import GoodsGraph
from graphfair.generators import gen_block_cactus
from graphfair.graphs import (
    _components,
    connected_components,
    is_connected_subset,
    recognize,
    split_partition,
)
from naive_oracles import naive_split_partition
from test_graphs import named_tree


def name(i: int) -> str:
    return f"v{i}"


def names(vs) -> frozenset[str]:
    return frozenset(name(i) for i in vs)


def goods_graph(g: nx.Graph) -> GoodsGraph:
    return GoodsGraph.build([name(v) for v in g.nodes], [(name(a), name(b)) for a, b in g.edges])


def in_smallest_member_order(sets) -> list[list[str]]:
    return sorted(sorted(names(s)) for s in sets)


def hammer_simeone_split(g: nx.Graph) -> bool:
    """Degree test: split iff the m largest degrees, m = max{i : d_i >= i - 1}, balance."""
    d = sorted((deg for _, deg in g.degree), reverse=True)
    m = max(i for i in range(1, len(d) + 1) if d[i - 1] >= i - 1)
    return sum(d[:m]) == m * (m - 1) + sum(d[m:])


def atlas():
    for index, g in enumerate(nx.graph_atlas_g()):
        if g.number_of_nodes():
            yield index, g, goods_graph(g)


def test_components_and_connected_subsets_match_networkx():
    for index, g, ours in atlas():
        assert connected_components(ours) == in_smallest_member_order(
            nx.connected_components(g)
        ), index
        rng = random.Random(index)
        for _ in range(3):
            subset = rng.sample(sorted(g.nodes), rng.randint(1, g.number_of_nodes()))
            expected = nx.is_connected(g.subgraph(subset))
            assert is_connected_subset(ours, names(subset)) == expected, (index, subset)


def test_bitmask_view_matches_the_edges():
    for index, g, ours in atlas():
        assert list(ours.position) == list(ours.vertices), index
        assert all(ours.position[v] == i for i, v in enumerate(ours.vertices)), index
        masks = ours.neighbor_masks
        assert len(masks) == len(ours.vertices), index
        for (i, a), (j, b) in product(enumerate(ours.vertices), repeat=2):
            assert (masks[i] >> j & 1) == ours.has_edge(a, b), (index, a, b)


def test_bitmask_components_match_networkx():
    for index, g, ours in atlas():
        rng = random.Random(index)
        for _ in range(3):
            mask = rng.getrandbits(g.number_of_nodes())
            members = [i for i in g.nodes if mask >> i & 1]
            expected = sorted(sorted(c) for c in nx.connected_components(g.subgraph(members)))
            comps = _components(ours.neighbor_masks, mask)
            got = [[i for i in g.nodes if comp >> i & 1] for comp in comps]
            assert got == expected, (index, mask)


def test_blocks_and_cut_vertices_match_networkx():
    for index, g, ours in atlas():
        if not nx.is_connected(g):
            continue
        blocks, cuts, terminal, reached = named_tree(ours)
        expected = {names(b) for b in nx.biconnected_components(g)} or {names(g.nodes)}
        assert set(blocks) == expected, index
        assert len(blocks) == len(expected), index
        assert cuts == names(nx.articulation_points(g)), index
        assert terminal == {i for i, b in enumerate(blocks) if len(b & cuts) <= 1}, index
        assert reached == names(g.nodes), index


def test_block_cut_tree_reaches_the_lowest_vertex_component_of_every_disconnected_graph():
    for index, g, ours in atlas():
        if nx.is_connected(g):
            continue
        reached = named_tree(ours)[3]
        assert reached == names(nx.node_connected_component(g, min(g.nodes))), index


def test_complete_flag_matches_a_pairwise_edge_test():
    for index, g, ours in atlas():
        pairwise = all(ours.has_edge(a, b) for a, b in combinations(ours.vertices, 2))
        assert recognize(ours).has("complete") == pairwise, index


def test_multipartite_parts_are_the_complement_components():
    for index, g, ours in atlas():
        comp = nx.complement(g)
        groups = list(nx.connected_components(comp))
        multipartite = all(
            comp.subgraph(c).number_of_edges() == len(c) * (len(c) - 1) // 2 for c in groups
        )
        parts = recognize(ours).parts
        if not multipartite:
            assert parts is None, index
            continue
        assert parts is not None, index
        assert [sorted(p) for p in parts] == in_smallest_member_order(groups), index


def test_split_flag_matches_the_degree_test_and_the_pair_is_valid():
    for index, g, ours in atlas():
        witness = recognize(ours)
        assert witness.has("split") == hammer_simeone_split(g), index
        if witness.split_pair is None:
            continue
        clique, independent = witness.split_pair
        assert clique | independent == frozenset(ours.vertices), index
        assert not clique & independent, index
        assert all(ours.has_edge(a, b) for a, b in combinations(sorted(clique), 2)), index
        assert not any(ours.has_edge(a, b) for a, b in combinations(sorted(independent), 2)), index


def test_split_partition_matches_brute_force_under_relabelling():
    # vertex ids decide ties between valid cliques, so each graph is also
    # tried under three seeded renamings of its vertices
    for index, g, ours in atlas():
        rng = random.Random(index)
        relabelled = [ours]
        for _ in range(3):
            ids = [name(i) for i in range(g.number_of_nodes())]
            rng.shuffle(ids)
            relabelled.append(
                GoodsGraph.build(ids, [(ids[a], ids[b]) for a, b in g.edges])
            )
        for graph in relabelled:
            assert split_partition(graph) == naive_split_partition(graph), (index, graph)


def networkx_block_flags(g: nx.Graph) -> tuple[set[str], bool]:
    """The witness's block flags and is_block_cactus_graph, from networkx's blocks.

    A block is a clique when it has every edge, and a chordless cycle when
    it has 3 or more vertices and as many edges as vertices: a biconnected
    graph with that many edges is one cycle.  networkx lists no block for a
    lone vertex, which is a clique and allows every flag.
    """
    kinds = []
    for block in nx.biconnected_components(g):
        sub = g.subgraph(block)
        size, edges = sub.number_of_nodes(), sub.number_of_edges()
        kinds.append((edges == size * (size - 1) // 2, size >= 3 and edges == size, size))
    member = g.number_of_nodes() > 0 and all(clique or cycle for clique, cycle, _ in kinds)
    if not (g.number_of_nodes() and nx.is_connected(g)):
        return set(), member
    flags = set()
    if all(clique for clique, _, _ in kinds):
        flags.add("block_graph")
    if all(cycle or size <= 2 for _, cycle, size in kinds):
        flags.add("cactus")
    if member:
        flags.add("block_cactus")
    return flags, member


def networkx_graph(graph: GoodsGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    g.add_edges_from(graph.edges)
    return g


def assert_block_flags_match_networkx(g: nx.Graph, ours: GoodsGraph, label) -> None:
    flags, member = networkx_block_flags(g)
    witness = recognize(ours)
    assert {f for f in ("block_graph", "cactus", "block_cactus") if witness.has(f)} == flags, label
    assert is_block_cactus_graph(ours) == member, label


def test_block_flags_and_block_cactus_check_match_networkx_on_the_atlas():
    for index, g, ours in atlas():
        assert_block_flags_match_networkx(g, ours, index)


def test_block_flags_and_block_cactus_check_match_networkx_on_generated_graphs():
    # Generated block-cactus graphs, then disjoint unions of two of them,
    # each alone and with a non-member beside it.
    members = [gen_block_cactus(seed, v, 2, 20).graph for seed in range(8) for v in (1, 5, 9, 14)]
    for graph in members:
        assert is_block_cactus_graph(graph), graph
    diamond = nx.complete_graph(4)
    diamond.remove_edge(0, 1)
    chorded_c5 = nx.cycle_graph(5)
    chorded_c5.add_edge(0, 2)
    others = [diamond, nx.complete_bipartite_graph(2, 3), chorded_c5]
    rng = random.Random("networkx-block-flags")
    cases = [networkx_graph(graph) for graph in members] + others
    for _ in range(40):
        left, right = rng.sample(members, 2)
        union = nx.disjoint_union(networkx_graph(left), networkx_graph(right))
        cases += [union, nx.disjoint_union(union, rng.choice(others))]
    for index, g in enumerate(cases):
        ours = goods_graph(nx.convert_node_labels_to_integers(g))
        assert_block_flags_match_networkx(g, ours, index)
    for g in others:
        assert networkx_block_flags(g) == (set(), False)
