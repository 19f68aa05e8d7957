"""The structure code against networkx on every graph of up to 7 vertices.

networkx's graph atlas lists all 1253 graphs with at most 7 vertices up to
isomorphism; the empty graph is skipped.  Vertex i becomes the id "v{i}",
so id order is index order.
"""

import random
from itertools import combinations, product

import networkx as nx

from graphfair.core import GoodsGraph
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
