import pytest

from graphfair.core import (
    GoodsGraph,
    InvalidInputError,
    StructuralError,
    UnsupportedBlockError,
)
from graphfair.graphs import (
    _bits,
    _sorted_blocks,
    block_cut_tree,
    connected_components,
    hamiltonian_path_in_block,
    is_connected,
    is_connected_subset,
    recognize,
)


def named_tree(graph: GoodsGraph) -> tuple:
    """`block_cut_tree` on the whole of `graph`, translated into vertex ids.

    Returns the blocks sorted as id tuples, the cut vertices, the indices of
    the terminal blocks (those holding at most one cut vertex) and the
    vertices reached, the component of the lowest vertex.
    """
    ids = graph.vertices
    pairs, reached = block_cut_tree(graph.neighbor_masks, (1 << len(ids)) - 1)
    masks, cuts = _sorted_blocks(pairs)

    def names(mask: int) -> frozenset[str]:
        return frozenset(ids[i] for i in _bits(mask))

    terminal = frozenset(i for i, block in enumerate(masks) if (block & cuts).bit_count() <= 1)
    return tuple(map(names, masks)), names(cuts), terminal, names(reached)


def path(n: int) -> GoodsGraph:
    names = [f"p{i}" for i in range(n)]
    return GoodsGraph.build(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def cycle(n: int) -> GoodsGraph:
    names = [f"c{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return GoodsGraph.build(names, edges)


def cocktail_party(parts: int) -> GoodsGraph:
    """K_{2,...,2}: part i is {x<i>a, x<i>b}, and every cross-part pair is an edge."""
    names = [f"x{i:02d}{side}" for i in range(parts) for side in "ab"]
    return GoodsGraph.build(names, [(a, b) for a in names for b in names if a[:3] < b[:3]])


def complete(n: int) -> GoodsGraph:
    names = [f"k{i}" for i in range(n)]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    return GoodsGraph.build(names, edges)


def complete_bipartite(a: int, b: int) -> GoodsGraph:
    left = [f"a{i}" for i in range(a)]
    right = [f"b{i}" for i in range(b)]
    return GoodsGraph.build(left + right, [(x, y) for x in left for y in right])


def test_connected_components():
    g = GoodsGraph.build(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    comps = {frozenset(c) for c in connected_components(g)}
    assert comps == {frozenset({"a", "b"}), frozenset({"c", "d"})}
    assert not is_connected(g)
    assert is_connected(path(4))


def test_is_connected_subset():
    g = path(4)
    assert is_connected_subset(g, frozenset())
    assert is_connected_subset(g, {"p0", "p1", "p2"})
    assert not is_connected_subset(g, {"p0", "p2"})


def test_is_connected_subset_rejects_unknown_vertices():
    # Whichever member the set yields first, an unknown vertex is an error.
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    for known in g.vertices:
        with pytest.raises(InvalidInputError, match=r"unknown vertices: \['zz'\]"):
            is_connected_subset(g, {known, "zz"})


def test_block_cut_tree_triangle_pendant():
    g = GoodsGraph.build(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
    )
    blocks, cuts, terminal, reached = named_tree(g)
    assert sorted(tuple(sorted(b)) for b in blocks) == [("a", "b", "c"), ("c", "d")]
    assert cuts == frozenset({"c"})
    assert terminal == frozenset(range(len(blocks)))
    assert reached == frozenset(g.vertices)


def test_block_cut_tree_path_chain():
    blocks, cuts, terminal, _ = named_tree(path(4))
    assert len(blocks) == 3  # each edge is its own block
    assert cuts == frozenset({"p1", "p2"})
    assert len(terminal) == 2  # only the two end edges


def test_block_cut_tree_biconnected():
    blocks, cuts, terminal, _ = named_tree(cycle(5))
    assert len(blocks) == 1
    assert cuts == frozenset()
    assert terminal == frozenset({0})


def test_block_cut_tree_reaches_one_component_of_a_disconnected_graph():
    # The search covers the lowest vertex's component; the caller compares
    # what it reached with what it asked for.
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b")])
    ab = frozenset({"a", "b"})
    assert named_tree(g) == ((ab,), frozenset(), frozenset({0}), ab)


def test_recognize_complete_bipartite():
    w = recognize(complete_bipartite(2, 2))
    assert w.has("connected") and w.has("complete_multipartite")
    assert w.parts is not None and sorted(len(p) for p in w.parts) == [2, 2]
    assert w.has("cycle")  # K_{2,2} is C_4
    assert not w.has("split")


def test_recognize_path_and_cycle():
    w = recognize(path(5))
    assert w.has("tree") and w.has("cactus") and w.has("block_cactus")
    assert not w.has("cycle")

    w = recognize(cycle(5))
    assert w.has("cycle") and w.has("cactus") and w.has("block_cactus")
    assert not w.has("tree") and not w.has("complete_multipartite")
    assert not w.has("split")


def test_recognize_complete():
    w = recognize(complete(4))
    assert w.has("complete") and w.has("block_graph") and w.has("block_cactus")
    assert w.has("complete_multipartite") and w.parts is not None
    assert [len(p) for p in w.parts] == [1, 1, 1, 1]
    assert w.has("split")


def test_recognize_split_pair_is_valid():
    # a K_4 with two pendants hanging off one clique vertex
    g = GoodsGraph.build(
        ["k1", "k2", "k3", "k4", "i1", "i2"],
        [
            ("k1", "k2"), ("k1", "k3"), ("k1", "k4"),
            ("k2", "k3"), ("k2", "k4"), ("k3", "k4"),
            ("k1", "i1"), ("k1", "i2"),
        ],
    )
    w = recognize(g)
    assert w.has("split")
    clique, indep = w.split_pair
    assert clique | indep == frozenset(g.vertices)
    assert clique & indep == frozenset()
    assert all(g.has_edge(a, b) for a in clique for b in clique if a < b)
    assert not any(g.has_edge(a, b) for a in indep for b in indep if a < b)


def test_recognize_disconnected():
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b")])
    w = recognize(g)
    assert not w.has("connected")
    assert not w.has("block_cactus")


def test_recognize_non_block_cactus():
    # diamond: biconnected but neither clique nor cycle
    g = GoodsGraph.build(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")]
    )
    w = recognize(g)
    assert w.has("connected")
    assert not w.has("block_cactus")
    assert w.has("split")
    # {a,b,c} and {a,c,d} are both valid cliques; the least sorted one wins
    assert w.split_pair == (frozenset("abc"), frozenset("d"))


def test_recognize_cocktail_party_graph_with_60_vertices():
    # K_{2,...,2} with 30 parts: exponentially many maximal cliques, so only
    # a recognizer that never lists them finishes
    g = cocktail_party(30)
    w = recognize(g)
    assert w.has("complete_multipartite") and w.has("connected")
    assert not w.has("split")
    assert w.split_pair is None
    assert w.parts == tuple(frozenset({f"x{i:02d}a", f"x{i:02d}b"}) for i in range(30))


def test_hamiltonian_path_in_clique_block():
    g = complete(4)
    block = frozenset(g.vertices)
    p = hamiltonian_path_in_block(block, g, "k1")
    assert p[-1] == "k1" and set(p) == set(block) and len(p) == 4
    assert p[:3] == sorted(block - {"k1"})


def test_hamiltonian_path_in_cycle_block():
    g = cycle(5)
    block = frozenset(g.vertices)
    p = hamiltonian_path_in_block(block, g, "c2")
    assert p[-1] == "c2" and set(p) == set(block) and len(p) == 5
    for a, b in zip(p, p[1:]):
        assert g.has_edge(a, b)
    assert p[0] == min(g.neighbors("c2"))


def test_hamiltonian_path_edge_and_singleton():
    g = path(2)
    assert hamiltonian_path_in_block(frozenset(g.vertices), g, "p0") == ["p1", "p0"]
    assert hamiltonian_path_in_block(frozenset({"p0"}), g, "p0") == ["p0"]


def test_hamiltonian_path_rejects_unknown_vertices():
    # Whichever test reads the unknown vertex first, clique or cycle, it is an error.
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    probes = [
        ({"a", "b", "zz"}, "['zz']"),
        ({"a", "q", "r", "zz"}, "['q', 'r', 'zz']"),
        ({"a", "zz"}, "['zz']"),
    ]
    for block, unknown in probes:
        with pytest.raises(InvalidInputError) as exc:
            hamiltonian_path_in_block(frozenset(block), g, "a")
        assert str(exc.value) == f"unknown vertices: {unknown}"


def test_hamiltonian_path_rejects_other_blocks():
    g = GoodsGraph.build(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")]
    )
    with pytest.raises(UnsupportedBlockError):
        hamiltonian_path_in_block(frozenset(g.vertices), g, "a")
    with pytest.raises(StructuralError):
        hamiltonian_path_in_block(frozenset({"a", "b"}), g, "c")
