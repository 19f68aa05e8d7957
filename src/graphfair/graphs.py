"""Structural graph algorithms: connectivity, blocks, class recognition.

Every connectivity question goes to one breadth-first walk, `_components`,
and every block question to one lowpoint search, `_blocks`, both on the
bitmask view a graph derives once (`GoodsGraph.neighbor_masks`).

Everything here is deterministic.  Components are reported sorted by their
smallest member, blocks are sorted by their sorted vertex tuples, and the
split partition is the lexicographically least one among the valid choices.
The class recognizers read degrees and neighbourhoods only, so they run in
polynomial time on any input, and `recognize` runs each class test only when
its witness first reads a flag or field that needs it.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .core import (
    GoodsGraph,
    InvalidInputError,
    StructuralError,
    UnsupportedBlockError,
)


def _bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _components(adj, mask: int) -> list[int]:
    """Component masks of the vertex set `mask` in a bitmask adjacency, lowest bit first."""
    comps = []
    rest = mask
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _component_count(adj, mask: int) -> int:
    """Components of the vertex set `mask` in a bitmask adjacency list."""
    return len(_components(adj, mask))


def connected_components(graph: GoodsGraph) -> list[list[str]]:
    """Maximal connected vertex sets, each sorted, ordered by smallest member."""
    ids = graph.vertices
    full = (1 << len(ids)) - 1
    return [[ids[i] for i in _bits(comp)] for comp in _components(graph.neighbor_masks, full)]


def is_connected(graph: GoodsGraph) -> bool:
    return _component_count(graph.neighbor_masks, (1 << len(graph.vertices)) - 1) <= 1


def is_connected_subset(graph: GoodsGraph, subset) -> bool:
    """True when `subset` induces a connected subgraph; the empty set counts.

    Raises InvalidInputError when `subset` names a vertex the graph lacks.
    """
    sub = set(subset)
    pos = graph.position
    unknown = sub.difference(pos)
    if unknown:
        raise InvalidInputError(f"unknown vertices: {sorted(unknown)}")
    return _component_count(graph.neighbor_masks, sum(1 << pos[v] for v in sub)) <= 1


@dataclass(frozen=True)
class BlockCutTree:
    """Blocks and cut vertices of a connected graph.

    A block containing at most one cut vertex is terminal.  A graph that is
    itself biconnected has a single terminal block and no cut vertices.
    """

    blocks: tuple[frozenset[str], ...]
    cut_vertices: frozenset[str]
    terminal_blocks: frozenset[int]


def _blocks(adj, mask: int) -> tuple[list[tuple[int, int]], int]:
    """Blocks of the component of the lowest vertex of `mask`, by one lowpoint search.

    Hopcroft and Tarjan's search (CACM 1973) in the vertex set `mask` of a
    bitmask adjacency, rooted at its lowest vertex.  Returns the blocks as
    (parent vertex, block mask) pairs, each after the blocks below it, and
    the mask of the vertices reached.  A block's parent is its vertex
    nearest the root, so the last block's parent is the root; a lone root
    is a block of its own.
    """
    root = (mask & -mask).bit_length() - 1
    index = [0] * len(adj)
    low = [0] * len(adj)
    reached = 1 << root
    # Each frame holds a vertex and its neighbours not yet looked at, and the
    # path the reached vertices not yet in a block; no recursion.  A vertex's
    # index is its place on the path, which holds while it is there, and a
    # back edge reaches only a vertex on the path.
    frames = [(root, adj[root] & mask)]
    path = [root]
    pairs = []
    while frames:
        v, rest = frames[-1]
        if rest:
            b = rest & -rest
            frames[-1] = (v, rest ^ b)
            w = b.bit_length() - 1
            if not reached & b:
                reached |= b
                index[w] = low[w] = len(path)
                frames.append((w, adj[w] & mask))
                path.append(w)
            elif index[w] < low[v]:
                # The tree edge back to v's parent counts too: it lowers
                # low[v] at most to the parent's index, and the parent still
                # closes v's block when low[v] >= its index.
                low[v] = index[w]
            continue
        frames.pop()
        if frames:
            u = frames[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= index[u]:
                # u closes a block: v and the path above it.
                pairs.append((u, sum(1 << x for x in path[index[v]:]) | 1 << u))
                del path[index[v]:]
    return pairs or [(root, reached)], reached


def block_cut_tree(graph: GoodsGraph) -> BlockCutTree:
    """Biconnected components, read off the lowpoint search `_blocks`.

    Raises StructuralError on empty or disconnected input, the latter found by the search.
    """
    ids = graph.vertices
    if not ids:
        raise StructuralError("empty graph has no block structure")
    full = (1 << len(ids)) - 1
    pairs, reached = _blocks(graph.neighbor_masks, full)
    if reached != full:
        raise StructuralError("graph is disconnected")
    # Every parent is a cut vertex except the root when it parents the last
    # block alone.  Positions follow id order, so blocks sort as id tuples do.
    cuts = 0
    for p, _ in pairs[:-1]:
        cuts |= 1 << p
    masks = sorted((block for _, block in pairs), key=lambda block: tuple(_bits(block)))
    return BlockCutTree(
        blocks=tuple(frozenset(ids[i] for i in _bits(block)) for block in masks),
        cut_vertices=frozenset(ids[i] for i in _bits(cuts)),
        terminal_blocks=frozenset(
            i for i, block in enumerate(masks) if (block & cuts).bit_count() <= 1
        ),
    )


class ClassWitness:
    """Which structured classes a graph belongs to, plus the evidence.

    flags may contain: connected, complete, cycle, tree, block_graph,
    cactus, block_cactus, complete_multipartite, split.  parts is the part
    list for complete multipartite graphs, in order of smallest vertex;
    split_pair is a (clique, independent set) partition.

    Each class test runs the first time a flag or field that needs it is
    read, and its answer is kept: has("split") runs the degree test alone,
    parts the neighbourhood grouping alone, and only the block flags build
    the block-cut tree.  Reading flags runs every test.
    """

    # The test that decides each flag, by the name of the attribute that
    # holds the flags it grants.
    _DECIDED_BY = {
        "connected": "_connectivity",
        "complete": "_shape",
        "cycle": "_shape",
        "tree": "_shape",
        "block_graph": "_block_kinds",
        "cactus": "_block_kinds",
        "block_cactus": "_block_kinds",
        "complete_multipartite": "_multipartite",
        "split": "_split",
    }

    def __init__(self, graph: GoodsGraph):
        self._graph = graph

    @property
    def flags(self) -> frozenset[str]:
        return frozenset(filter(self.has, self._DECIDED_BY))

    def has(self, flag: str) -> bool:
        test = self._DECIDED_BY.get(flag)
        return test is not None and flag in getattr(self, test)

    @cached_property
    def parts(self) -> tuple[frozenset[str], ...] | None:
        return _multipartite_parts(self._graph)

    @cached_property
    def split_pair(self) -> tuple[frozenset[str], frozenset[str]] | None:
        return split_partition(self._graph)

    @cached_property
    def _connectivity(self) -> frozenset[str]:
        return frozenset({"connected"} if is_connected(self._graph) else ())

    @cached_property
    def _shape(self) -> frozenset[str]:
        graph = self._graph
        n = len(graph.vertices)
        connected = "connected" in self._connectivity
        flags: set[str] = set()
        if 2 * len(graph.edges) == n * (n - 1):
            flags.add("complete")
        if connected and n >= 3 and all(len(graph.adjacency[v]) == 2 for v in graph.vertices):
            flags.add("cycle")
        if connected and n >= 1 and len(graph.edges) == n - 1:
            flags.add("tree")
        return frozenset(flags)

    @cached_property
    def _block_kinds(self) -> frozenset[str]:
        graph = self._graph
        flags: set[str] = set()
        if "connected" in self._connectivity and graph.vertices:
            bct = block_cut_tree(graph)
            kinds = [(_is_clique(graph, b), _is_cycle_set(graph, b)) for b in bct.blocks]
            if all(cl for cl, _ in kinds):
                flags.add("block_graph")
            if all(cy or len(b) <= 2 for (_, cy), b in zip(kinds, bct.blocks)):
                flags.add("cactus")
            if all(cl or cy for cl, cy in kinds):
                flags.add("block_cactus")
        return frozenset(flags)

    @property
    def _multipartite(self) -> frozenset[str]:
        return frozenset({"complete_multipartite"} if self.parts is not None else ())

    @property
    def _split(self) -> frozenset[str]:
        return frozenset({"split"} if self.split_pair is not None else ())


def _is_clique(graph: GoodsGraph, vs: frozenset[str]) -> bool:
    return all(graph.has_edge(a, b) for a, b in combinations(sorted(vs), 2))


def _is_cycle_set(graph: GoodsGraph, vs: frozenset[str]) -> bool:
    """Does `vs` induce a (chordless) cycle of length at least 3?"""
    if len(vs) < 3:
        return False
    degs = [sum(1 for w in graph.adjacency[v] if w in vs) for v in vs]
    if any(d != 2 for d in degs):
        return False
    return is_connected_subset(graph, vs)


def _multipartite_parts(graph: GoodsGraph) -> tuple[frozenset[str], ...] | None:
    """Parts of a complete multipartite graph, or None.

    Vertices are grouped by neighbourhood; the graph is complete multipartite
    exactly when each group's neighbourhood is every vertex outside the group.
    Walking vertices in id order lists the groups by smallest vertex.
    """
    groups: dict[frozenset[str], set[str]] = {}
    for v in graph.vertices:
        groups.setdefault(graph.adjacency[v], set()).add(v)
    everything = frozenset(graph.vertices)
    if any(nbrs != everything - part for nbrs, part in groups.items()):
        return None
    return tuple(frozenset(part) for part in groups.values())


def split_partition(graph: GoodsGraph) -> tuple[frozenset[str], frozenset[str]] | None:
    """A (clique, independent set) partition when one exists.

    Hammer and Simeone's degree test: with degrees d_1 >= ... >= d_n and
    m = max{i : d_i >= i - 1}, the graph is split exactly when the m largest
    degrees sum to m(m - 1) plus the rest, and then those m vertices are a
    maximum clique with an independent complement.  Any other such clique
    trades a clique vertex for an outside one, both of degree m - 1, so
    breaking degree ties by id makes this the lexicographically least one.
    """
    adj = graph.adjacency
    order = sorted(graph.vertices, key=lambda v: (-len(adj[v]), v))
    degs = [len(adj[v]) for v in order]
    m = sum(1 for i, d in enumerate(degs) if d >= i)
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    return frozenset(order[:m]), frozenset(order[m:])


def recognize(graph: GoodsGraph) -> ClassWitness:
    """Classify a graph against the structured classes this package serves.

    Returns at once; each class test runs when the witness first reads it.
    """
    return ClassWitness(graph)


def hamiltonian_path_in_block(block: frozenset[str], graph: GoodsGraph, endpoint: str) -> list[str]:
    """A Hamiltonian path through a clique or cycle block, ending at `endpoint`.

    Cliques (including single edges and triangles) list the other vertices in
    id order.  Larger cycle blocks are walked starting from the endpoint's
    smallest neighbor, moving away from the endpoint.
    """
    if endpoint not in block:
        raise StructuralError(f"endpoint {endpoint!r} is not in the block")
    if len(block) == 1:
        return [endpoint]
    if _is_clique(graph, block):
        return sorted(block - {endpoint}) + [endpoint]
    if _is_cycle_set(graph, block):
        start = min(graph.adjacency[endpoint] & block)
        path = [start]
        prev = endpoint
        cur = start
        while len(path) < len(block) - 1:
            nxt = next(w for w in graph.adjacency[cur] if w in block and w != prev)
            path.append(nxt)
            prev, cur = cur, nxt
        path.append(endpoint)
        return path
    raise UnsupportedBlockError(f"block {tuple(sorted(block))} is neither a clique nor a cycle")
