"""Structural graph algorithms: connectivity, blocks, class recognition.

Connectivity questions go to one breadth-first walk, `_components`, and
block questions to one lowpoint search, `block_cut_tree`, both on the
bitmask view a graph derives once (`GoodsGraph.neighbor_masks`).  The
package reads blocks through `_blocks`, which memoizes the search per
(graph, vertex mask), so the class check, the share oracle's plans, the
block-cactus allocator and the CLI make one search per graph and component
between two calls of `oracle.clear_cache()`.  The memo, like the oracle's
caches, holds at most `_CACHE_LIMIT` entries.  `block_cut_tree` itself
stays a pure function of any adjacency list, which tests call with a plain
list.

Everything here is deterministic.  Components are reported sorted by their
smallest member, blocks are sorted by their sorted vertex tuples, and the
split partition is the lexicographically least one among the valid choices.
The class recognizers read degrees and neighbourhoods only, so they run in
polynomial time on any input, and `recognize` runs each class test only when
its witness first reads a flag or field that needs it.  The block flags and
the block-cactus check read connectivity off the reached mask of each
component's search, with no walk, and tell a clique block from a cycle
block by one degree pass.
"""

from functools import cached_property

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


def connected_components(graph: GoodsGraph) -> list[list[str]]:
    """Maximal connected vertex sets, each sorted, ordered by smallest member."""
    ids = graph.vertices
    full = (1 << len(ids)) - 1
    return [[ids[i] for i in _bits(comp)] for comp in _components(graph.neighbor_masks, full)]


def is_connected(graph: GoodsGraph) -> bool:
    return len(_components(graph.neighbor_masks, (1 << len(graph.vertices)) - 1)) <= 1


def _vertex_mask(graph: GoodsGraph, subset) -> int:
    """The mask of the vertex set `subset`; raises InvalidInputError on vertices the graph lacks."""
    sub = set(subset)
    pos = graph.position
    unknown = sub.difference(pos)
    if unknown:
        raise InvalidInputError(f"unknown vertices: {sorted(unknown)}")
    return sum(1 << pos[v] for v in sub)


def is_connected_subset(graph: GoodsGraph, subset) -> bool:
    """True when `subset` induces a connected subgraph; the empty set counts.

    Raises InvalidInputError when `subset` names a vertex the graph lacks.
    """
    return len(_components(graph.neighbor_masks, _vertex_mask(graph, subset))) <= 1


def block_cut_tree(adj, mask: int) -> tuple[list[tuple[int, int]], int]:
    """Blocks of the component of the lowest vertex of `mask`, by one lowpoint search.

    Hopcroft and Tarjan's search (CACM 1973) in the nonempty vertex set
    `mask`, where `adj` is a graph's `neighbor_masks`, rooted at the lowest
    vertex of `mask`.  Returns the blocks as (parent vertex, block mask)
    pairs, each after the blocks below it, and the mask of the vertices
    reached.  A block's parent is its vertex nearest the root, so the last
    block's parent is the root; a lone root is a block of its own.
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


# Every cache the package keeps across calls, this memo and the oracle's
# share and plan caches, holds at most _CACHE_LIMIT entries and drops the
# oldest first; oracle.clear_cache() empties them all.
_CACHE_LIMIT = 1024
# (graph, vertex mask) -> block_cut_tree(graph.neighbor_masks, mask).
_searches: dict = {}


def _store(table: dict, key, entry) -> None:
    if len(table) >= _CACHE_LIMIT:
        del table[next(iter(table))]
    table[key] = entry


def _blocks(graph: GoodsGraph, mask: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """`block_cut_tree` on `graph`'s bitmask view, memoized per (graph, mask).

    Every caller shares the result, so the pairs come as a tuple.  When
    `mask` is more than the component it reaches, the search is stored under
    the component's mask too, since a search from the same root inside the
    component alone gives the same pairs.
    """
    key = (graph, mask)
    found = _searches.get(key)
    if found is None:
        pairs, reached = block_cut_tree(graph.neighbor_masks, mask)
        found = tuple(pairs), reached
        _store(_searches, key, found)
        if reached != mask:
            _store(_searches, (graph, reached), found)
    return found


def _sorted_blocks(pairs) -> tuple[list[int], int]:
    """The block masks of `block_cut_tree` pairs sorted as id tuples, and the cut vertex mask.

    Every parent is a cut vertex but the root when it parents the last block alone.
    """
    cuts = 0
    for p, _ in pairs[:-1]:
        cuts |= 1 << p
    return sorted((block for _, block in pairs), key=lambda block: tuple(_bits(block))), cuts


def _is_clique(adj, block: int) -> bool:
    return all((adj[i] | 1 << i) & block == block for i in _bits(block))


def _is_cycle(adj, block: int) -> bool:
    """Does the vertex set `block` induce a (chordless) cycle of length at least 3?"""
    return (
        block.bit_count() >= 3
        and all((adj[i] & block).bit_count() == 2 for i in _bits(block))
        and len(_components(adj, block)) == 1
    )


_BLOCK_FLAGS = frozenset({"block_graph", "cactus", "block_cactus"})


def _block_flags(adj, pairs) -> frozenset[str]:
    """The flags among block_graph, cactus and block_cactus that the blocks in `pairs` allow.

    `pairs` are one component's `block_cut_tree` pairs.  A block of at most
    3 vertices is a lone vertex, an edge or a triangle: a clique, and a
    cycle or too small to be one, so it allows every flag.  A larger block
    is biconnected, so it is a clique when each of its vertices has |B| - 1
    neighbours in it, a chordless cycle when each has 2, and neither
    otherwise: one degree pass, which stops at the first vertex that differs.
    """
    flags = _BLOCK_FLAGS
    for _, block in pairs:
        size = block.bit_count()
        if size <= 3:
            continue
        degree = (adj[(block & -block).bit_length() - 1] & block).bit_count()
        if degree not in (2, size - 1) or any((adj[i] & block).bit_count() != degree for i in _bits(block)):
            return frozenset()
        flags = flags - {"block_graph" if degree == 2 else "cactus"}
    return flags


class ClassWitness:
    """Which structured classes a graph belongs to, plus the evidence.

    flags may contain: connected, complete, cycle, tree, block_graph,
    cactus, block_cactus, complete_multipartite, split.  parts is the part
    list for complete multipartite graphs, in order of smallest vertex;
    split_pair is a (clique, independent set) partition.

    Each class test runs the first time a flag or field that needs it is
    read, and its answer is kept: has("split") runs the degree test alone,
    parts the neighbourhood grouping alone, and only the block flags and
    component_blocks() run the block search, through the memo `_blocks`.
    Reading flags runs every test.
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

    def component_blocks(self):
        """Each component's `block_cut_tree` pairs, the component of the lowest vertex first.

        Each search starts in the vertices no earlier search reached, and
        the components are read off the reached masks, with no walk of
        their own.
        """
        rest = (1 << len(self._graph.vertices)) - 1
        while rest:
            pairs, reached = _blocks(self._graph, rest)
            yield pairs
            rest &= ~reached

    @cached_property
    def _block_kinds(self) -> frozenset[str]:
        # The first search of component_blocks(); it reaches every vertex
        # exactly when the graph is connected.
        full = (1 << len(self._graph.vertices)) - 1
        if not full:
            return frozenset()
        pairs, reached = _blocks(self._graph, full)
        return _block_flags(self._graph.neighbor_masks, pairs) if reached == full else frozenset()

    @property
    def _multipartite(self) -> frozenset[str]:
        return frozenset({"complete_multipartite"} if self.parts is not None else ())

    @property
    def _split(self) -> frozenset[str]:
        return frozenset({"split"} if self.split_pair is not None else ())


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
    smallest neighbor, moving away from the endpoint.  Raises
    InvalidInputError when `block` names a vertex the graph lacks.
    """
    mask = _vertex_mask(graph, block)
    if endpoint not in block:
        raise StructuralError(f"endpoint {endpoint!r} is not in the block")
    ids, adj, end = graph.vertices, graph.neighbor_masks, graph.position[endpoint]
    if _is_clique(adj, mask):
        return [ids[i] for i in _bits(mask & ~(1 << end))] + [endpoint]
    if _is_cycle(adj, mask):
        path = []
        prev, cur = end, next(_bits(adj[end] & mask))
        while cur != end:
            path.append(ids[cur])
            prev, cur = cur, next(_bits(adj[cur] & mask & ~(1 << prev)))
        return path + [endpoint]
    raise UnsupportedBlockError(f"block {tuple(sorted(block))} is neither a clique nor a cycle")
