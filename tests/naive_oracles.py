"""Brute-force reference implementations used only by tests.

Everything here is deliberately naive: direct enumeration over set
partitions, connected subsets, and vertex permutations.  Slow but obviously
correct, which is the point of an oracle for the oracle.  The packing and
boundedness checks at the end are test-side assertions that the library
itself does not need.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm
from typing import Iterable

from graphfair.core import (
    Agent,
    GoodsGraph,
    Instance,
    InvalidInputError,
    StructuralError,
    UnsupportedBlockError,
    Value,
    ZERO,
)
from graphfair.graphs import (
    is_connected,
    is_connected_subset,
    split_partition,
)


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_connected_partitions(graph: GoodsGraph, n: int):
    """Yield every partition of V into at most n nonempty connected bundles.

    Each partition appears exactly once (up to bundle order) as an n-tuple of
    frozensets, padded with empty bundles.  Bundles are listed in canonical
    order: the first contains the smallest vertex, and so on.
    """
    for part in set_partitions(graph.vertices):
        if len(part) > n or not all(is_connected_subset(graph, p) for p in part):
            continue
        bundles = sorted((frozenset(p) for p in part), key=min)
        yield tuple(bundles) + (frozenset(),) * (n - len(part))


def naive_mms(graph: GoodsGraph, agent: Agent, n: int):
    """Max over covers by at most n connected parts of the padded minimum.

    Returns None when no such cover exists (more components than parts),
    mirroring the oracle's undefined case.
    """
    best = None
    for part in enumerate_connected_partitions(graph, n):
        low = min(agent.value(p) for p in part)
        if best is None or low > best:
            best = low
    return best


def connected_subsets(graph: GoodsGraph):
    verts = list(graph.vertices)
    out = []
    for mask in range(1, 1 << len(verts)):
        sub = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        if is_connected_subset(graph, sub):
            out.append(sub)
    return out


def naive_split_partition(graph: GoodsGraph):
    """The largest clique whose complement is independent, least sorted tuple first.

    Every vertex subset is tried.  Returns None when no subset qualifies, that
    is, when the graph is not split.
    """
    verts = graph.vertices
    valid = [
        clique
        for size in range(len(verts) + 1)
        for clique in combinations(verts, size)
        if all(graph.has_edge(a, b) for a, b in combinations(clique, 2))
        and not any(
            graph.has_edge(a, b)
            for a, b in combinations([v for v in verts if v not in clique], 2)
        )
    ]
    if not valid:
        return None
    best = frozenset(min(valid, key=lambda clique: (-len(clique), clique)))
    return best, frozenset(verts) - best


def naive_pmms(graph: GoodsGraph, agent: Agent, n: int) -> Fraction:
    """Max over at most n disjoint nonempty connected bundles of the padded min.

    Choosing fewer than n bundles pads with empties, so the running best
    starts at zero and only full selections can beat it.
    """
    subs = connected_subsets(graph)
    values = {s: agent.value(s) for s in subs}
    best = ZERO

    def rec(idx: int, chosen: int, used: frozenset, cur_min) -> None:
        nonlocal best
        if chosen == n:
            best = max(best, cur_min)
            return
        if cur_min is not None and cur_min <= best:
            return
        for i in range(idx, len(subs)):
            s = subs[i]
            if s & used:
                continue
            v = values[s]
            nxt = v if cur_min is None else min(cur_min, v)
            rec(i + 1, chosen + 1, used | s, nxt)

    rec(0, 0, frozenset(), None)
    return best


def _canon(n: int, edges) -> tuple:
    best = None
    for perm in permutations(range(n)):
        mapped = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
        if best is None or mapped < best:
            best = mapped
    return best


def connected_graphs_up_to(max_n: int) -> list[GoodsGraph]:
    """All non-isomorphic connected graphs on 1..max_n vertices.

    Built by attaching vertex n to every smaller connected graph with every
    nonempty neighbor set (every connected graph has a non-cut vertex, so
    this reaches them all), deduplicated by permutation-canonical edge sets.
    """
    levels: dict[int, list[frozenset]] = {1: [frozenset()]}
    for n in range(2, max_n + 1):
        seen = set()
        out = []
        for g in levels[n - 1]:
            for mask in range(1, 1 << (n - 1)):
                edges = set(g)
                for i in range(n - 1):
                    if mask >> i & 1:
                        edges.add((i, n - 1))
                key = _canon(n, edges)
                if key not in seen:
                    seen.add(key)
                    out.append(frozenset(edges))
        levels[n] = out

    graphs = []
    for n in range(1, max_n + 1):
        names = [f"v{i + 1}" for i in range(n)]
        for edges in levels[n]:
            graphs.append(
                GoodsGraph.build(names, [(names[a], names[b]) for a, b in edges])
            )
    return graphs


def random_profile(rng, vertices) -> dict[str, Fraction]:
    return {
        v: Fraction(rng.randint(0, 20), rng.choice([1, 1, 2, 3])) for v in vertices
    }


def assigned_vertices(bundles: Iterable[frozenset[str]]) -> frozenset[str]:
    out: set[str] = set()
    for vs in bundles:
        out |= vs
    return frozenset(out)


def is_partition_of(bundles: Iterable[frozenset[str]], graph: GoodsGraph) -> bool:
    return assigned_vertices(bundles) == frozenset(graph.vertices)


def packing_problems(
    labelled: Iterable[tuple[int, frozenset[str]]], graph: GoodsGraph
) -> list[str]:
    """Disjointness and label sanity; connectivity is checked separately."""
    labelled = list(labelled)
    problems: list[str] = []
    labels = [label for label, _ in labelled]
    if len(set(labels)) != len(labels):
        problems.append("an agent label appears in two bundles")
    seen: set[str] = set()
    vset = set(graph.vertices)
    for label, vs in labelled:
        unknown = vs - vset
        if unknown:
            problems.append(f"bundle of {label} contains unknown vertices {sorted(unknown)}")
        overlap = vs & seen
        if overlap:
            problems.append(f"bundle of {label} overlaps an earlier bundle at {sorted(overlap)}")
        seen |= vs
    return problems


def is_alpha_bounded(inst: Instance, agent: Agent, alpha: Value, mms_value: Value) -> bool:
    """True when every single vertex is worth strictly less than alpha * mms.

    An agent with mms 0 is never bounded (no vertex can sit strictly below 0).
    """
    if mms_value <= 0:
        return False
    cut = alpha * mms_value
    return all(agent.utility[v] < cut for v in inst.graph.vertices)


# Frozen copies of the share search and the ratio search in graphfair.oracle,
# taken verbatim (the ratio search without its vertex cap) with the helpers
# they read.  They import nothing from graphfair.oracle, so later rewrites of
# the searches are checked against the behaviour they started from:
# tests/test_search_replay.py replays real calls against them.


class _Mask:
    """Bitmask view of a graph: vertex i of `ids` is bit i."""

    __slots__ = ("ids", "pos", "adj", "full", "m")

    def __init__(self, graph: GoodsGraph):
        self.ids = list(graph.vertices)
        self.pos = {v: i for i, v in enumerate(self.ids)}
        self.m = len(self.ids)
        self.adj = [0] * self.m
        for a, b in graph.edges:
            ia, ib = self.pos[a], self.pos[b]
            self.adj[ia] |= 1 << ib
            self.adj[ib] |= 1 << ia
        self.full = (1 << self.m) - 1

    def to_set(self, mask: int) -> frozenset[str]:
        return frozenset(self.ids[i] for i in _bits(mask))


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _component_count(adj: list[int], mask: int) -> int:
    count = 0
    rest = mask
    while rest:
        count += 1
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
        rest &= ~comp
    return count


def _weights_for(agent: Agent, ids: list[str]) -> tuple[list[int], int]:
    """Int weights in vertex order, and the scale they were multiplied by.

    `scale` is the least common multiple of the utility denominators, and the
    weight of vertex v is `utility[v] * scale`, so a bundle's value is its
    weight sum divided by `scale`.
    """
    vals = []
    for v in ids:
        if v not in agent.utility:
            raise InvalidInputError(f"no utility for vertex {v!r}")
        vals.append(agent.utility[v])
    scale = lcm(*(val.denominator for val in vals))
    return [val.numerator * (scale // val.denominator) for val in vals], scale


def frozen_minmax_partition_search(adj: list[int], full: int, wts: list[int], n: int):
    """Best (max of min bundle weight) partition into at most n connected parts.

    `full` must be non-empty.  Partitions using fewer than n nonempty parts
    count as value 0 because the missing bundles are empty.  Returns (value,
    parts) with value the int optimum in the units of `wts` and parts a tuple
    of masks (no padding).
    """
    best_val = None
    best_parts = None
    total = sum(wts[i] for i in _bits(full))

    def rec(remaining, parts_left, cur_min, acc, rem_weight):
        nonlocal best_val, best_parts
        if remaining == 0:
            val = cur_min if len(acc) == n else 0
            if best_val is None or val > best_val:
                best_val = val
                best_parts = acc
            return
        if parts_left == 0:
            return
        # No completion beats min(cur_min, rem_weight / parts_left).
        if best_val is not None and (
            rem_weight <= best_val * parts_left
            or (cur_min is not None and cur_min <= best_val)
        ):
            return
        if _component_count(adj, remaining) > parts_left:
            return
        seed = (remaining & -remaining).bit_length() - 1
        seed_mask = 1 << seed

        def grow(s_mask, s_weight, cand, banned):
            close_min = s_weight if cur_min is None or s_weight < cur_min else cur_min
            skip = (
                best_val is not None
                and parts_left > 1
                and (
                    rem_weight - s_weight <= best_val * (parts_left - 1)
                    or close_min <= best_val
                )
            )
            if not skip:
                rec(remaining ^ s_mask, parts_left - 1, close_min, acc + (s_mask,), rem_weight - s_weight)
            live = cand & ~banned
            local_ban = banned
            while live:
                b = live & -live
                live ^= b
                i = b.bit_length() - 1
                new_s = s_mask | b
                grow(new_s, s_weight + wts[i], (cand | adj[i]) & remaining & ~new_s, local_ban)
                local_ban |= b

        grow(seed_mask, wts[seed], adj[seed] & remaining & ~seed_mask, 0)

    rec(full, n, None, (), total)
    return best_val, best_parts


def frozen_max_min_ratio_allocation(
    graph: GoodsGraph,
    agents: list[Agent],
    targets: dict[int, Value],
) -> dict[int, frozenset[str]]:
    """Among all n-bundle connected partitions, maximize min value/target.

    Returns {agent id: bundle} for every agent, target-0 agents included,
    and no ratios; a bundle may be empty.  Agents with target 0 are
    unconstrained; negative targets are rejected.  Ties keep the first
    optimum in canonical enumeration order, so the result is deterministic.
    """
    if not agents:
        raise InvalidInputError("no agents to allocate to")
    if not is_connected(graph):
        raise StructuralError("graph is disconnected")
    n = len(agents)
    mk = _Mask(graph)
    adj = mk.adj
    for a in agents:
        t = targets.get(a.id, ZERO)
        if t < 0:
            raise InvalidInputError(f"negative target for agent {a.id}")
    tlist = [targets.get(a.id, ZERO) for a in agents]
    positive = [t > 0 for t in tlist]
    constrained = [i for i in range(n) if positive[i]]
    scaled = [_weights_for(a, mk.ids) for a in agents]
    # Ratio weights: value/target of agent a is (sum of wts[a]) / common.
    # Agents with target 0 get zero weights, which the search never reads.
    denoms = [scaled[a][1] * tlist[a].numerator for a in constrained]
    common = lcm(*denoms)
    wts = [[0] * mk.m for _ in agents]
    for a, d in zip(constrained, denoms):
        factor = tlist[a].denominator * (common // d)
        wts[a] = [w * factor for w in scaled[a][0]]
    totals = [sum(w) for w in wts]
    # Above every reachable ratio weight: the ratio of a target-0 agent.
    top = 1 + max(totals)
    zero_row = [0] * n

    best_score = None
    best_parts = None
    best_assign = None

    def leaf(bundle_masks, bundle_vals):
        nonlocal best_score, best_parts, best_assign
        nb = len(bundle_masks)
        padded_vals = list(bundle_vals) + [zero_row] * (n - nb)
        ratio = [
            [vals[a] if positive[a] else top for a in range(n)]
            for vals in padded_vals
        ]
        memo: dict[int, tuple] = {}

        def assign(used: int):
            if used == (1 << n) - 1:
                return top, ()
            bi = bin(used).count("1")
            if used in memo:
                return memo[used]
            best = None
            for a in range(n):
                if used >> a & 1:
                    continue
                sub, rest = assign(used | (1 << a))
                r = ratio[bi][a]
                cand = r if r < sub else sub
                if best is None or cand > best[0]:
                    best = (cand, ((bi, a),) + rest)
            memo[used] = best
            return best

        score, pairs = assign(0)
        if best_score is None or score > best_score:
            best_score = score
            best_parts = tuple(bundle_masks) + (0,) * (n - nb)
            best_assign = pairs

    def rec(remaining, parts_left, closed_masks, closed_vals, closed_best, rem_wt):
        if remaining == 0:
            leaf(closed_masks, closed_vals)
            return
        if parts_left == 0:
            return
        if best_score is not None and constrained:
            # Agent a can reach at most max(best closed bundle, everything left).
            bound = top
            for a in constrained:
                pot = closed_best[a]
                if rem_wt[a] > pot:
                    pot = rem_wt[a]
                if pot < bound:
                    bound = pot
            if bound <= best_score:
                return
        if _component_count(adj, remaining) > parts_left:
            return
        seed = (remaining & -remaining).bit_length() - 1
        seed_mask = 1 << seed

        def grow(s_mask, s_vals, cand, banned):
            new_best = list(closed_best)
            for a in constrained:
                if s_vals[a] > new_best[a]:
                    new_best[a] = s_vals[a]
            rec(
                remaining ^ s_mask,
                parts_left - 1,
                closed_masks + [s_mask],
                closed_vals + [s_vals],
                new_best,
                [rem_wt[a] - s_vals[a] for a in range(n)],
            )
            live = cand & ~banned
            local_ban = banned
            while live:
                b = live & -live
                live ^= b
                i = b.bit_length() - 1
                new_s = s_mask | b
                grow(
                    new_s,
                    [s_vals[a] + wts[a][i] for a in range(n)],
                    (cand | adj[i]) & remaining & ~new_s,
                    local_ban,
                )
                local_ban |= b

        grow(seed_mask, [wts[a][seed] for a in range(n)], adj[seed] & remaining & ~seed_mask, 0)

    rec(mk.full, n, [], [], [0] * n, totals)

    if best_parts is None:
        raise StructuralError("no connected partition found")

    return {agents[ai].id: mk.to_set(best_parts[bi]) for bi, ai in best_assign}


# A frozen copy of the eager class recognizer of graphfair.graphs, which ran
# every class test before returning, taken verbatim with the private helpers
# it reads; only its result type is local, and its blocks come from
# `frozen_block_cut_tree` below.  It calls the public structure functions
# is_connected and split_partition, which networkx and brute force check on
# their own.  tests/test_recognize.py holds the lazy `ClassWitness` to it.


@dataclass(frozen=True)
class FrozenWitness:
    flags: frozenset[str]
    parts: tuple[frozenset[str], ...] | None = None
    split_pair: tuple[frozenset[str], frozenset[str]] | None = None

    def has(self, flag: str) -> bool:
        return flag in self.flags


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


def frozen_recognize(graph: GoodsGraph) -> FrozenWitness:
    """Classify a graph against the structured classes this package serves."""
    flags: set[str] = set()
    n = len(graph.vertices)
    connected = is_connected(graph)
    if connected:
        flags.add("connected")
    if 2 * len(graph.edges) == n * (n - 1):
        flags.add("complete")
    if connected and n >= 3 and all(len(graph.adjacency[v]) == 2 for v in graph.vertices):
        flags.add("cycle")
    if connected and n >= 1 and len(graph.edges) == n - 1:
        flags.add("tree")

    if connected and n >= 1:
        bct = frozen_block_cut_tree(graph)
        kinds = []
        for b in bct.blocks:
            kinds.append((_is_clique(graph, b), _is_cycle_set(graph, b)))
        if all(cl for cl, _ in kinds):
            flags.add("block_graph")
        if all(cy or len_b <= 2 for (_, cy), len_b in zip(kinds, map(len, bct.blocks))):
            flags.add("cactus")
        if all(cl or cy for cl, cy in kinds):
            flags.add("block_cactus")

    parts = _multipartite_parts(graph)
    if parts is not None:
        flags.add("complete_multipartite")
    split_pair = split_partition(graph)
    if split_pair is not None:
        flags.add("split")

    return FrozenWitness(flags=frozenset(flags), parts=parts, split_pair=split_pair)


# A frozen copy of the string-keyed lowpoint search that graphfair.graphs
# ran before its blocks came from the bitmask search `block_cut_tree`,
# taken verbatim; only its name and its result type are local.
# tests/test_blocks.py holds the bitmask search's pairs, translated into
# vertex ids, to it field by field.


@dataclass(frozen=True)
class FrozenBlockCutTree:
    """Blocks and cut vertices of a connected graph.

    A block containing at most one cut vertex is terminal.  A graph that is
    itself biconnected has a single terminal block and no cut vertices.
    """

    blocks: tuple[frozenset[str], ...]
    cut_vertices: frozenset[str]
    terminal_blocks: frozenset[int]


def frozen_block_cut_tree(graph: GoodsGraph) -> FrozenBlockCutTree:
    """Biconnected components via one iterative lowpoint search.

    Raises StructuralError on empty or disconnected input, the latter found by the search.
    """
    if not graph.vertices:
        raise StructuralError("empty graph has no block structure")
    if len(graph.vertices) == 1:
        only = frozenset(graph.vertices)
        return FrozenBlockCutTree(
            blocks=(only,),
            cut_vertices=frozenset(),
            terminal_blocks=frozenset({0}),
        )

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    parent: dict[str, str | None] = {}
    cuts: set[str] = set()
    raw_blocks: list[frozenset[str]] = []
    edge_stack: list[tuple[str, str]] = []
    counter = 0

    root = graph.vertices[0]
    parent[root] = None
    # Each stack frame carries the vertex and an iterator over its neighbors,
    # so the search survives deep graphs without recursion.
    stack = [(root, iter(sorted(graph.adjacency[root])))]
    index[root] = low[root] = counter
    counter += 1
    root_children = 0

    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if w not in index:
                parent[w] = v
                if v == root:
                    root_children += 1
                edge_stack.append((v, w))
                index[w] = low[w] = counter
                counter += 1
                stack.append((w, iter(sorted(graph.adjacency[w]))))
                advanced = True
                break
            if w != parent[v] and index[w] < index[v]:
                edge_stack.append((v, w))
                low[v] = min(low[v], index[w])
        if advanced:
            continue
        stack.pop()
        if stack:
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= index[u]:
                # u closes a block; pop edges down to (u, v).
                members: set[str] = set()
                while True:
                    a, b = edge_stack.pop()
                    members.add(a)
                    members.add(b)
                    if (a, b) == (u, v):
                        break
                raw_blocks.append(frozenset(members))
                if u != root or root_children > 1:
                    cuts.add(u)
    if len(index) < len(graph.vertices):
        raise StructuralError("graph is disconnected")

    blocks = tuple(sorted(raw_blocks, key=lambda b: tuple(sorted(b))))
    terminal = frozenset(i for i, b in enumerate(blocks) if len(b & cuts) <= 1)
    return FrozenBlockCutTree(
        blocks=blocks,
        cut_vertices=frozenset(cuts),
        terminal_blocks=terminal,
    )


# Frozen copies of the block DP's P(t) count and its plain bisection over
# [0, total // k], as graphfair.blockdp ran them before the threshold search
# jumped to the least closed set, taken verbatim; only their names are local.
# They read the plans of `frozen_plan` below.  tests/test_blocks.py holds
# `_threshold_share` to them.


def frozen_set_count(plan: tuple, wts: list[int], total: int, t: int) -> int:
    """P(t) for t >= 1, with `total` the weight of the whole component.

    A closed vertex's open weight is -(total + 1), so every sum that
    includes one is negative.
    """
    shut = -(total + 1)
    count = [0] * len(wts)
    weight = [0] * len(wts)
    for v, below in plan:
        c = 0
        w = wts[v]
        for kids, layouts in below:
            best_got = best_add = -1
            for join, group in layouts:
                add = 0
                for i in join:
                    add += weight[kids[i]]
                if add < 0:
                    continue
                got = 0
                if group:
                    s = 0
                    for i in group:
                        s += weight[kids[i]]
                    if s >= t:
                        got = 1
                if got > best_got or (got == best_got and add > best_add):
                    best_got, best_add = got, add
            for x in kids:
                c += count[x]
            c += best_got
            w += best_add
        if w >= t:
            c += 1
            w = shut
        count[v] = c
        weight[v] = w
    return c


def frozen_threshold_share(plan: tuple, wts: list[int], total: int, k: int) -> int:
    """The k-bundle share: the largest t in [0, total // k] with P(t) >= k."""
    lo, hi = 0, total // k
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if frozen_set_count(plan, wts, total, mid) >= k:
            lo = mid
        else:
            hi = mid - 1
    return lo


# Frozen copies of the block DP's plans and its jumping P(t) count, as
# graphfair.blockdp ran them before the count read one table per set of open
# children: the layouts of every block pattern of 1 to 4 vertices, a plan
# that lists every child block with its layouts, and a count that keeps one
# count per vertex.  They are taken verbatim with the private helpers above;
# only their names are local.  tests/test_blocks.py holds `_set_count` to
# `frozen_jump_set_count`.


def _frozen_connected(adj: list[int], vertices) -> bool:
    return _component_count(adj, sum(1 << v for v in vertices)) == 1


def frozen_layouts(size: int, pairs: tuple[int, ...]) -> tuple:
    """The ways a block's children can meet its parent vertex, as (join, group).

    The block's `size` vertices are the parent and then its children, and
    `pairs` holds 1 for each adjacent pair of them, in combinations order.
    Layouts name children by their index among the children.  The children
    in `join` add their open sets to the parent's, so join plus the parent
    must be connected.  Of the other children, a `group` of two or more,
    connected without the parent, may finish a set of its own; a block of at
    most 4 vertices has at most 3 children, so there is at most one such
    group.  A lone child needs no group: had its open set reached the
    threshold, it would have closed it.  The empty group is listed only when
    no other group exists.
    """
    adj = [0] * size
    for (a, b), edge in zip(combinations(range(size), 2), pairs):
        if edge:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    kids = range(1, size)
    layouts = []
    for r in range(size):
        for join in combinations(kids, r):
            if not _frozen_connected(adj, (0,) + join):
                continue
            rest = [x for x in kids if x not in join]
            groups = [
                group
                for g in range(2, len(rest) + 1)
                for group in combinations(rest, g)
                if _frozen_connected(adj, group)
            ]
            for group in groups or [()]:
                layouts.append((tuple(x - 1 for x in join), tuple(x - 1 for x in group)))
    return tuple(layouts)


# Every adjacency pattern of a block of 1 to 4 vertices, 75 in all, laid out
# once at import.
_FROZEN_LAYOUTS = {
    (size, pairs): frozen_layouts(size, pairs)
    for size in range(1, 5)
    for pairs in product((0, 1), repeat=size * (size - 1) // 2)
}


def frozen_plan(pairs: list[tuple[int, int]], adj: list[int]) -> tuple:
    """The DP's walk of a block-cut tree, from the pairs of `graphs.block_cut_tree`.

    `pairs` are (parent vertex, block mask), each block after the blocks
    below it, and `adj` is the bitmask adjacency.  The plan lists every
    vertex after the vertices below it, each with its child blocks as
    (children, layouts).
    """
    below: dict[int, list] = {}
    steps = []
    for v, block in pairs:
        kids = tuple(_bits(block ^ (1 << v)))
        # The blocks below these children came before this one.
        steps += [(x, tuple(below.pop(x, ()))) for x in kids]
        edges = tuple(adj[a] >> b & 1 for a, b in combinations((v,) + kids, 2))
        below.setdefault(v, []).append((kids, _FROZEN_LAYOUTS[len(kids) + 1, edges]))
    root = pairs[-1][0]
    steps.append((root, tuple(below.pop(root, ()))))
    return tuple(steps)


def frozen_jump_set_count(plan: tuple, wts: list[int], total: int, t: int) -> tuple[int, int]:
    """P(t) for t >= 1, and the least weight among the sets it closed.

    `total` is the weight of the whole component; the least weight is
    total + 1 when no set closed.  A closed vertex's open weight is
    -(total + 1), so every sum that includes one is negative.
    """
    shut = -(total + 1)
    least = total + 1
    count = [0] * len(wts)
    weight = [0] * len(wts)
    for v, below in plan:
        c = 0
        w = wts[v]
        for kids, layouts in below:
            best_got = best_add = -1
            best_set = 0
            for join, group in layouts:
                add = 0
                for i in join:
                    add += weight[kids[i]]
                if add < 0:
                    continue
                got = 0
                s = 0
                if group:
                    for i in group:
                        s += weight[kids[i]]
                    if s >= t:
                        got = 1
                if got > best_got or (got == best_got and add > best_add):
                    best_got, best_add, best_set = got, add, s
            for x in kids:
                c += count[x]
            c += best_got
            if best_got:
                least = min(least, best_set)
            w += best_add
        if w >= t:
            c += 1
            least = min(least, w)
            w = shut
        count[v] = c
        weight[v] = w
    return c, least


# A frozen copy of the string-keyed in-block Hamiltonian path of
# graphfair.graphs, as it ran before its clique and cycle tests read the
# bitmask view, taken verbatim with the private helpers above; only its name
# is local.  tests/test_blocks.py holds `hamiltonian_path_in_block` to it.


def frozen_hamiltonian_path_in_block(block: frozenset[str], graph: GoodsGraph, endpoint: str) -> list[str]:
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


# A frozen copy of the routing of graphfair.reduction.allocate_reduction, as
# it ran before a single leftover component took every leftover agent
# without reading a witness: every component counts the witness bundles it
# holds, and its agents come in (-f, id) order.  compute_kj is inlined.
# tests/test_reduction.py holds every connected-solver call to it.


def frozen_route(state, records) -> list[tuple[frozenset[str], list[int]]]:
    """(component, agents it serves in ranked order) for each leftover component.

    `state` is a peel outcome and `records` maps each agent id to her pmms
    record.  An agent that no component serves is left out.
    """
    pending = list(state.residual_agents)
    routes = []
    for comp in state.components:
        f = {aid: sum(1 for b in records[aid].witness if b and b <= comp) for aid in pending}
        ranked = sorted(pending, key=lambda aid: (-f[aid], aid))
        k = 0
        for p, aid in enumerate(ranked, start=1):
            if f[aid] >= p:
                k = p
        routes.append((comp, ranked[:k]))
        for aid in ranked[:k]:
            pending.remove(aid)
    return routes
