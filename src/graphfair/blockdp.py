"""Exact k-bundle shares of a connected graph whose blocks have at most 4 vertices.

This is Perl and Schach's max-min tree partitioning (JACM 1981), lifted from
edges to the blocks of the block-cut tree.  P(t) is the largest number of
disjoint connected sets that are each worth t or more.  On a connected
graph k such sets grow into k connected bundles that cover it, each still
worth t (attach every leftover vertex to a neighbouring set), so the
k-bundle share is the largest t in [0, total // k] with P(t) >= k.  The
search over t is a bisection that jumps: when P(t) >= k, the sets the count
closed grow the same way into k bundles worth at least the lightest of
them, so the search moves up to that weight, not just to t.

P(t) is computed bottom-up on the block-cut tree rooted at the smallest
vertex, from the blocks `graphs.block_cut_tree` lists.  Each vertex ends
with a state: the number of sets finished below it, and the weight of its
open set, the connected set through it that is still growing, or "closed"
once that set is finished.  States rank by finished count first, then by
open weight, with "closed" below any open weight.  That order is safe: an
open set can finish at most one set higher up, and nothing above sees more
of it than its weight.  Each child block takes its best choice in that
order, a join added to the parent's open set, perhaps beside a group that
closes a set of its own (`_table` defines both), and a vertex whose open
weight reaches t closes a set.

A block's best choice depends only on its children's open weights, never on
how many sets they finished, so one counter counts every set closed
anywhere.  Which joins and groups a block may take depends only on which of
its children are still open, so each block pattern of 3 or 4 vertices has a
table, built at import, indexed by that set of open children, and each
entry is read off reachability from the parent in the pattern.  A bridge, a
block of 2 vertices, needs no table: its child's open weight joins the
parent's.

Everything here is private to `oracle`, which decides which components the
DP serves, keeps their plans and turns the value into a share record.
"""

from itertools import combinations, product

from .graphs import _bits, _components


def _connected(adj: list[int], vertices) -> bool:
    return len(_components(adj, sum(1 << v for v in vertices))) == 1


def _adjacency(size: int, pairs: tuple[int, ...]) -> list[int]:
    """The bitmask adjacency of a block pattern, as `_table` reads `pairs`."""
    adj = [0] * size
    for (a, b), edge in zip(combinations(range(size), 2), pairs):
        if edge:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def _reach(adj: list[int], mask: int) -> tuple[int, ...]:
    """The children that the parent, vertex 0, reaches through `mask`, by child index."""
    return tuple(_bits(_components(adj, mask | 1)[0] >> 1))


def _table(size: int, pairs: tuple[int, ...]) -> tuple:
    """A block pattern's joins and groups, indexed by its set of open children.

    The pattern's `size` vertices are the parent and then its children, and
    `pairs` holds 1 for each adjacent pair, in combinations order.  Bit i of
    the index is set when child i is open; entries name children by index.
    A join is open children whose open sets add to the parent's, so it is
    connected to the parent.  A group is two or more open children,
    connected without the parent, that may close a set of their own (a lone
    child would have closed its own set, and a closed child never reaches
    the threshold).  Two disjoint groups would need four children, so a
    block closes at most one set.

    Each entry is (plain join, ((group, join), ...)), groups by size and
    then in combinations order.  Weights are nonnegative and the union of
    two joins is a join, so the best join is unique: the open children the
    parent reaches through open children, or, beside a group, through the
    open children outside it.
    """
    adj = _adjacency(size, pairs)
    groups = [
        sum(1 << x for x in group)
        for g in range(2, size)
        for group in combinations(range(1, size), g)
        if _connected(adj, group)
    ]
    table = []
    for open_set in range(1 << (size - 1)):
        open_mask = open_set << 1
        beside = tuple(
            (tuple(_bits(group >> 1)), _reach(adj, open_mask & ~group))
            for group in groups
            if group & open_mask == group
        )
        table.append((_reach(adj, open_mask), beside))
    return tuple(table)


def _biconnected(size: int, pairs: tuple[int, ...]) -> bool:
    """Whether a pattern of 3 or more vertices stays connected without any one of them."""
    adj = _adjacency(size, pairs)
    return all(_connected(adj, [x for x in range(size) if x != cut]) for cut in range(size))


# The blocks of 3 or 4 vertices a lowpoint search can return, 11 patterns in
# all (the triangle and every labelling of the 4-cycle, the diamond and the
# 4-clique), tabled once at import.
_TABLES = {
    (size, pairs): _table(size, pairs)
    for size in (3, 4)
    for pairs in product((0, 1), repeat=size * (size - 1) // 2)
    if _biconnected(size, pairs)
}


def _plan(pairs: list[tuple[int, int]], adj: list[int]) -> tuple:
    """The DP's walk of a block-cut tree, from the pairs of `graphs.block_cut_tree`.

    `pairs` are (parent vertex, block mask), each block after the blocks
    below it, and `adj` is the bitmask adjacency.  The plan lists every
    vertex after the vertices below it, as (vertex, bridges, blocks): the
    child of each bridge below it, and each larger child block as
    (children, table), the table `_TABLES` holds for its pattern; entry i of
    the table holds the block's joins and groups when the children in bit
    set i are open.  A lone-vertex block has no children.
    """
    bridges: dict[int, list[int]] = {}
    blocks: dict[int, list] = {}
    steps = []
    for v, block in pairs:
        kids = tuple(_bits(block ^ (1 << v)))
        # The blocks below these children came before this one.
        steps += [(x, tuple(bridges.pop(x, ())), tuple(blocks.pop(x, ()))) for x in kids]
        if len(kids) == 1:
            bridges.setdefault(v, []).append(kids[0])
        elif kids:
            edges = tuple(adj[a] >> b & 1 for a, b in combinations((v,) + kids, 2))
            blocks.setdefault(v, []).append((kids, _TABLES[len(kids) + 1, edges]))
    root = pairs[-1][0]
    steps.append((root, tuple(bridges.pop(root, ())), tuple(blocks.pop(root, ()))))
    return tuple(steps)


def _set_count(plan: tuple, wts: list[int], total: int, t: int) -> tuple[int, int]:
    """P(t) for t >= 1, and the least weight among the sets it closed.

    `total` is the weight of the whole component; the least weight is
    total + 1 when no set closed.  A closed vertex's open weight is -1.  One
    counter counts every set closed anywhere.  A vertex adds the open weight
    of each open bridge child; each larger child block reads the entry for its
    open children, closes a set with the group that reaches t beside the
    heaviest join, and adds that join, or adds the plain join when no group
    reaches t.
    """
    count = 0
    least = total + 1
    weight = [0] * len(wts)
    for v, bridges, blocks in plan:
        w = wts[v]
        # Most vertices are leaves; the guards skip their empty loops.
        if bridges:
            for x in bridges:
                if weight[x] > 0:
                    w += weight[x]
        if blocks:
            for kids, table in blocks:
                ws = [weight[x] for x in kids]
                open_set = 0
                bit = 1
                for x in ws:
                    if x >= 0:
                        open_set |= bit
                    bit <<= 1
                plain, groups = table[open_set]
                best_add = -1
                for group, join in groups:
                    s = 0
                    for i in group:
                        s += ws[i]
                    if s >= t:
                        add = 0
                        for i in join:
                            add += ws[i]
                        if add > best_add:
                            best_add, best_set = add, s
                if best_add < 0:
                    for i in plain:
                        w += ws[i]
                else:
                    count += 1
                    if best_set < least:
                        least = best_set
                    w += best_add
        if w >= t:
            count += 1
            if w < least:
                least = w
            w = -1
        weight[v] = w
    return count, least


def _threshold_share(plan: tuple, wts: list[int], total: int, k: int) -> int:
    """The k-bundle share: the largest t in [0, total // k] with P(t) >= k."""
    lo, hi = 0, total // k
    while lo < hi:
        mid = (lo + hi + 1) // 2
        count, least = _set_count(plan, wts, total, mid)
        if count >= k:
            lo = least
        else:
            hi = mid - 1
    return lo
