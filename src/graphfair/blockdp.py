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
of it than its weight.  Each child block takes its best layout in that
order, and a vertex whose open weight reaches t closes a set.

A block's best layout depends only on its children's open weights, never on
how many sets they finished, so one counter counts every set closed
anywhere.  Which layouts a block may take depends only on which of its
children are still open, so each block pattern of 3 or 4 vertices has a
table, built at import, indexed by that set of open children.  A bridge, a
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
    """The bitmask adjacency of a block pattern, as `_layouts` reads `pairs`."""
    adj = [0] * size
    for (a, b), edge in zip(combinations(range(size), 2), pairs):
        if edge:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def _layouts(size: int, pairs: tuple[int, ...]) -> tuple:
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
    adj = _adjacency(size, pairs)
    kids = range(1, size)
    layouts = []
    for r in range(size):
        for join in combinations(kids, r):
            if not _connected(adj, (0,) + join):
                continue
            rest = [x for x in kids if x not in join]
            groups = [
                group
                for g in range(2, len(rest) + 1)
                for group in combinations(rest, g)
                if _connected(adj, group)
            ]
            for group in groups or [()]:
                layouts.append((tuple(x - 1 for x in join), tuple(x - 1 for x in group)))
    return tuple(layouts)


def _table(size: int, pairs: tuple[int, ...]) -> tuple:
    """A block pattern's layouts, indexed by its set of open children.

    Bit i of the index is set when child i is open.  Each entry is
    (plain join, ((group, join), ...)).  A layout whose join takes a closed
    child is dropped, and a group that takes one can never reach the
    threshold, so its layout counts as a join alone.  Weights are
    nonnegative, so the plain join is the largest join left, and each group
    keeps the largest join beside it; groups stay in the order they first
    appear in `_layouts`.  The union of two joins is still connected to the
    parent, so each largest join is unique.
    """
    layouts = _layouts(size, pairs)
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


def _biconnected(size: int, pairs: tuple[int, ...]) -> bool:
    """Whether a pattern of 3 or more vertices stays connected without any one of them."""
    adj = _adjacency(size, pairs)
    return all(_connected(adj, [x for x in range(size) if x != cut]) for cut in range(size))


# The blocks of 3 or 4 vertices a lowpoint search can return, 11 patterns in
# all (the triangle and every labelling of the 4-cycle, the diamond and the
# 4-clique), tabled once at import.
_LAYOUTS = {
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
    (children, table), the table `_LAYOUTS` holds for its pattern.  A
    lone-vertex block has no children.
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
            blocks.setdefault(v, []).append((kids, _LAYOUTS[len(kids) + 1, edges]))
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
