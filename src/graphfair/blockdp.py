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

Everything here is private to `oracle`, which decides which components the
DP serves, keeps their plans and turns the value into a share record.
"""

from itertools import combinations, product

from .graphs import _bits, _components


def _connected(adj: list[int], vertices) -> bool:
    return len(_components(adj, sum(1 << v for v in vertices))) == 1


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
    adj = [0] * size
    for (a, b), edge in zip(combinations(range(size), 2), pairs):
        if edge:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
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


# Every adjacency pattern of a block of 1 to 4 vertices, 75 in all, laid out
# once at import.
_LAYOUTS = {
    (size, pairs): _layouts(size, pairs)
    for size in range(1, 5)
    for pairs in product((0, 1), repeat=size * (size - 1) // 2)
}


def _plan(pairs: list[tuple[int, int]], adj: list[int]) -> tuple:
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
        below.setdefault(v, []).append((kids, _LAYOUTS[len(kids) + 1, edges]))
    root = pairs[-1][0]
    steps.append((root, tuple(below.pop(root, ()))))
    return tuple(steps)


def _set_count(plan: tuple, wts: list[int], total: int, t: int) -> tuple[int, int]:
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
