"""Exact k-bundle shares of a connected graph whose blocks have at most 4 vertices.

This is Perl and Schach's max-min tree partitioning (JACM 1981), lifted from
edges to the blocks of the block-cut tree.  P(t) is the largest number of
disjoint connected sets that are each worth t or more.  On a connected
graph k such sets grow into k connected bundles that cover it, each still
worth t (attach every leftover vertex to a neighbouring set), so the
k-bundle share is the largest t in [0, total // k] with P(t) >= k, found by
binary search.

P(t) is computed bottom-up on the block-cut tree rooted at the smallest
vertex.  Each vertex ends with a state: the number of sets finished below
it, and the weight of its open set, the connected set through it that is
still growing, or "closed" once that set is finished.  States rank by
finished count first, then by open weight, with "closed" below any open
weight.  That order is safe: an open set can finish at most one set higher
up, and nothing above sees more of it than its weight.  Each child block
takes its best layout in that order, and a vertex whose open weight reaches
t closes a set.

Everything here is private to `oracle`, which decides which components the
DP serves, keeps their plans and turns the value into a share record.
"""

from itertools import combinations, product

from .graphs import _component_count


def _connected(adj: list[int], vertices) -> bool:
    return _component_count(adj, sum(1 << v for v in vertices)) == 1


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


def _plan(blocks: list[list[int]], root: int, adj: list[int]) -> tuple:
    """The DP's walk of a block-cut tree, rooted at vertex `root`.

    `blocks` lists each block's vertices and `adj` is the bitmask adjacency.
    The plan lists every vertex after the vertices below it, each with its
    child blocks as (children, layouts).
    """
    blocks_of: dict[int, list[int]] = {}
    for bi, block in enumerate(blocks):
        for v in block:
            blocks_of.setdefault(v, []).append(bi)
    order = [root]
    placed: set[int] = set()
    steps = []
    for v in order:
        below = []
        for bi in blocks_of[v]:
            if bi not in placed:
                placed.add(bi)
                kids = tuple(sorted(x for x in blocks[bi] if x != v))
                order.extend(kids)
                pairs = tuple(adj[a] >> b & 1 for a, b in combinations((v,) + kids, 2))
                below.append((kids, _LAYOUTS[len(kids) + 1, pairs]))
        steps.append((v, tuple(below)))
    return tuple(reversed(steps))


def _set_count(plan: tuple, wts: list[int], total: int, t: int) -> int:
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


def _threshold_share(plan: tuple, wts: list[int], total: int, k: int) -> int:
    """The k-bundle share: the largest t in [0, total // k] with P(t) >= k."""
    lo, hi = 0, total // k
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _set_count(plan, wts, total, mid) >= k:
            lo = mid
        else:
            hi = mid - 1
    return lo
