"""Exact maximin-share computations by pruned exhaustive search.

The searches run over connected partitions enumerated canonically: the first
bundle always contains the smallest unassigned vertex, and bundles grow by a
standard no-duplicate connected-subset expansion.  Vertex sets are bitmasks.

Values are Fractions at the API only.  Inside the searches every utility is a
plain int: an agent's utilities are multiplied by the least common multiple of
their denominators, and the search result is divided back once at the end.
Branches are cut by two bounds: the running minimum can only drop, and no
completion can beat the remaining weight spread evenly over the remaining
bundles, tested as `remaining <= best * bundles` so that no division happens.

`mms` and `pmms` run one component DP: bundles never cross components, so
the n bundles are spread over the components, at least one per component for
`mms` (the bundles must cover V) and possibly none for `pmms`.  On a connected
graph the two shares are therefore one search and one record.  A component's
k-bundle share is searched only when the DP first reads it, so a connected
graph searches k = n alone, and one bundle, the component itself, needs no
search.

Shares are cached per utility function: the key is the graph, the int
weights, their scale and n, never the agent, and which share was asked for
only when the graph has two or more components.  A record names no agent, so
agents of one type share one search and receive the same record object.  The
cache holds at most `_CACHE_LIMIT` records and drops the oldest first.

The max-min ratio search compares value/target across agents.  It gives each
agent ratio weights, her scaled utilities multiplied so that every agent's
value/target is her ratio-weight sum over one common denominator; the whole
search then compares ints.

These routines are meant for desk-scale inputs; everything refuses graphs
with more than `MAX_VERTICES` vertices.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import (
    Agent,
    GoodsGraph,
    InvalidInputError,
    SizeLimitError,
    StructuralError,
    UndefinedMmsError,
    Value,
    ZERO,
)
from .graphs import connected_components, is_connected

MAX_VERTICES = 14

# Share cache: key -> MmsRecord, one key per utility function.
_CACHE_LIMIT = 1024
_cache: dict = {}


def clear_cache() -> None:
    _cache.clear()


def _cap(graph: GoodsGraph) -> None:
    if len(graph.vertices) > MAX_VERTICES:
        raise SizeLimitError(
            f"graph has {len(graph.vertices)} vertices, enumeration cap is {MAX_VERTICES}"
        )


@dataclass(frozen=True)
class MmsRecord:
    """An exact share value with its witness: n connected bundles.

    A record belongs to a utility function, not to an agent: every agent with
    that utility function on that graph and bundle count n gets it.  The
    witness lists the n bundles in search order, empty ones last.  An `mms`
    witness covers the whole vertex set; a `pmms` witness may not, except on
    a graph with at most one component, where the two shares are one record.
    """

    value: Value
    witness: tuple[frozenset[str], ...]


def _store(key, record: MmsRecord) -> None:
    if len(_cache) >= _CACHE_LIMIT:
        del _cache[next(iter(_cache))]
    _cache[key] = record


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


def _minmax_partition_search(adj: list[int], full: int, wts: list[int], n: int):
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


def _share(graph: GoodsGraph, agent: Agent, n: int, cover: bool) -> MmsRecord:
    """The n-bundle share over packings, or over partitions when `cover` is set.

    A component given k bundles is worth its k-bundle maximin share; covering
    V only asks every component to take at least one bundle.
    """
    if n < 1:
        raise InvalidInputError(f"need at least one bundle, got n={n}")
    _cap(graph)
    wts, scale = _weights_for(agent, list(graph.vertices))
    comps = connected_components(graph)
    key = (graph, tuple(wts), scale, n)
    if len(comps) > 1:
        # Only here can covering V change the share.
        key = (cover,) + key
    hit = _cache.get(key)
    if hit is not None:
        return hit
    if cover and len(comps) > n:
        raise UndefinedMmsError(
            f"graph has more than {n} components; no {n}-bundle partition covers it"
        )

    mk = _Mask(graph)
    comp_masks = [sum(1 << mk.pos[v] for v in comp) for comp in comps]
    sizes = [len(comp) for comp in comps]
    least = 1 if cover else 0
    table: dict[tuple[int, int], tuple[int, tuple]] = {}

    def comp_split(j: int, k: int):
        # Best k-bundle split of component j, searched on first use only.  One
        # bundle needs no search: it is the component itself.
        state = (j, k)
        if state not in table:
            mask = comp_masks[j]
            if k == 1:
                table[state] = sum(wts[i] for i in _bits(mask)), (mask,)
            else:
                table[state] = _minmax_partition_search(mk.adj, mask, wts, k)
        return table[state]

    memo: dict[tuple[int, int], tuple] = {}

    def dp(j: int, budget: int):
        # Spreads `budget` bundles over components j.. and returns
        # (feasible, min bundle value, chosen k tuple).  The min is None when
        # no bundle is placed, which no placed bundle can beat.
        if j == len(comp_masks):
            return budget == 0, None, ()
        state = (j, budget)
        if state in memo:
            return memo[state]
        best = (False, None, ())
        for k in range(least, min(sizes[j], budget) + 1):
            ok, sub, picks = dp(j + 1, budget - k)
            if not ok:
                continue
            cand = sub
            if k:
                mine = comp_split(j, k)[0]
                if cand is None or mine < cand:
                    cand = mine
            if not best[0] or (best[1] is not None and (cand is None or cand > best[1])):
                best = (True, cand, (k,) + picks)
        memo[state] = best
        return best

    feasible, best_val, picks = dp(0, n)
    if feasible:
        value = Fraction(best_val, scale)
        parts = tuple(p for j, k in enumerate(picks) if k for p in comp_split(j, k)[1])
    else:
        # More bundles than vertices: each vertex is a bundle of its own, the
        # rest are empty, and the share is 0.
        value = ZERO
        parts = tuple(1 << i for i in range(mk.m))
    witness = tuple(mk.to_set(mask) for mask in parts) + (frozenset(),) * (n - len(parts))
    record = MmsRecord(value=value, witness=witness)
    _store(key, record)
    return record


def mms(graph: GoodsGraph, agent: Agent, n: int) -> MmsRecord:
    """Exact maximin share over connected partitions into n bundles.

    Undefined (raises UndefinedMmsError) when the graph has more than n
    connected components, since no n-bundle partition covers V then.
    """
    return _share(graph, agent, n, cover=True)


def pmms(graph: GoodsGraph, agent: Agent, n: int) -> MmsRecord:
    """Exact maximin share over packings (bundles need not cover V).

    Defined for every graph.  On a connected graph it equals mms, and both
    return the same record.
    """
    return _share(graph, agent, n, cover=False)


def max_min_ratio_allocation(
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
    _cap(graph)
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
