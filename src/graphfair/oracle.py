"""Exact maximin shares by pruned exhaustive search, or by a DP on small blocks.

The searches run over connected partitions enumerated canonically: the first
bundle always contains the smallest unassigned vertex, and bundles grow by a
standard no-duplicate connected-subset expansion.  Vertex sets are bitmasks.

Values are Fractions at the API only.  Inside the searches every utility is a
plain int: an agent's utilities are multiplied by the least common multiple of
their denominators, and the search result is divided back once at the end.
A branch of the share search must still be able to beat the best value found:
the running minimum can only drop, and with weights in ints a completion
beats `best` only if each remaining bundle is worth `best + 1` or more,
tested as `remaining < (best + 1) * bundles` so that no division happens.
The test also stops a bundle from growing: weights are nonnegative, so
when a bundle leaves too little for the bundles after it, every superset
leaves less.  Nor does a level go on growing bundles once `best` has
reached its running minimum, since no bundle closed there can beat it.
These cuts drop only nodes that could never recurse, so the search makes
the same recursive calls in the same order as without them.
With one bundle left, the whole remainder closes the partition in one step,
since no other subset could.  No partition's smallest bundle is worth more
than (total - top_j) // (n - j) for any j < n, top_j being the weight of
the j heaviest vertices: they lie in at most j bundles, and the other n - j
share the rest.  The least of these bounds is total // n (j = 0) unless a
vertex outweighs total / n, and only then are the weights sorted.  The
search returns at the first partition that reaches the bound: later ones
can only tie, and the first optimum in canonical order stays the witness.

`mms` and `pmms` run one component DP: bundles never cross components, so
the n bundles are spread over the components, at least one per component for
`mms` (the bundles must cover V) and possibly none for `pmms`.  On a connected
graph the two shares are therefore one search and one record.  A component's
k-bundle share is worked out only when the DP first reads it, so a connected
graph needs k = n alone, and one bundle, the component itself, needs no
search.

A component whose blocks all have at most 4 vertices, as on block graphs and
cacti of small blocks, gets its k-bundle value from the threshold DP of
`blockdp` instead of the search.  Before its blocks are computed, a
component with more than 2(|C| - 1) edges is turned away, since blocks of
at most 4 vertices allow no more; every other component keeps the search.
Block-cut plans are cached per graph and component, and clear_cache() drops
them with the records.

Share records are made here and nowhere else, all one way: a record builds
its witness the first time it is read, and keeps it.  A searched component
gives the parts its search found.  A component whose value came from the DP
runs a search that knows the value: it starts from best = value - 1 and
stops at the first partition worth the value, which is the first optimum in
canonical order, the witness the full search returns.  A caller that reads
only values, as the certificate does, runs no search on such a graph.

Shares are cached per utility function: the key is the graph, the int
weights, their scale and n, never the agent, and which share was asked for
only when the graph has two or more components.  The components are walked
only after the key without that flag misses, so a hit on a connected graph
costs the weight scaling alone.  A record names no agent, so agents of one
type share one search and receive the same record object.  The cache holds
at most `_CACHE_LIMIT` records and drops the oldest first.

The max-min ratio search compares value/target across agents.  It gives each
agent ratio weights, her scaled utilities multiplied so that every agent's
value/target is her ratio-weight sum over one common denominator; the whole
search then compares ints.  When every agent has a positive target and all
share one ratio-weight row, the agents are one group: the rows are one
positive multiple of the first agent's scaled weights, which moves no
optimum, so the first optimum is her n-bundle share witness, read from the
share cache, and bundle i goes to agent i as the search would assign it.
Any other call runs the search.  It closes the last bundle in one step too,
but has no ceiling: agents who value different goods can all get more than
the least of their total // n.

These routines are meant for desk-scale inputs; everything refuses graphs
with more than `MAX_VERTICES` vertices.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import (
    Agent,
    GoodsGraph,
    GuaranteeViolationError,
    InvalidInputError,
    SizeLimitError,
    StructuralError,
    UndefinedMmsError,
    Value,
    ZERO,
)
from .blockdp import _layouts, _plan, _threshold_share
from .graphs import (
    _bits,
    _component_count,
    block_cut_tree,
    connected_components,
)

MAX_VERTICES = 14

# Share cache: key -> MmsRecord, one key per utility function.  Plan cache:
# (graph, component mask) -> block DP plan, or None for a component the DP
# does not serve.
_CACHE_LIMIT = 1024
_cache: dict = {}
_plans: dict = {}


def clear_cache() -> None:
    _cache.clear()
    _plans.clear()
    _layouts.cache_clear()


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
    The oracle's records build their witness on first read and keep it;
    they compare, hash and print like a record built with both fields.
    """

    value: Value
    witness: tuple[frozenset[str], ...]

    def __getattr__(self, name):
        # Reached only for an attribute the record lacks: the witness of a
        # record made by _lazy_record, before its first read.
        build = self.__dict__.get("_build")
        if name != "witness" or build is None:
            raise AttributeError(name)
        witness = build()
        object.__setattr__(self, "witness", witness)
        del self.__dict__["_build"]
        return witness


def _lazy_record(value: Value, build) -> MmsRecord:
    """A record whose witness `build()` makes on first read, then keeps."""
    record = object.__new__(MmsRecord)
    object.__setattr__(record, "value", value)
    object.__setattr__(record, "_build", build)
    return record


def _store(table: dict, key, entry) -> None:
    if len(table) >= _CACHE_LIMIT:
        del table[next(iter(table))]
    table[key] = entry


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


def _weights_for(agent: Agent, ids: list[str]) -> tuple[list[int], int]:
    """Int weights in vertex order, and the scale they were multiplied by.

    `scale` is the least common multiple of the utility denominators, and the
    weight of vertex v is `utility[v] * scale`, so a bundle's value is its
    weight sum divided by `scale`.  Every search cut assumes nonnegative
    weights, so a negative utility is rejected here.
    """
    vals = []
    for v in ids:
        if v not in agent.utility:
            raise InvalidInputError(f"no utility for vertex {v!r}")
        vals.append(agent.utility[v])
    scale = lcm(*(val.denominator for val in vals))
    wts = [val.numerator * (scale // val.denominator) for val in vals]
    low = min(wts, default=0)
    if low < 0:
        raise InvalidInputError(f"agent {agent.id} has a negative value at {ids[wts.index(low)]!r}")
    return wts, scale


class _Ceiling(Exception):
    """The share search reached a value no partition can exceed."""


def _minmax_partition_search(
    adj: list[int], full: int, wts: list[int], n: int, floor: int | None = None
):
    """Best (max of min bundle weight) partition into at most n connected parts.

    `full` must be non-empty, `wts` nonnegative and n at least 1.  Partitions
    using fewer than n nonempty parts count as value 0 because the missing
    bundles are empty.  Returns (value, parts) with value the int optimum in
    the units of `wts` and parts a tuple of masks (no padding).

    Without `floor`, the search stops at the first partition worth the
    heavy-vertex ceiling, the least over j < n of (total - top_j) // (n - j)
    with top_j the weight of the j heaviest vertices; no partition is worth
    more, so that partition is the first optimum.

    `floor`, when given, must be that optimum, known beforehand.  The search
    then starts from best = floor - 1 and stops at the first partition worth
    floor.  No branch that leads to such a partition is cut while best is
    below floor, so that partition is the first optimum in canonical order,
    the one the full search returns.  A floor of 0 seeds nothing and stops at
    the first leaf.

    Once best is set, a bundle stops growing when it leaves less than
    best + 1 for each later bundle, and a level stops when best reaches its
    running minimum.  Neither cut drops a node that could recurse, so the
    recursive calls, and with them every result, are those of the uncut
    enumeration.
    """
    best_val = None
    best_parts = None
    ws = [wts[i] for i in _bits(full)]
    total = sum(ws)
    if floor is not None:
        ceiling = floor
    elif max(ws) * n > total:
        # Taking the heaviest vertex off lowers the bound while w * k > rest;
        # after the first vertex that fails, lighter ones only raise it.
        rest, k = total, n
        for w in sorted(ws, reverse=True):
            if w * k <= rest:
                break
            rest -= w
            k -= 1
        ceiling = rest // k
    else:
        ceiling = total // n
    if floor:
        best_val = floor - 1

    def rec(remaining, parts_left, cur_min, acc, rem_weight):
        nonlocal best_val, best_parts
        if remaining == 0:
            # Fewer than n bundles, so the value is 0.  Only the first leaf
            # can get here: once best is set, grow skips a bundle that
            # leaves nothing for the bundles after it.
            if best_val is None:
                best_val = 0
                best_parts = acc
                if best_val >= ceiling:
                    raise _Ceiling
            return
        if _component_count(adj, remaining) > parts_left:
            return
        if parts_left == 1:
            # Only the whole remainder, connected, closes the partition.
            best_val = rem_weight if cur_min is None or rem_weight < cur_min else cur_min
            best_parts = acc + (remaining,)
            if best_val >= ceiling:
                raise _Ceiling
            return
        seed = (remaining & -remaining).bit_length() - 1
        seed_mask = 1 << seed

        def grow(s_mask, s_weight, cand, banned):
            # A completion beats best only if each of its parts_left - 1
            # later bundles is worth best + 1 or more, and the running
            # minimum already is.  Weights are nonnegative, so every
            # superset of a bundle too heavy to leave that much is too heavy
            # as well; and once best reaches cur_min, no bundle of this level
            # can close above it.  No such node or subtree can call rec.
            if best_val is not None and (
                rem_weight - s_weight < (best_val + 1) * (parts_left - 1)
                or cur_min is not None and cur_min <= best_val
            ):
                return
            close_min = s_weight if cur_min is None or s_weight < cur_min else cur_min
            if best_val is None or close_min > best_val:
                rec(remaining ^ s_mask, parts_left - 1, close_min, acc + (s_mask,), rem_weight - s_weight)
            live = cand & ~banned
            local_ban = banned
            while live:
                b = live & -live
                live ^= b
                i = b.bit_length() - 1
                new_w = s_weight + wts[i]
                # A child too heavy already is skipped but still banned, so
                # its later siblings enumerate what they did before.
                if best_val is None or rem_weight - new_w >= (best_val + 1) * (parts_left - 1):
                    new_s = s_mask | b
                    grow(new_s, new_w, (cand | adj[i]) & remaining & ~new_s, local_ban)
                local_ban |= b

        grow(seed_mask, wts[seed], adj[seed] & remaining & ~seed_mask, 0)

    try:
        rec(full, n, None, (), total)
    except _Ceiling:
        pass
    return best_val, best_parts


def _block_plan(graph: GoodsGraph, comp: list[str], mk: _Mask, mask: int):
    """The block DP's plan for one component, or None if a block is too big.

    The DP serves components whose blocks have at most 4 vertices.  Plans
    are cached per graph and component until clear_cache().
    """
    # A block of b <= 4 vertices has at most 2(b - 1) edges, and the b - 1
    # add up to |C| - 1 over the blocks, so a denser component is turned away
    # before its blocks are computed.  One induced graph serves both steps.
    sub = graph.induced(comp)
    if len(sub.edges) > 2 * (len(comp) - 1):
        return None
    key = (graph, mask)
    if key in _plans:
        return _plans[key]
    tree = block_cut_tree(sub)
    plan = None
    if all(len(block) <= 4 for block in tree.blocks):
        blocks = [[mk.pos[v] for v in block] for block in tree.blocks]
        plan = _plan(blocks, (mask & -mask).bit_length() - 1, mk.adj)
    _store(_plans, key, plan)
    return plan


def _share(graph: GoodsGraph, agent: Agent, n: int, cover: bool) -> MmsRecord:
    """The n-bundle share over packings, or over partitions when `cover` is set.

    A component given k bundles is worth its k-bundle maximin share; covering
    V only asks every component to take at least one bundle.
    """
    if n < 1:
        raise InvalidInputError(f"need at least one bundle, got n={n}")
    _cap(graph)
    wts, scale = _weights_for(agent, list(graph.vertices))
    key = (graph, tuple(wts), scale, n)
    # Only a graph with at most one component stores this key, so a hit
    # needs no component walk.
    hit = _cache.get(key)
    if hit is not None:
        return hit
    comps = connected_components(graph)
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
        # Best k-bundle split of component j, worked out on first use only:
        # (value, parts), with parts None when the threshold DP gave the
        # value.  One bundle needs neither: it is the component itself.
        state = (j, k)
        if state not in table:
            mask = comp_masks[j]
            if k == 1:
                table[state] = sum(wts[i] for i in _bits(mask)), (mask,)
            else:
                plan = _block_plan(graph, comps[j], mk, mask)
                if plan is None:
                    table[state] = _minmax_partition_search(mk.adj, mask, wts, k)
                else:
                    total = sum(wts[i] for i in _bits(mask))
                    table[state] = _threshold_share(plan, wts, total, k), None
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
        splits = [(comp_masks[j], k) + comp_split(j, k) for j, k in enumerate(picks) if k]
    else:
        # More bundles than vertices: each vertex is a bundle of its own, the
        # rest are empty, and the share is 0.
        value = ZERO
        splits = [(1 << i, 1, wts[i], (1 << i,)) for i in range(mk.m)]

    def witness():
        parts = []
        for mask, k, v, found in splits:
            if found is None:
                got, found = _minmax_partition_search(mk.adj, mask, wts, k, floor=v)
                if got != v:
                    raise GuaranteeViolationError(
                        f"the share search found {got}, the threshold DP {v}"
                    )
            parts += found
        return tuple(mk.to_set(mask) for mask in parts) + (frozenset(),) * (n - len(parts))

    record = _lazy_record(value, witness)
    _store(_cache, key, record)
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
    mk = _Mask(graph)
    adj = mk.adj
    if _component_count(adj, mk.full) > 1:
        raise StructuralError("graph is disconnected")
    n = len(agents)
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
    if len(constrained) == n and all(row == wts[0] for row in wts):
        # One group: every row is the same positive multiple of the first
        # agent's scaled weights, so the first optimum is her share witness,
        # and assign would give bundle i to agent i.
        witness = _share(graph, agents[0], n, cover=True).witness
        return {a.id: bundle for a, bundle in zip(agents, witness)}
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

        def assign(used: int, bi: int):
            # Bundles 0..bi-1 went to the agents in `used`; bundle bi is next.
            if bi == n:
                return top, ()
            if used in memo:
                return memo[used]
            best = None
            for a in range(n):
                if used >> a & 1:
                    continue
                sub, rest = assign(used | (1 << a), bi + 1)
                r = ratio[bi][a]
                cand = r if r < sub else sub
                if best is None or cand > best[0]:
                    best = (cand, ((bi, a),) + rest)
            memo[used] = best
            return best

        score, pairs = assign(0, 0)
        if best_score is None or score > best_score:
            best_score = score
            best_parts = tuple(bundle_masks) + (0,) * (n - nb)
            best_assign = pairs

    def rec(remaining, parts_left, closed_masks, closed_vals, closed_best, rem_wt):
        if remaining == 0:
            leaf(closed_masks, closed_vals)
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
        if parts_left == 1:
            # Only the whole remainder, connected, closes the partition, and
            # rem_wt is its weight for every agent.
            leaf(closed_masks + [remaining], closed_vals + [rem_wt])
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
