"""Exact maximin shares by pruned exhaustive search, or by a DP on small blocks.

The searches run over connected partitions enumerated canonically: the first
bundle always contains the smallest unassigned vertex, and bundles grow by a
standard no-duplicate connected-subset expansion.  Vertex sets are bitmasks
over the graph's own `neighbor_masks`, which it derives once.

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
These cuts drop only nodes that could never recurse.  The search also
walks the components of each remainder and leaves one with more
components than bundles to come.  Once a partition is known, the room cut
leaves a remainder of two or more components at once when they cannot
hold the bundles to come at best + 1 each: every bundle is connected, so
it lies inside one component, the partition covers every component, and
a component C holds at most w(C) // (best + 1) bundles.  This cut drops
recursive calls, but only calls under which no partition beats `best`,
which only rises; so the search closes the same partitions in the same
order as without any cut, and returns the same result.
With one bundle left, the whole remainder closes the partition in one step,
since no other subset could.  No partition's smallest bundle is worth more
than (total - top_j) // (n - j) for any j < n, top_j being the weight of
the j heaviest vertices: they lie in at most j bundles, and the other n - j
share the rest.  The least of these bounds is total // n (j = 0) unless a
vertex outweighs total / n.  The search returns at the first partition
that reaches the bound: later ones can only tie, and the first optimum in
canonical order stays the witness.

`mms` and `pmms` run one component DP: bundles never cross components, so
the n bundles are spread over the components, at least one per component for
`mms` (the bundles must cover V) and possibly none for `pmms`.  On a connected
graph the two shares are therefore one search and one record.  A component's
k-bundle share is worked out only when the DP first reads it, so a connected
graph needs k = n alone, and one bundle, the component itself, needs no
search.

Each component's value comes from one entry of the plan cache: the name of a
method and its value function, which maps the graph's int weights and a
bundle count k >= 2 to the component's k-bundle share.  `_component_plan`
picks the method and `_share` only calls it.  A component whose blocks all
have at most 4 vertices, as on block graphs and cacti of small blocks, is
valued by the threshold DP of `blockdp`.  Its blocks come from the lowpoint
search `graphs.block_cut_tree` on the component's mask, with no induced
graph, read through the memo `graphs._blocks`: in a block-cactus
allocation the class check has already searched the instance graph's
components.  Before that search, a component with more than 2(|C| - 1)
edges is turned away, since blocks of at most 4 vertices allow no more.  Any other
component with a simplicial vertex, one whose neighbourhood in the
component is a clique, as on the independent side of a split graph, is
valued by the fail-first search: the share search on the component
relabelled fewest neighbours first, ties by index, with the weights
permuted to match.  Each bundle then starts from the remaining vertex with
the fewest ways to grow, so a search that must prove its value fails sooner
(Haralick and Elliott, AIJ 1980).  One pass over the component's degrees
serves the DP's edge count and that order.  When the order is the index
order already, a relabelling would change nothing, and on a component with
no simplicial vertex, such as a complete multipartite graph, where every
vertex order is alike, it would cost more than it saves; both get the
index-order search, the share search on the component as it is.  Entries
are cached per graph and component, and clear_cache() drops them with the
records.

Share records are made here and nowhere else, all one way: a record builds
its witness the first time it is read, and keeps it.  One bundle is its
component.  Every split of two or more bundles, whatever gave its value,
comes from the canonical search told the value: it starts from
best = value - 1 and stops at the first partition worth the value, which is
the first optimum in canonical order, the witness the full search returns.
Should it find another value, GuaranteeViolationError names the canonical
search and the method of the cached entry, so each witness read
cross-checks the DP or the fail-first search against the canonical order.
A caller that reads only values, as the certificate does, runs no witness
search.

Shares are cached per utility function: the key is the graph, the int
weights, their scale and n, never the agent, and which share was asked for
only when the graph has two or more components.  The components are walked
only after the key without that flag misses, so a hit on a connected graph
costs the weight scaling alone.  A record names no agent, so agents of one
type share one search and receive the same record object.  The cache holds
at most `graphs._CACHE_LIMIT` records and drops the oldest first.

The max-min ratio search compares value/target across agents.  It gives each
agent ratio weights, her scaled utilities multiplied so that every agent's
value/target is her ratio-weight sum over one common denominator; the whole
search then compares ints.  A target-0 agent reads every bundle, the empty
one included, as the floor `top`, above every ratio-weight sum, so she never
sets the min.  When every agent has a positive target and all share one
ratio-weight row, the agents are one group: the rows are one positive
multiple of the first agent's scaled weights, which moves no optimum, so the
first optimum is her n-bundle share witness, read from the share cache, and
bundle i goes to agent i as the search would assign it.  Any other call runs
the search, and each partition it reaches, padded to n bundles, fills one
table over agent subsets from the full set down: value[used] is the best min
ratio the agents outside `used` reach on the bundles after the first |used|,
and pick[used] the first agent, in list order, to reach it with the next
bundle.  So each bundle goes to the first agent who keeps the min over it and
all later bundles at its best, not always the first optimal permutation, and
the first partition with the best value[0] wins.  The search closes the last
bundle in one step too, but has no ceiling: agents who value different goods
can all get more than the least of their total // n.  It has the share
search's two bundle cuts instead.  A partition beats the best score only if
every agent's ratio on her bundle is above it.  The bundles after S lie in
what S leaves and go to distinct agents, so a bundle S stops growing once
fewer agents than the bundles still to come value that remainder above best;
every superset of S leaves less.  And S is closed only when some agent values
S itself above best, a target-0 agent always; it keeps growing either way.
Both cuts drop only calls under which no partition beats best, which only
rises, so the partitions that raise it, and the first optimum with its
assignment, are those of the uncut search.

These routines are meant for desk-scale inputs; everything refuses graphs
with more than `MAX_VERTICES` vertices, and the ratio search also refuses
more than `MAX_VERTICES` agents, since each partition it reaches fills
tables of 2^n entries.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, sub

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
    _EXACT,
    check_targets,
    require_int,
)
from .blockdp import _plan, _threshold_share
from .graphs import _bits, _blocks, _components, _searches, _store

MAX_VERTICES = 14

# Share cache: key -> MmsRecord, one key per utility function.  Plan cache:
# (graph, component mask) -> (method name, value function).  Each holds at
# most `graphs._CACHE_LIMIT` entries, as the block search memo there does.
_cache: dict = {}
_plans: dict = {}


def clear_cache() -> None:
    """Empty the share and plan caches and the block search memo."""
    _cache.clear()
    _plans.clear()
    _searches.clear()


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


def _weights_for(agent: Agent, ids: list[str]) -> tuple[list[int], int]:
    """Int weights in vertex order, and the scale they were multiplied by.

    `scale` is the least common multiple of the utility denominators, and the
    weight of vertex v is `utility[v] * scale`, so a bundle's value is its
    weight sum divided by `scale`.  Every search cut assumes nonnegative
    weights, so a negative utility is rejected here, as is any but an int or
    a Fraction.
    """
    ratios = []
    for v in ids:
        if v not in agent.utility:
            raise InvalidInputError(f"no utility for vertex {v!r}")
        val = agent.utility[v]
        if type(val) not in _EXACT:
            raise InvalidInputError(f"agent {agent.id} has {val!r} at {v!r}, not an int or a Fraction")
        ratios.append(val.as_integer_ratio())
    scale = lcm(*(q for _, q in ratios))
    wts = [p * (scale // q) for p, q in ratios]
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
    the units of `wts` and parts a tuple of masks (no padding); None for
    both means only that no partition exists.

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

    Best starts at -1 without a floor and the running minimum at total + 1,
    so the state is all ints.  A bundle stops growing when it leaves less
    than best + 1 for each later bundle, and a level stops when best reaches
    its running minimum.  Neither cut drops a node that could recurse.  A
    remainder in two or more components is left at once, once best is 0 or
    more, when its components cannot hold the bundles still to come at
    best + 1 each.  That room cut drops recursive calls, but only calls
    under which no partition beats best, so the partitions that raise best,
    and with them every result, are those of the uncut enumeration.
    """
    ws = [wts[i] for i in _bits(full)]
    total = sum(ws)
    if floor is None:
        # Taking the heaviest vertex off lowers the bound while w * k > rest;
        # after the first vertex that fails, lighter ones only raise it.
        rest, k = total, n
        for w in sorted(ws, reverse=True):
            if w * k <= rest:
                break
            rest -= w
            k -= 1
        ceiling = rest // k
        best_val = -1
    else:
        ceiling = floor
        best_val = floor - 1
    best_parts = None

    def rec(remaining, parts_left, cur_min, acc, rem_weight):
        nonlocal best_val, best_parts
        if remaining == 0:
            # Fewer than n bundles, so the value is 0.  Only the first leaf
            # can get here: once best is 0 or more, grow skips a bundle that
            # leaves nothing for the bundles after it.
            if best_val < 0:
                best_val = 0
                best_parts = acc
                if best_val >= ceiling:
                    raise _Ceiling
            return
        comps = _components(adj, remaining)
        if len(comps) > parts_left:
            return
        if parts_left == 1:
            # Only the whole remainder, connected, closes the partition.
            best_val = rem_weight if rem_weight < cur_min else cur_min
            best_parts = acc + (remaining,)
            if best_val >= ceiling:
                raise _Ceiling
            return
        if best_val >= 0 and len(comps) > 1:
            # A completion that beats best puts parts_left bundles worth
            # need or more on the remainder, each inside one component and
            # at least one in each, so component C holds 1 to w(C) // need.
            need = best_val + 1
            room = 0
            for comp in comps:
                fit = sum(wts[i] for i in _bits(comp)) // need
                if not fit:
                    return
                room += fit
            if room < parts_left:
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
            if rem_weight - s_weight < (best_val + 1) * (parts_left - 1) or cur_min <= best_val:
                return
            close_min = s_weight if s_weight < cur_min else cur_min
            if close_min > best_val:
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
                if rem_weight - new_w >= (best_val + 1) * (parts_left - 1):
                    new_s = s_mask | b
                    grow(new_s, new_w, (cand | adj[i]) & remaining & ~new_s, local_ban)
                local_ban |= b

        grow(seed_mask, wts[seed], adj[seed] & remaining & ~seed_mask, 0)

    try:
        rec(full, n, total + 1, (), total)
    except _Ceiling:
        pass
    return (None, None) if best_parts is None else (best_val, best_parts)


def _has_simplicial(adj, mask: int) -> bool:
    """Whether some vertex's neighbourhood within `mask` is a clique."""
    rest = mask
    while rest:
        b = rest & -rest
        rest ^= b
        nb = adj[b.bit_length() - 1] & mask
        todo = nb
        while todo:
            c = todo & -todo
            # In a clique each member misses only itself among the others.
            if nb & ~adj[c.bit_length() - 1] != c:
                break
            todo ^= c
        else:
            return True
    return False


def _component_plan(graph: GoodsGraph, mask: int):
    """How one component is valued: a method's name and its value function.

    `mask` is the component's bitmask.  The function maps the graph's int
    weights and a bundle count k, 2 <= k <= |C|, to the component's k-bundle
    share.  The threshold DP serves components whose blocks have at most 4
    vertices.  Any other component with a simplicial vertex, whose
    fewest-neighbours-first order (ties by index) is not the index order, is
    searched relabelled in that order; the rest are searched in index order.
    Entries are cached per graph and component until clear_cache().
    """
    key = (graph, mask)
    if key in _plans:
        return _plans[key]
    adj = graph.neighbor_masks
    members = list(_bits(mask))
    degrees = [(adj[i] & mask).bit_count() for i in members]
    plan = None
    # A block of b <= 4 vertices has at most 2(b - 1) edges, and the b - 1
    # add up to |C| - 1 over the blocks, so a denser component is turned away
    # before its blocks are computed.  The degree sum counts each edge twice.
    if sum(degrees) <= 4 * (len(members) - 1):
        pairs, _ = _blocks(graph, mask)
        if all(block.bit_count() <= 4 for _, block in pairs):
            plan = _plan(pairs, adj)
    order = members
    if plan is None and _has_simplicial(adj, mask):
        # Fewest neighbours first; members ascend, so ties keep index order.
        order = [i for _, i in sorted(zip(degrees, members))]
    if plan is not None:
        entry = "the threshold DP", lambda wts, k: _threshold_share(plan, wts, sum(wts[i] for i in members), k)
    elif order != members:
        # Vertex order[p] of the graph is vertex p of the relabelled search.
        label = [0] * len(adj)
        for p, i in enumerate(order):
            label[i] = 1 << p
        view = []
        for i in order:
            nb = adj[i] & mask
            relabelled = 0
            while nb:
                b = nb & -nb
                nb ^= b
                relabelled |= label[b.bit_length() - 1]
            view.append(relabelled)
        full = (1 << len(order)) - 1
        entry = "the fail-first search", lambda wts, k: _minmax_partition_search(
            view, full, [wts[i] for i in order], k
        )[0]
    else:
        entry = "the index-order search", lambda wts, k: _minmax_partition_search(adj, mask, wts, k)[0]
    _store(_plans, key, entry)
    return entry


def _share(graph: GoodsGraph, agent: Agent, n: int, cover: bool) -> MmsRecord:
    """The n-bundle share over packings, or over partitions when `cover` is set.

    A component given k bundles is worth its k-bundle maximin share; covering
    V only asks every component to take at least one bundle.
    """
    if require_int(n, "n") < 1:
        raise InvalidInputError(f"need at least one bundle, got n={n}")
    _cap(graph)
    wts, scale = _weights_for(agent, list(graph.vertices))
    key = (graph, tuple(wts), scale, n)
    # Only a graph with at most one component stores this key, so a hit
    # needs no component walk.
    hit = _cache.get(key)
    if hit is not None:
        return hit
    adj = graph.neighbor_masks
    m = len(graph.vertices)
    comp_masks = _components(adj, (1 << m) - 1)
    if len(comp_masks) > 1:
        # Only here can covering V change the share.
        key = (cover,) + key
        hit = _cache.get(key)
        if hit is not None:
            return hit
    if cover and len(comp_masks) > n:
        raise UndefinedMmsError(
            f"graph has more than {n} components; no {n}-bundle partition covers it"
        )

    sizes = [mask.bit_count() for mask in comp_masks]
    least = 1 if cover else 0
    table: dict[tuple[int, int], int] = {}

    def comp_value(j: int, k: int) -> int:
        # The k-bundle share of component j, worked out on first use only;
        # one bundle is the component itself.
        state = (j, k)
        if state not in table:
            mask = comp_masks[j]
            if k == 1:
                table[state] = sum(wts[i] for i in _bits(mask))
            else:
                table[state] = _component_plan(graph, mask)[1](wts, k)
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
                mine = comp_value(j, k)
                if cand is None or mine < cand:
                    cand = mine
            if not best[0] or (best[1] is not None and (cand is None or cand > best[1])):
                best = (True, cand, (k,) + picks)
        memo[state] = best
        return best

    feasible, best_val, picks = dp(0, n)
    if feasible:
        value = Fraction(best_val, scale)
        splits = [(comp_masks[j], k, comp_value(j, k)) for j, k in enumerate(picks) if k]
    else:
        # More bundles than vertices: each vertex is a bundle of its own, the
        # rest are empty, and the share is 0.
        value = ZERO
        splits = [(1 << i, 1, wts[i]) for i in range(m)]

    def witness():
        # Every split of two or more bundles is the first partition in
        # canonical order worth the value found, whatever found it.
        parts = []
        for mask, k, v in splits:
            if k == 1:
                parts.append(mask)
                continue
            got, found = _minmax_partition_search(adj, mask, wts, k, floor=v)
            if got != v:
                raise GuaranteeViolationError(
                    f"the canonical floor search found {got}, {_component_plan(graph, mask)[0]} {v}"
                )
            parts += found
        parts += [0] * (n - len(parts))
        return tuple(frozenset(graph.vertices[i] for i in _bits(mask)) for mask in parts)

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
    unconstrained; the targets must pass `core.check_targets`.  More than
    `MAX_VERTICES` agents raise SizeLimitError.  Ties keep the first optimum
    in canonical enumeration order, so the result is deterministic.

    A bundle stops growing once fewer agents than the bundles still to come
    value what it leaves above the best min ratio so far, and is closed only
    when some agent values it above that.  Neither cut drops a partition
    that beats the best so far, so the first optimum stays the result.
    """
    if len(agents) > MAX_VERTICES:
        raise SizeLimitError(f"{len(agents)} agents, the ratio search's cap is {MAX_VERTICES}")
    if not agents:
        raise InvalidInputError("no agents to allocate to")
    _cap(graph)
    ids = graph.vertices
    full = (1 << len(ids)) - 1
    adj = graph.neighbor_masks
    if len(_components(adj, full)) > 1:
        raise StructuralError("graph is disconnected")
    check_targets(agents, targets)
    n = len(agents)
    tlist = [targets[a.id] for a in agents]
    scaled = [_weights_for(a, ids) for a in agents]
    # Ratio weights: value/target of agent a is (sum of rows[a]) / common.
    common = lcm(*(scale * t.numerator for (_, scale), t in zip(scaled, tlist) if t))
    rows = [
        [w * (t.denominator * common // (scale * t.numerator)) for w in wts] if t else [0] * len(ids)
        for (wts, scale), t in zip(scaled, tlist)
    ]
    if all(tlist) and all(row == rows[0] for row in rows):
        # One group: every row is the same positive multiple of the first
        # agent's scaled weights, so the first optimum is her share witness,
        # and the table would give bundle i to agent i.
        witness = _share(graph, agents[0], n, cover=True).witness
        return {a.id: bundle for a, bundle in zip(agents, witness)}
    # The floor of a target-0 agent: she reads every bundle, the empty one
    # included, as `top`, above every ratio weight another agent can reach.
    top = 1 + max(map(sum, rows))
    base = [0 if t else top for t in tlist]
    free = not all(tlist)
    # cols[i]: the ratio weight of vertex i for each agent.
    cols = list(zip(*rows))
    size = 1 << n

    best_score = -1
    best_parts = None
    best_pick = None

    def leaf(bundle_masks, bundle_vals):
        # value[used]: the best min ratio the agents outside `used` reach on
        # the bundles after the first |used|; pick[used]: the first agent who
        # reaches it with the next bundle.  Empty bundles pad the partition.
        nonlocal best_score, best_parts, best_pick
        ratio = [list(map(max, vals, base)) for vals in bundle_vals]
        ratio += [base] * (n - len(ratio))
        value = [top] * size
        pick = [0] * size
        for used in range(size - 2, -1, -1):
            row = ratio[used.bit_count()]
            best = -1
            for a in range(n):
                if not used >> a & 1:
                    cand = min(row[a], value[used | 1 << a])
                    if cand > best:
                        best = cand
                        pick[used] = a
            value[used] = best
        if value[0] > best_score:
            best_score = value[0]
            best_parts = bundle_masks + [0] * (n - len(bundle_masks))
            best_pick = pick

    def rec(remaining, parts_left, closed_masks, closed_vals, closed_best, rem_wt):
        if remaining == 0:
            leaf(closed_masks, closed_vals)
            return
        # Agent a can reach at most max(best closed bundle, everything left);
        # a target-0 agent's remaining weight stays `top`.
        if min(map(max, closed_best, rem_wt)) <= best_score:
            return
        if len(_components(adj, remaining)) > parts_left:
            return
        if parts_left == 1:
            # Only the whole remainder, connected, closes the partition, and
            # rem_wt is its weight for every agent.
            leaf(closed_masks + [remaining], closed_vals + [rem_wt])
            return
        seed = (remaining & -remaining).bit_length() - 1
        seed_mask = 1 << seed

        def grow(s_mask, s_vals, cand, banned):
            # The parts_left - 1 later bundles lie in what S leaves and go to
            # distinct agents, so a partition that beats best needs that many
            # agents who value the remainder above it; every superset of S
            # leaves less.  And S itself goes to an agent who values it above
            # best, as a target-0 agent values every bundle.
            left = list(map(sub, rem_wt, s_vals))
            if sorted(left)[1 - parts_left] <= best_score:
                return
            if free or max(s_vals) > best_score:
                rec(
                    remaining ^ s_mask,
                    parts_left - 1,
                    closed_masks + [s_mask],
                    closed_vals + [s_vals],
                    list(map(max, closed_best, s_vals)),
                    left,
                )
            live = cand & ~banned
            local_ban = banned
            while live:
                b = live & -live
                live ^= b
                i = b.bit_length() - 1
                new_s = s_mask | b
                vals = list(map(add, s_vals, cols[i]))
                grow(new_s, vals, (cand | adj[i]) & remaining & ~new_s, local_ban)
                local_ban |= b

        grow(seed_mask, cols[seed], adj[seed] & remaining & ~seed_mask, 0)

    rec(full, n, [], [], [0] * n, [sum(row) + b for row, b in zip(rows, base)])

    used = 0
    bundles = {}
    for mask in best_parts:
        a = best_pick[used]
        bundles[agents[a].id] = frozenset(ids[i] for i in _bits(mask))
        used |= 1 << a
    return bundles
