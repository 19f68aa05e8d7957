"""Reduce a general instance to bounded connected subproblems.

Two stages.  First a peel: while some agent still values a single unassigned
vertex at alpha times her share, the smallest-id such agent takes her best
such vertex and leaves.  Agents with share 0 accept any vertex, so they peel
whenever goods remain; if they are still active afterwards the pool must be
empty and they receive empty bundles, which a zero share accepts.

Second, the leftover graph splits into components and the remaining agents
are distributed over them by witness counting: f(i, j) counts how many
bundles of agent i's share witness sit entirely inside component j, and
component j serves the k_j agents whose sorted counts stay at or above their
rank.  Each such agent values every leftover vertex below alpha times her
component target, which is exactly the boundedness the per-component solvers
need.

When the peel leaves a single component the count has a known answer, as
long as every leftover agent values at least n vertices above 0.  That
count test is "her pmms value is positive" without a share search: n
positive singletons are n disjoint connected bundles worth more than 0, and
n disjoint bundles each worth more than 0 hold n distinct positive
vertices, since utilities are nonnegative after the entry checks and a
fold keeps them so.  Her witness then holds n disjoint, nonempty,
connected bundles; the h peeled vertices meet at most h of them, so the
other n - h, one per leftover agent, lie in the pool, and a connected
bundle of a one-component pool lies in that component.  So every f is at
least the number of leftover agents, the component serves all of them, and
no witness is read.  The witnesses are read, and an agent whom no
component takes is an error, only with two or more components or a
leftover agent who values fewer than n vertices above 0.  Either way a
solver gets its agents in id order.

A lone agent skips both stages: she takes the witness bundle of her share,
which is the most valuable component whole.  Likewise a component that
serves one agent is hers whole, so the solvers only ever see two or more
agents.  Every allocator ends with the same check, finish_allocation, which
raises when a bundle falls short of alpha times its target.

A caller may fix the targets, as the block-cactus absorb does: they replace
the shares in the peel and in the final check.  Such a call builds no share
record up front.  It computes the pmms record of a leftover agent only when
the witness counts read it, so an agent the peel serves, and every agent
of a single component that passes the count test, costs no share search.
Without fixed targets every agent's record is built first, since the
values are the targets and a lone agent takes her witness.
"""

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from .core import (
    Agent,
    Allocation,
    GoodsGraph,
    GuaranteeViolationError,
    Instance,
    StructuralError,
    Value,
)
from .graphs import _bits, _components, _vertex_mask
from . import oracle

# A connected solver takes a connected graph, the two or more agents to serve
# on it and a target per agent, and returns an Allocation whose bundles meet
# alpha times the targets.
ConnectedSolver = Callable[[GoodsGraph, Sequence[Agent], Mapping[int, Value]], Allocation]


@dataclass
class ReductionState:
    """Peel outcome: heavy picks, leftover agents, leftover components.

    heavy lists (vertex, agent) pairs in pick order.
    """

    heavy: list[tuple[str, int]]
    residual_agents: list[int]
    components: list[frozenset[str]]


def peel_heavy_vertices(
    inst: Instance, alpha: Value, pmms_values: Mapping[int, Value]
) -> ReductionState:
    """Repeatedly match the smallest-id agent who accepts a single vertex.

    An agent accepts vertex v when u_i(v) >= alpha * pmms_values[i]; she
    takes her highest-valued acceptable vertex, smallest id on ties.  The
    result is maximal: no leftover agent accepts any leftover vertex.

    The pool only shrinks, so an agent who accepts nothing once never will,
    and one pass in id order makes the picks of repeated smallest-id scans.
    """
    graph = inst.graph
    pool = set(graph.vertices)
    heavy: list[tuple[str, int]] = []
    unmatched: list[int] = []
    for agent in sorted(inst.agents, key=lambda a: a.id):
        cut = alpha * pmms_values[agent.id]
        # Graph vertices are sorted and max keeps the first maximum.
        acceptable = [v for v in graph.vertices if v in pool and agent.utility[v] >= cut]
        best = max(acceptable, key=agent.utility.__getitem__, default=None)
        if best is None:
            unmatched.append(agent.id)
        else:
            heavy.append((best, agent.id))
            pool.discard(best)
    left = _components(graph.neighbor_masks, _vertex_mask(graph, pool))
    return ReductionState(
        heavy=heavy,
        residual_agents=unmatched,
        components=[frozenset(graph.vertices[i] for i in _bits(comp)) for comp in left],
    )


def compute_kj(sorted_f: Sequence[int]) -> int:
    """Largest p with sorted_f[p-1] >= p; counts must be nonincreasing."""
    k = 0
    for p, c in enumerate(sorted_f, start=1):
        if c >= p:
            k = p
    return k


def finish_allocation(
    agents: Sequence[Agent],
    targets: Mapping[int, Value],
    bundles: Mapping[int, frozenset[str]],
    alpha: Value,
) -> Allocation:
    """Check every agent's bundle against alpha times her target and wrap up.

    A bundle below alpha times its target means a bug, not a hard instance,
    so it raises GuaranteeViolationError.  A zero target accepts anything.
    """
    for a in agents:
        got = a.value(bundles.get(a.id, frozenset()))
        t = targets[a.id]
        if got < alpha * t:
            raise GuaranteeViolationError(
                f"agent {a.id} received {got}, below {alpha} of target {t}"
            )
    pairs = tuple((aid, bundles[aid]) for aid in sorted(bundles))
    return Allocation(bundles=pairs, target_alpha=alpha)


def allocate_reduction(
    inst: Instance,
    alpha: Value,
    connected_solver: ConnectedSolver,
    targets: Mapping[int, Value] | None = None,
) -> Allocation:
    """Full pipeline: peel, split into components, serve each via the solver.

    Guarantees every agent a connected bundle worth alpha times her target,
    her pmms unless `targets` fixes it.  Without targets every agent's pmms
    record is built first, and a lone agent takes its witness bundle, the
    most valuable component whole.  With targets no record is built until
    the witness counts need one, and then only for the leftover agents.
    A single leftover component serves every leftover agent without reading
    a witness when each of them values at least n vertices above 0, which
    holds exactly when her pmms value is positive (the counting argument of
    the module docstring); otherwise the witness counts route them.  The
    solver gets each component's agents in id order.
    Input validation is the caller's job; the public allocators do it at
    entry, so recursive re-entries with partial agent sets stay cheap.
    """
    graph = inst.graph
    records: dict[int, oracle.MmsRecord] = {}
    if targets is None:
        records = {a.id: oracle.pmms(graph, a, inst.n) for a in inst.agents}
        if inst.n == 1:
            aid = inst.agents[0].id
            rec = records[aid]
            return finish_allocation(inst.agents, {aid: rec.value}, {aid: rec.witness[0]}, alpha)
        targets = {aid: rec.value for aid, rec in records.items()}

    def witness(aid: int) -> tuple[frozenset[str], ...]:
        # Under fixed targets a leftover agent's share is first computed here.
        if aid not in records:
            records[aid] = oracle.pmms(graph, inst.agent(aid), inst.n)
        return records[aid].witness

    state = peel_heavy_vertices(inst, alpha, targets)

    bundles: dict[int, frozenset[str]] = {aid: frozenset({v}) for v, aid in state.heavy}
    pending = list(state.residual_agents)
    # One component, and every leftover agent values n vertices above 0 (a
    # nonzero utility is positive), so her pmms is positive: every f(i, j)
    # is at least |pending|, and the component takes everyone (module
    # docstring).
    lone = len(state.components) == 1 and all(
        sum(1 for v in graph.vertices if a.utility[v]) >= inst.n for a in map(inst.agent, pending)
    )
    capacities: list[int] = []
    for comp in state.components:
        if lone:
            chosen_ids = list(pending)
        else:
            # f(i, j) of the module docstring, for this component j.
            f = {aid: sum(1 for b in witness(aid) if b and b <= comp) for aid in pending}
            ranked = sorted(pending, key=lambda aid: (-f[aid], aid))
            chosen_ids = sorted(ranked[: compute_kj([f[aid] for aid in ranked])])
        k = len(chosen_ids)
        capacities.append(k)
        if k == 0:
            continue
        chosen = [inst.agent(aid) for aid in chosen_ids]
        for a in chosen:
            pending.remove(a.id)
        if k == 1:
            bundles[chosen[0].id] = comp
            continue
        sub_graph = graph.induced(comp)
        sub_targets = {a.id: oracle.mms(sub_graph, a, k).value for a in chosen}
        sub_alloc = connected_solver(sub_graph, chosen, sub_targets)
        for a in chosen:
            bundles[a.id] = sub_alloc.bundle_of(a.id)
    # A zero-target agent accepts any vertex, so the peel leaves her over
    # only once the pool is empty, and she takes nothing.
    for aid in pending:
        if targets[aid] > 0:
            raise StructuralError(
                f"agent {aid} was never routed to a component; "
                f"component capacities were {capacities}"
            )
        bundles[aid] = frozenset()

    return finish_allocation(inst.agents, targets, bundles, alpha)
