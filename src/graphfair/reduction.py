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

A lone agent skips both stages: she takes the witness bundle of her share,
which is the most valuable component whole.  Likewise a component that
serves one agent is hers whole, so the solvers only ever see two or more
agents.  Every allocator ends with the same check, finish_allocation, which
raises when a bundle falls short of alpha times its target.
"""

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .core import (
    Agent,
    Allocation,
    GoodsGraph,
    GuaranteeViolationError,
    Instance,
    StructuralError,
    Value,
)
from .graphs import connected_components
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
    """
    unmatched = sorted(a.id for a in inst.agents)
    pool = set(inst.graph.vertices)
    heavy: list[tuple[str, int]] = []
    while True:
        matched = None
        for aid in unmatched:
            agent = inst.agent(aid)
            cut = alpha * pmms_values[aid]
            best: str | None = None
            for v in sorted(pool):
                if agent.utility[v] >= cut and (best is None or agent.utility[v] > agent.utility[best]):
                    best = v
            if best is not None:
                matched = (best, aid)
                break
        if matched is None:
            break
        v, aid = matched
        heavy.append((v, aid))
        unmatched.remove(aid)
        pool.discard(v)
    residual = inst.graph.induced(frozenset(pool))
    components = [frozenset(c) for c in connected_components(residual)]
    return ReductionState(
        heavy=heavy,
        residual_agents=unmatched,
        components=components,
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
    share_records: Mapping[int, oracle.MmsRecord] | None = None,
) -> Allocation:
    """Full pipeline: peel, split into components, serve each via the solver.

    Guarantees every agent a connected bundle worth alpha times her share
    (pmms by default; callers may supply their own share records to thread
    externally fixed targets).  Without supplied records a lone agent takes
    the witness bundle of her pmms, the most valuable component whole.
    Input validation is the caller's job; the public allocators do it at
    entry, so recursive re-entries with partial agent sets stay cheap.
    """
    if share_records is None:
        share_records = {
            a.id: oracle.pmms(inst.graph, a, inst.n) for a in inst.agents
        }
        if inst.n == 1:
            aid = inst.agents[0].id
            rec = share_records[aid]
            return finish_allocation(inst.agents, {aid: rec.value}, {aid: rec.witness[0]}, alpha)
    shares = {aid: rec.value for aid, rec in share_records.items()}

    state = peel_heavy_vertices(inst, alpha, shares)

    bundles: dict[int, frozenset[str]] = {aid: frozenset({v}) for v, aid in state.heavy}
    pending = list(state.residual_agents)

    if not state.components:
        # Pool exhausted; every leftover agent has share 0 and takes nothing.
        for aid in pending:
            if shares[aid] > 0:
                raise StructuralError(
                    f"agent {aid} has positive share but the peel consumed all goods"
                )
            bundles[aid] = frozenset()
        pending = []

    capacities: list[int] = []
    for comp in state.components:
        # f(i, j) of the module docstring, for this component j.
        f = {aid: sum(1 for b in share_records[aid].witness if b and b <= comp) for aid in pending}
        ranked = sorted(pending, key=lambda aid: (-f[aid], aid))
        k = compute_kj([f[aid] for aid in ranked])
        capacities.append(k)
        if k == 0:
            continue
        chosen = [inst.agent(aid) for aid in ranked[:k]]
        for a in chosen:
            pending.remove(a.id)
        if k == 1:
            bundles[chosen[0].id] = comp
            continue
        sub_graph = inst.graph.induced(comp)
        targets = {a.id: oracle.mms(sub_graph, a, k).value for a in chosen}
        sub_alloc = connected_solver(sub_graph, chosen, targets)
        for a in chosen:
            bundles[a.id] = sub_alloc.bundle_of(a.id)
    if pending:
        raise StructuralError(
            f"agents {pending} were never routed to a component; "
            f"component capacities were {capacities}"
        )

    return finish_allocation(inst.agents, shares, bundles, alpha)
