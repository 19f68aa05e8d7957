"""Quarter-share allocation on complete multipartite graphs.

The vertex set splits along whole parts into two halves V1, V2 that both
hold at least n vertices; each agent points at the half she values more, so
her half is worth at least half her total, which is at least n/2 times her
target.  Each half is then carved by vertex id at thresholds target/4.  A
carved piece can sit inside a single part and be disconnected, but any one
vertex from the opposite half is adjacent to all of it, so every served
agent receives one such spare.  Boundedness (every single vertex below a
quarter target) keeps pieces small enough that both carves serve everyone
and enough opposite-side vertices survive to act as spares; a failed
assertion here means a bug, not a hard instance.
"""

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .carve import greedy_prefix_carve
from .core import (
    Agent,
    Allocation,
    ClassMismatchError,
    GoodsGraph,
    GuaranteeViolationError,
    Instance,
    Value,
    check_instance,
    check_targets,
)
from .graphs import recognize
from .reduction import allocate_reduction, finish_allocation

QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class BipartSplit:
    """A whole-part bisection of a complete multipartite vertex set.

    V1 takes the smallest parts, by (size, sorted members), just enough to
    reach n vertices; both halves then hold at least n vertices and every
    V1-V2 pair is adjacent.  N1 holds the agents who weakly prefer V1, N2 the
    rest.
    """

    v1: frozenset[str]
    v2: frozenset[str]
    n1: tuple[int, ...]
    n2: tuple[int, ...]


def make_bipart_split(
    parts: Sequence[frozenset[str]], agents: Sequence[Agent], n: int
) -> BipartSplit:
    parts = sorted(parts, key=lambda p: (len(p), sorted(p)))
    cum = 0
    ell = None
    for idx, p in enumerate(parts):
        cum += len(p)
        if cum >= n:
            ell = idx + 1
            break
    if ell is None or ell == len(parts):
        raise GuaranteeViolationError(
            "no whole-part split leaves n vertices on both sides"
        )
    v1: frozenset[str] = frozenset().union(*parts[:ell])
    v2: frozenset[str] = frozenset().union(*parts[ell:])
    if len(v1) < n or len(v2) < n:
        raise GuaranteeViolationError("half sizes fell below the agent count")
    in_v1 = [a.value(v1) >= a.value(v2) for a in agents]
    n1 = tuple(a.id for a, side in zip(agents, in_v1) if side)
    n2 = tuple(a.id for a, side in zip(agents, in_v1) if not side)
    return BipartSplit(v1=v1, v2=v2, n1=n1, n2=n2)


def _carve_side(
    side: frozenset[str],
    members: list[Agent],
    targets: Mapping[int, Value],
) -> tuple[list[tuple[int, frozenset[str]]], list[str]]:
    """Carve one half by vertex id; check pieces stay below half targets.

    Returns served (agent id, piece) pairs in serving order plus leftover
    vertices.  Raises when a piece reaches half of a then-active agent's
    target or when some agent stays unserved; bounded inputs rule both out.
    """
    order = sorted(side)
    result = greedy_prefix_carve(
        order,
        [a.id for a in members],
        {a.id: QUARTER * targets[a.id] for a in members},
        {a.id: a.utility for a in members},
    )
    active = sorted(a.id for a in members)
    by_id = {a.id: a for a in members}
    for winner, piece in result.assignments:
        for aid in active:
            if targets[aid] > 0 and 2 * by_id[aid].value(piece) >= targets[aid]:
                raise GuaranteeViolationError(
                    f"carved piece reached half of agent {aid}'s target"
                )
        active.remove(winner)
    if active:
        raise GuaranteeViolationError(f"agents {active} were not served by their half")
    return list(result.assignments), list(result.leftover)


def allocate_bounded_multipartite(
    graph: GoodsGraph,
    parts: Sequence[frozenset[str]],
    agents: Sequence[Agent],
    targets: Mapping[int, Value],
) -> Allocation:
    """Serve every agent a connected bundle worth a quarter of her target.

    Preconditions: `parts` witnesses the graph as connected complete
    multipartite, there are at least two agents and at least 5 vertices per
    agent, and every vertex is worth less than a quarter target to every
    agent.  The bundles output partition the whole vertex set.

    The reduction meets the vertex count.  It calls here with a component
    C, the k agents routed to it, and each one's k-bundle mms of C as her
    target.  k bundles of her share witness lie in C, so her target is at
    least her share, which is positive (a zero-share agent peels while goods
    remain).  She values every leftover vertex below a quarter of her share,
    so below a quarter of her target.  Each of the k bundles of her mms of C
    is worth her target, so it needs five or more vertices: C has at least 5k.
    """
    check_targets(agents, targets)
    n = len(agents)
    if n < 2 or len(graph) < 5 * n:
        raise GuaranteeViolationError(
            f"need two or more agents and 5 vertices per agent, "
            f"have {n} agents and {len(graph)} vertices"
        )
    split = make_bipart_split(parts, agents, n)
    by_id = {a.id: a for a in agents}
    for side, member_ids in ((split.v1, split.n1), (split.v2, split.n2)):
        for aid in member_ids:
            if 2 * by_id[aid].value(side) < n * targets[aid]:
                raise GuaranteeViolationError(
                    f"agent {aid} values her half below {n}/2 of her target"
                )

    pieces1, left1 = _carve_side(split.v1, [by_id[i] for i in split.n1], targets)
    pieces2, left2 = _carve_side(split.v2, [by_id[i] for i in split.n2], targets)

    bundles: dict[int, set[str]] = {}
    for pieces, spare_pool in ((pieces1, left2), (pieces2, left1)):
        for aid, piece in pieces:
            bundles[aid] = set(piece)
            if not spare_pool:
                raise GuaranteeViolationError(f"no spare vertex left for agent {aid}")
            spare = min(spare_pool)
            spare_pool.remove(spare)
            bundles[aid].add(spare)
    leftovers = sorted(left1 + left2)
    dump = min(bundles)
    bundles[dump].update(leftovers)

    out = {aid: frozenset(b) for aid, b in bundles.items()}
    return finish_allocation(agents, targets, out, QUARTER)


def allocate_multipartite(inst: Instance) -> Allocation:
    """Allocate with guarantee 1/4 of each agent's share over packings.

    The instance graph must be connected complete multipartite with at least
    two parts.
    """
    check_instance(inst)
    witness = recognize(inst.graph)
    # Two or more parts make the graph connected: every vertex is adjacent
    # to every vertex outside its own part.
    if witness.parts is None or len(witness.parts) < 2:
        raise ClassMismatchError("graph is not connected complete multipartite")

    def solver(
        graph: GoodsGraph, agents: Sequence[Agent], ts: Mapping[int, Value]
    ) -> Allocation:
        # An induced subgraph of a complete multipartite graph is complete
        # multipartite, and its parts are the whole graph's restricted to it.
        vertices = frozenset(graph.vertices)
        parts = [p & vertices for p in witness.parts if p & vertices]
        return allocate_bounded_multipartite(graph, parts, agents, ts)

    return allocate_reduction(inst, QUARTER, solver)
