"""Allocation on connected split graphs.

A split graph's vertices divide into a clique K and an independent set I.
Each agent type contributes an optimal connected n-partition of the graph;
a balanced tournament merges these packings pairwise until every I-vertex
survives in exactly one bundle across all of them, losing at most half of a
bundle's value (plus one vertex) per round.  Folding each surviving
I-vertex into a clique neighbour of its own bundle turns the problem into
maximin share on a complete graph, which an exact solve settles at ratio
3/4 or better; unfolding then hands out connected bundles.

With p agent types and k = ceil(log2 p) merge rounds the end-to-end
guarantee is alpha = 3/(7*2^k - 3) of each agent's share.
"""

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import (
    Agent,
    Allocation,
    ClassMismatchError,
    GoodsGraph,
    GuaranteeViolationError,
    Instance,
    InvalidInputError,
    StructuralError,
    Value,
    check_instance,
    check_targets,
)
from .graphs import recognize, split_partition
from .reduction import allocate_reduction, finish_allocation
from . import oracle

THREE_QUARTERS = Fraction(3, 4)


def split_alpha(k: int) -> Fraction:
    """The guarantee after k merge rounds: 3/(7*2^k - 3)."""
    if k < 0:
        raise InvalidInputError("round count must be nonnegative")
    return Fraction(3, 7 * 2**k - 3)


def beta(k: int, ell: int) -> Fraction:
    """Value-retention floor after ell of k merge rounds.

    beta(k, 0) = 1 and each round keeps (beta - alpha)/2, so the floor after
    the final round is beta(k, k) = 4/(7*2^k - 3).
    """
    if not 0 <= ell <= k:
        raise InvalidInputError(f"level {ell} outside 0..{k}")
    a = split_alpha(k)
    b = Fraction(1)
    for _ in range(ell):
        b = (b - a) / 2
    return b


def merge_packings(
    left: list[list[set[str]]],
    right: list[list[set[str]]],
    owners: Sequence[Agent],
    independent: frozenset[str],
) -> list[list[set[str]]]:
    """Resolve I-vertices contested between two packing sequences.

    A packing is its list of bundle sets, and owners[i] owns packing i of
    left + right.  A sequence lists the 2^ell packings left after ell merge
    rounds, and each I-vertex sits in exactly one of them.  Each I-vertex
    must therefore appear in exactly two packings of the concatenation,
    one per side.  The resolution walks a chain: the current bundle keeps
    its most valuable (by its owner's utility, ties to the smaller id)
    contested vertex, the twin bundle holding the same vertex loses it and
    becomes current, so a bundle never loses twice without keeping once in
    between.  Value bounds are the caller's business; this only rewires.
    """
    packs = [[set(b) for b in pack] for pack in left + right]
    locs: dict[str, list[tuple[int, int]]] = {}
    for pi, pack in enumerate(packs):
        for bi, bundle in enumerate(pack):
            for v in bundle & independent:
                locs.setdefault(v, []).append((pi, bi))
    for v in sorted(independent):
        if len(locs.get(v, ())) != 2:
            raise StructuralError(
                f"vertex {v!r} appears in {len(locs.get(v, ()))} packings, expected 2"
            )

    contested = set(locs)
    current: tuple[int, int] | None = None
    while contested:
        if current is None or not (packs[current[0]][current[1]] & contested):
            current = next(
                (pi, bi)
                for pi, pack in enumerate(packs)
                for bi, bundle in enumerate(pack)
                if bundle & contested
            )
        pi, bi = current
        util = owners[pi].utility
        v = min(packs[pi][bi] & contested, key=lambda x: (-util[x], x))
        twin = next(loc for loc in locs[v] if loc != current)
        packs[twin[0]][twin[1]].discard(v)
        contested.discard(v)
        current = twin

    return packs


def build_packing_sequence(
    split_pair: tuple[frozenset[str], frozenset[str]],
    owners: Sequence[Agent],
    mms_partitions: Sequence[Sequence[frozenset[str]]],
) -> list[list[set[str]]]:
    """Run the full tournament over 2^k slots and check the retention floor.

    A slot is a position: slot s starts from its own copy of
    mms_partitions[s], owners[s] owns it, and it stays at position s.  Round
    ell merges adjacent blocks of 2^(ell-1) packings.  After it every bundle
    must still be worth, to its owner, at least beta(k, ell) times the
    owner's original minimum bundle value; a miss means a bug in the merge
    or an unbounded input and raises.
    """
    count = len(owners)
    if count == 0 or count & (count - 1):
        raise InvalidInputError(f"slot count {count} is not a power of two")
    k = count.bit_length() - 1
    if len(mms_partitions) != count:
        raise InvalidInputError("need exactly one witness partition per slot")
    _, independent = split_pair

    packs = [[set(vs) for vs in witness] for witness in mms_partitions]
    floors = [min(o.value(b) for b in pack) for o, pack in zip(owners, packs)]
    for level in range(1, k + 1):
        width = 2 ** (level - 1)
        for lo in range(0, count, 2 * width):
            mid, hi = lo + width, lo + 2 * width
            packs[lo:hi] = merge_packings(
                packs[lo:mid], packs[mid:hi], owners[lo:hi], independent
            )
            _check_block(packs[lo:hi], lo, owners, floors, independent, beta(k, level))
    return packs


def _check_block(
    block: list[list[set[str]]],
    first_slot: int,
    owners: Sequence[Agent],
    floors: Sequence[Value],
    independent: frozenset[str],
    scale: Fraction,
) -> None:
    seen: set[str] = set()
    for s, pack in enumerate(block, first_slot):
        for bundle in pack:
            kept = bundle & independent
            dup = kept & seen
            if dup:
                raise StructuralError(f"vertices {sorted(dup)} kept in two bundles")
            seen |= kept
            if owners[s].value(bundle) < scale * floors[s]:
                raise GuaranteeViolationError(
                    f"a bundle of slot {s} fell below {scale} of its floor"
                )
    missing = independent - seen
    if missing:
        raise StructuralError(f"vertices {sorted(missing)} lost from every bundle")


@dataclass(frozen=True)
class KernelInstance:
    """The contracted complete-graph instance plus the data to undo it.

    anchors maps each I-vertex to the clique vertex absorbing its value.
    """

    graph: GoodsGraph
    agents: tuple[Agent, ...]
    anchors: Mapping[str, str]


def contract_to_kernel(
    graph: GoodsGraph,
    split_pair: tuple[frozenset[str], frozenset[str]],
    seq: list[list[set[str]]],
    agents: Sequence[Agent],
) -> KernelInstance:
    """Fold every surviving I-vertex into a clique neighbour in its bundle.

    Position s of seq is slot s, which belongs to the s-th agent type in
    sorted order.  Each agent's modified utility folds only the I-vertices
    sitting in her own packing, so the clique parts of her bundles are worth
    exactly what the full bundles were.  The anchor map itself is global:
    expansion later hands every I-vertex to whoever receives its anchor.
    """
    clique, independent = split_pair
    anchors: dict[str, str] = {}
    home_packing: dict[str, int] = {}
    for pi, pack in enumerate(seq):
        for bundle in pack:
            for v in sorted(bundle & independent):
                if v in anchors:
                    raise StructuralError(f"vertex {v!r} sits in two bundles")
                hooks = graph.neighbors(v) & bundle
                if not hooks:
                    raise GuaranteeViolationError(
                        f"vertex {v!r} has no clique neighbour inside its bundle"
                    )
                anchors[v] = min(hooks)
                home_packing[v] = pi
    missing = independent - anchors.keys()
    if missing:
        raise StructuralError(f"vertices {sorted(missing)} not in any bundle")

    types = sorted({a.type_id for a in agents})
    slot_for_type = {t: i for i, t in enumerate(types)}
    kernel_graph = GoodsGraph.build(sorted(clique), combinations(sorted(clique), 2))

    folded: list[Agent] = []
    for a in agents:
        s = slot_for_type[a.type_id]
        mod = {w: a.utility[w] for w in kernel_graph.vertices}
        for v, pi in home_packing.items():
            if pi == s:
                mod[anchors[v]] = mod[anchors[v]] + a.utility[v]
        folded.append(Agent(id=a.id, type_id=a.type_id, utility=mod))
    return KernelInstance(graph=kernel_graph, agents=tuple(folded), anchors=anchors)


def _allocate_bounded_split(
    graph: GoodsGraph,
    agents: Sequence[Agent],
    targets: Mapping[int, Value],
    k: int,
) -> Allocation:
    """Serve two or more bounded agents on a connected split graph.

    targets[i] must equal agent i's maximin share on this very graph with
    all present agents; the reduction guarantees that and the witnesses are
    recomputed from the same oracle, so a mismatch raises.
    """
    check_targets(agents, targets)
    n = len(agents)

    split_pair = split_partition(graph)
    if split_pair is None:
        raise StructuralError("subgraph lost the split structure")

    types = sorted({a.type_id for a in agents})
    if len(types) > 2**k:
        raise StructuralError(f"{len(types)} agent types exceed the {2**k} slots")
    rep: dict[int, Agent] = {}
    for a in sorted(agents, key=lambda x: x.id):
        rep.setdefault(a.type_id, a)
    records = {t: oracle.mms(graph, rep[t], n) for t in types}
    for a in agents:
        if targets[a.id] != records[a.type_id].value:
            raise GuaranteeViolationError(
                f"target for agent {a.id} differs from her share on this component"
            )

    slots = types + [types[-1]] * (2**k - len(types))
    owners = [rep[t] for t in slots]
    mms_partitions = [records[t].witness for t in slots]
    seq = build_packing_sequence(split_pair, owners, mms_partitions)
    kern = contract_to_kernel(graph, split_pair, seq, agents)

    kernel_targets = {a.id: oracle.mms(kern.graph, a, n).value for a in kern.agents}
    solved = oracle.max_min_ratio_allocation(kern.graph, list(kern.agents), kernel_targets)
    finish_allocation(kern.agents, kernel_targets, solved, THREE_QUARTERS)

    bundles: dict[int, frozenset[str]] = {}
    for a in agents:
        core_part = solved[a.id]
        grown = set(core_part)
        grown.update(v for v, w in kern.anchors.items() if w in core_part)
        bundles[a.id] = frozenset(grown)
    return finish_allocation(agents, targets, bundles, split_alpha(k))


def allocate_split(inst: Instance) -> Allocation:
    """Allocate on a connected split graph.

    The guarantee depends on the number of distinct agent types p present in
    the instance: alpha = 3/(7*2^k - 3) with k = ceil(log2 p).  Identical
    agents (p = 1) get 3/4.
    """
    check_instance(inst)
    witness = recognize(inst.graph)
    if not (witness.has("connected") and witness.has("split")):
        raise ClassMismatchError("graph is not a connected split graph")

    p = len({a.type_id for a in inst.agents})
    k = (p - 1).bit_length()

    def solver(
        graph: GoodsGraph, agents: Sequence[Agent], ts: Mapping[int, Value]
    ) -> Allocation:
        return _allocate_bounded_split(graph, agents, ts, k)

    return allocate_reduction(inst, split_alpha(k), solver)
