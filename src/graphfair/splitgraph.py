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

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .core import (
    Agent,
    Allocation,
    ClassMismatchError,
    GoodsGraph,
    GuaranteeViolationError,
    Instance,
    InvalidInputError,
    Packing,
    StructuralError,
    Value,
    ZERO,
    validate_instance,
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


@dataclass
class OwnedPacking:
    """One connected packing owned by a slot of the tournament.

    The owner's utility decides which contested vertex the packing keeps in
    each merge round.  Bundles are mutable sets while the tournament runs.
    """

    slot: int
    bundles: list[set[str]]

    def copy(self) -> "OwnedPacking":
        return OwnedPacking(slot=self.slot, bundles=[set(b) for b in self.bundles])


def merge_packings(
    left: list[OwnedPacking],
    right: list[OwnedPacking],
    utilities: Sequence[Mapping[str, Value]],
    independent: frozenset[str],
) -> list[OwnedPacking]:
    """Resolve I-vertices contested between two packing sequences.

    A sequence lists the 2^ell packings left after ell merge rounds, and
    each I-vertex sits in exactly one of them.  Each I-vertex must therefore
    appear in exactly two packings of the concatenation,
    one per side.  The resolution walks a chain: the current bundle keeps
    its most valuable (by its owner's utility, ties to the smaller id)
    contested vertex, the twin bundle holding the same vertex loses it and
    becomes current, so a bundle never loses twice without keeping once in
    between.  Value bounds are the caller's business; this only rewires.
    """
    packs = [p.copy() for p in left + right]
    locs: dict[str, list[tuple[int, int]]] = {}
    for pi, pack in enumerate(packs):
        for bi, bundle in enumerate(pack.bundles):
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
        if current is None or not (packs[current[0]].bundles[current[1]] & contested):
            current = next(
                (pi, bi)
                for pi, pack in enumerate(packs)
                for bi, bundle in enumerate(pack.bundles)
                if bundle & contested
            )
        pi, bi = current
        util = utilities[packs[pi].slot]
        v = min(packs[pi].bundles[bi] & contested, key=lambda x: (-util[x], x))
        twin = next(loc for loc in locs[v] if loc != current)
        packs[twin[0]].bundles[twin[1]].discard(v)
        contested.discard(v)
        current = twin

    return packs


def _bundle_value(util: Mapping[str, Value], bundle) -> Value:
    total = ZERO
    for v in bundle:
        total += util[v]
    return total


def build_packing_sequence(
    split_pair: tuple[frozenset[str], frozenset[str]],
    type_utilities: Sequence[Mapping[str, Value]],
    mms_partitions: Sequence[Packing],
) -> list[OwnedPacking]:
    """Run the full tournament over 2^k slots and check the retention floor.

    Slot s starts from its own copy of mms_partitions[s].  After round ell
    every bundle must still be worth, to its owner, at least beta(k, ell)
    times the owner's original minimum bundle value; a miss means a bug in
    the merge or an unbounded input and raises.
    """
    count = len(type_utilities)
    if count == 0 or count & (count - 1):
        raise InvalidInputError(f"slot count {count} is not a power of two")
    k = count.bit_length() - 1
    if len(mms_partitions) != count:
        raise InvalidInputError("need exactly one witness partition per slot")
    _, independent = split_pair

    floors: list[Value] = []
    seqs: list[list[OwnedPacking]] = []
    for s in range(count):
        bundles = [set(vs) for _, vs in mms_partitions[s].bundles]
        floors.append(min(_bundle_value(type_utilities[s], b) for b in bundles))
        seqs.append([OwnedPacking(s, bundles)])

    level = 0
    while len(seqs) > 1:
        level += 1
        seqs = [
            merge_packings(seqs[i], seqs[i + 1], type_utilities, independent)
            for i in range(0, len(seqs), 2)
        ]
        for seq in seqs:
            _check_sequence(seq, type_utilities, independent, beta(k, level), floors)
    final = seqs[0]
    for pos, pack in enumerate(final):
        if pack.slot != pos:
            raise StructuralError("tournament reordered the packing slots")
    return final


def _check_sequence(
    seq: list[OwnedPacking],
    utilities: Sequence[Mapping[str, Value]],
    independent: frozenset[str],
    scale: Fraction,
    floors: Sequence[Value],
) -> None:
    seen: set[str] = set()
    for pack in seq:
        for bundle in pack.bundles:
            kept = bundle & independent
            dup = kept & seen
            if dup:
                raise StructuralError(f"vertices {sorted(dup)} kept in two bundles")
            seen |= kept
            if _bundle_value(utilities[pack.slot], bundle) < scale * floors[pack.slot]:
                raise GuaranteeViolationError(
                    f"a bundle of slot {pack.slot} fell below {scale} of its floor"
                )
    missing = independent - seen
    if missing:
        raise StructuralError(f"vertices {sorted(missing)} lost from every bundle")


@dataclass(frozen=True)
class KernelInstance:
    """The contracted complete-graph instance plus the data to undo it.

    anchors maps each I-vertex to the clique vertex absorbing its value;
    slot_of names each agent's own packing inside the final sequence.
    """

    graph: GoodsGraph
    agents: tuple[Agent, ...]
    anchors: Mapping[str, str]
    slot_of: Mapping[int, int]


def contract_to_kernel(
    graph: GoodsGraph,
    split_pair: tuple[frozenset[str], frozenset[str]],
    seq: list[OwnedPacking],
    agents: Sequence[Agent],
) -> KernelInstance:
    """Fold every surviving I-vertex into a clique neighbour in its bundle.

    Each agent's modified utility folds only the I-vertices sitting in her
    own packing, so the clique parts of her bundles are worth exactly what
    the full bundles were.  The anchor map itself is global: expansion later
    hands every I-vertex to whoever receives its anchor.
    """
    clique, independent = split_pair
    anchors: dict[str, str] = {}
    home_packing: dict[str, int] = {}
    for pi, pack in enumerate(seq):
        for bundle in pack.bundles:
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
    slot_of: dict[int, int] = {}
    for a in agents:
        s = slot_for_type[a.type_id]
        slot_of[a.id] = s
        mod = {w: a.utility[w] for w in kernel_graph.vertices}
        for v, pi in home_packing.items():
            if pi == s:
                mod[anchors[v]] = mod[anchors[v]] + a.utility[v]
        folded.append(Agent(id=a.id, type_id=a.type_id, utility=mod))
    return KernelInstance(
        graph=kernel_graph, agents=tuple(folded), anchors=anchors, slot_of=slot_of
    )


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
    for a in agents:
        if targets[a.id] < 0:
            raise InvalidInputError(f"negative target for agent {a.id}")
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
    type_utilities = [rep[t].utility for t in slots]
    mms_partitions = [records[t].witness for t in slots]
    seq = build_packing_sequence(split_pair, type_utilities, mms_partitions)
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
    problems = validate_instance(inst)
    if problems:
        raise InvalidInputError("; ".join(problems))
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
