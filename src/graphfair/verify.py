"""Independent certification of allocations.

The checker trusts nothing from the allocators: it re-derives structure
from the graph and measures every bundle against maximin shares supplied
by the caller (or recomputed from the oracle when omitted).  Exact
rationals throughout, so a certificate either passes or it does not.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import Allocation, Instance, Value
from .graphs import is_connected_subset
from . import oracle


@dataclass(frozen=True)
class Certificate:
    """The outcome of checking one allocation at one target ratio.

    per_agent rows are (agent id, bundle, bundle value, mms, ratio) sorted
    by agent id.  Agents with mms 0 are satisfied by anything, including an
    empty bundle, and score ratio 1.
    """

    alpha_target: Value
    per_agent: tuple[tuple[int, frozenset[str], Value, Value, Value], ...]
    min_ratio: Value
    structural_ok: bool
    notes: tuple[str, ...]

    @property
    def passes(self) -> bool:
        return self.structural_ok and self.min_ratio >= self.alpha_target


def check_allocation(
    inst: Instance,
    alloc: Allocation,
    alpha: Value,
    mms_records: Mapping[int, oracle.MmsRecord] | None = None,
) -> Certificate:
    """Certify `alloc` against exact shares at guarantee level `alpha`.

    Structural requirements: bundle labels are known agent ids and unique,
    every agent appears (an absent agent is a structural violation), bundles
    are disjoint, use only known vertices, and induce connected subgraphs.
    Coverage of all vertices is not required; an allocation may leave goods
    on the table without failing.
    """
    notes: list[str] = []
    known = {a.id for a in inst.agents}
    labels = [label for label, _ in alloc.bundles]
    for label in labels:
        if label not in known:
            notes.append(f"bundle label {label} is not an agent id")
    if len(set(labels)) != len(labels):
        notes.append("an agent id labels two bundles")
    for aid in sorted(known):
        if aid not in labels:
            notes.append(f"agent {aid} is missing from the allocation")

    vset = set(inst.graph.vertices)
    seen: set[str] = set()
    for label, bundle in alloc.bundles:
        unknown = bundle - vset
        if unknown:
            notes.append(f"bundle of {label} contains unknown vertices {sorted(unknown)}")
        overlap = bundle & seen
        if overlap:
            notes.append(f"bundle of {label} overlaps another at {sorted(overlap)}")
        seen |= bundle
        if not unknown and not is_connected_subset(inst.graph, bundle):
            notes.append(f"bundle of {label} is not connected")

    if mms_records is None:
        mms_records = {a.id: oracle.pmms(inst.graph, a, inst.n) for a in inst.agents}

    rows = []
    ratios = []
    for a in sorted(inst.agents, key=lambda x: x.id):
        bundle = alloc.bundle_of(a.id)
        value = a.value(bundle & frozenset(vset))
        share = mms_records[a.id].value
        ratio = value / share if share > 0 else Fraction(1)
        rows.append((a.id, bundle, value, share, ratio))
        ratios.append(ratio)

    return Certificate(
        alpha_target=alpha,
        per_agent=tuple(rows),
        min_ratio=min(ratios) if ratios else Fraction(1),
        structural_ok=not notes,
        notes=tuple(notes),
    )
