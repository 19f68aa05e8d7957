"""Greedy prefix carving along a fixed vertex order.

Walk the order and grow a segment; at the first position where some active
agent values the segment at or above her threshold, the smallest-id such
agent takes it as her bundle and leaves, and the next segment starts.
Consecutive positions along a path give connected segments, but this module
does not check connectivity; that is the caller's contract.
"""

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .core import InvalidInputError, Value, ZERO


@dataclass(frozen=True)
class CarveResult:
    assignments: tuple[tuple[int, frozenset[str]], ...]
    leftover: tuple[str, ...]


def greedy_prefix_carve(
    order: Sequence[str],
    pool: Sequence[int],
    thresholds: Mapping[int, Value],
    utilities: Mapping[int, Mapping[str, Value]],
) -> CarveResult:
    """Carve segments off `order` until the pool or the order runs out.

    Unserved agents simply stay in the pool through the end; the caller
    decides whether that is an error.
    """
    if len(set(order)) != len(order):
        raise InvalidInputError("carve order repeats a vertex")
    for aid in pool:
        if aid not in thresholds or aid not in utilities:
            raise InvalidInputError(f"no thresholds or utilities for agent {aid}")
    active = sorted(pool)
    running: dict[int, Value] = {aid: ZERO for aid in active}
    segment: list[str] = []
    assignments: list[tuple[int, frozenset[str]]] = []
    for w in order:
        if not active:
            break
        segment.append(w)
        winner = None
        for aid in active:
            running[aid] += utilities[aid][w]
            if winner is None and running[aid] >= thresholds[aid]:
                winner = aid
        if winner is not None:
            assignments.append((winner, frozenset(segment)))
            active.remove(winner)
            segment = []
            running = {aid: ZERO for aid in active}
    consumed = {v for _, seg in assignments for v in seg}
    leftover = tuple(v for v in order if v not in consumed)
    return CarveResult(assignments=tuple(assignments), leftover=leftover)
