"""Brute-force reference implementations used only by tests.

Everything here is deliberately naive: direct enumeration over set
partitions, connected subsets, and vertex permutations.  Slow but obviously
correct, which is the point of an oracle for the oracle.  The packing and
boundedness checks at the end are test-side assertions that the library
itself does not need.
"""

from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable

from graphfair.core import Agent, GoodsGraph, Instance, Value, ZERO
from graphfair.graphs import is_connected_subset


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_connected_partitions(graph: GoodsGraph, n: int):
    """Yield every partition of V into at most n nonempty connected bundles.

    Each partition appears exactly once (up to bundle order) as an n-tuple of
    frozensets, padded with empty bundles.  Bundles are listed in canonical
    order: the first contains the smallest vertex, and so on.
    """
    for part in set_partitions(graph.vertices):
        if len(part) > n or not all(is_connected_subset(graph, p) for p in part):
            continue
        bundles = sorted((frozenset(p) for p in part), key=min)
        yield tuple(bundles) + (frozenset(),) * (n - len(part))


def naive_mms(graph: GoodsGraph, agent: Agent, n: int):
    """Max over covers by at most n connected parts of the padded minimum.

    Returns None when no such cover exists (more components than parts),
    mirroring the oracle's undefined case.
    """
    best = None
    for part in enumerate_connected_partitions(graph, n):
        low = min(agent.value(p) for p in part)
        if best is None or low > best:
            best = low
    return best


def connected_subsets(graph: GoodsGraph):
    verts = list(graph.vertices)
    out = []
    for mask in range(1, 1 << len(verts)):
        sub = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        if is_connected_subset(graph, sub):
            out.append(sub)
    return out


def naive_split_partition(graph: GoodsGraph):
    """The largest clique whose complement is independent, least sorted tuple first.

    Every vertex subset is tried.  Returns None when no subset qualifies, that
    is, when the graph is not split.
    """
    verts = graph.vertices
    valid = [
        clique
        for size in range(len(verts) + 1)
        for clique in combinations(verts, size)
        if all(graph.has_edge(a, b) for a, b in combinations(clique, 2))
        and not any(
            graph.has_edge(a, b)
            for a, b in combinations([v for v in verts if v not in clique], 2)
        )
    ]
    if not valid:
        return None
    best = frozenset(min(valid, key=lambda clique: (-len(clique), clique)))
    return best, frozenset(verts) - best


def naive_pmms(graph: GoodsGraph, agent: Agent, n: int) -> Fraction:
    """Max over at most n disjoint nonempty connected bundles of the padded min.

    Choosing fewer than n bundles pads with empties, so the running best
    starts at zero and only full selections can beat it.
    """
    subs = connected_subsets(graph)
    values = {s: agent.value(s) for s in subs}
    best = ZERO

    def rec(idx: int, chosen: int, used: frozenset, cur_min) -> None:
        nonlocal best
        if chosen == n:
            best = max(best, cur_min)
            return
        if cur_min is not None and cur_min <= best:
            return
        for i in range(idx, len(subs)):
            s = subs[i]
            if s & used:
                continue
            v = values[s]
            nxt = v if cur_min is None else min(cur_min, v)
            rec(i + 1, chosen + 1, used | s, nxt)

    rec(0, 0, frozenset(), None)
    return best


def _canon(n: int, edges) -> tuple:
    best = None
    for perm in permutations(range(n)):
        mapped = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
        if best is None or mapped < best:
            best = mapped
    return best


def connected_graphs_up_to(max_n: int) -> list[GoodsGraph]:
    """All non-isomorphic connected graphs on 1..max_n vertices.

    Built by attaching vertex n to every smaller connected graph with every
    nonempty neighbor set (every connected graph has a non-cut vertex, so
    this reaches them all), deduplicated by permutation-canonical edge sets.
    """
    levels: dict[int, list[frozenset]] = {1: [frozenset()]}
    for n in range(2, max_n + 1):
        seen = set()
        out = []
        for g in levels[n - 1]:
            for mask in range(1, 1 << (n - 1)):
                edges = set(g)
                for i in range(n - 1):
                    if mask >> i & 1:
                        edges.add((i, n - 1))
                key = _canon(n, edges)
                if key not in seen:
                    seen.add(key)
                    out.append(frozenset(edges))
        levels[n] = out

    graphs = []
    for n in range(1, max_n + 1):
        names = [f"v{i + 1}" for i in range(n)]
        for edges in levels[n]:
            graphs.append(
                GoodsGraph.build(names, [(names[a], names[b]) for a, b in edges])
            )
    return graphs


def random_profile(rng, vertices) -> dict[str, Fraction]:
    return {
        v: Fraction(rng.randint(0, 20), rng.choice([1, 1, 2, 3])) for v in vertices
    }


def assigned_vertices(bundles: Iterable[frozenset[str]]) -> frozenset[str]:
    out: set[str] = set()
    for vs in bundles:
        out |= vs
    return frozenset(out)


def is_partition_of(bundles: Iterable[frozenset[str]], graph: GoodsGraph) -> bool:
    return assigned_vertices(bundles) == frozenset(graph.vertices)


def packing_problems(
    labelled: Iterable[tuple[int, frozenset[str]]], graph: GoodsGraph
) -> list[str]:
    """Disjointness and label sanity; connectivity is checked separately."""
    labelled = list(labelled)
    problems: list[str] = []
    labels = [label for label, _ in labelled]
    if len(set(labels)) != len(labels):
        problems.append("an agent label appears in two bundles")
    seen: set[str] = set()
    vset = set(graph.vertices)
    for label, vs in labelled:
        unknown = vs - vset
        if unknown:
            problems.append(f"bundle of {label} contains unknown vertices {sorted(unknown)}")
        overlap = vs & seen
        if overlap:
            problems.append(f"bundle of {label} overlaps an earlier bundle at {sorted(overlap)}")
        seen |= vs
    return problems


def is_alpha_bounded(inst: Instance, agent: Agent, alpha: Value, mms_value: Value) -> bool:
    """True when every single vertex is worth strictly less than alpha * mms.

    An agent with mms 0 is never bounded (no vertex can sit strictly below 0).
    """
    if mms_value <= 0:
        return False
    cut = alpha * mms_value
    return all(agent.utility[v] < cut for v in inst.graph.vertices)
