"""Seeded random instance generators for the three supported graph classes.

Every generator is a pure function of its parameters: the RNG is seeded
from (class, seed, sizes), vertex ids are zero-padded so lexicographic and
numeric order agree, and utilities are uniform integers in [0, max_utility].

The multipartite generator additionally shapes instances so the quarter
allocator's size preconditions hold along every path the reduction can
take.  A bounded call with r agents needs 5r vertices and a whole-part
bisection with r vertices per side, so for three or more agents we plant
heavy vertices (worth more than everything else combined) for the first
n - 2 agents, forcing the peeling stage to run and capping the residual
agent count at two, and we keep every part large enough that one vertex
lost per peel cannot strand the bisection.
"""

import random
from collections.abc import Mapping
from fractions import Fraction

from .core import Agent, GoodsGraph, Instance, InvalidInputError


def _rng(kind: str, seed: int, *params: int) -> random.Random:
    return random.Random(":".join([kind, str(seed)] + [str(p) for p in params]))


def _names(count: int) -> list[str]:
    width = max(2, len(str(count)))
    return [f"v{i:0{width}d}" for i in range(1, count + 1)]


def _uniform_utilities(rng: random.Random, names, max_utility: int) -> dict[str, Fraction]:
    return {v: Fraction(rng.randint(0, max_utility)) for v in names}


def _plant_heavy(utilities: dict[str, Fraction], vertex: str) -> None:
    # worth more than the rest combined: always peeled, never bounded
    rest = sum((val for v, val in utilities.items() if v != vertex), Fraction(0))
    utilities[vertex] = rest + 1


def gen_block_cactus(
    seed: int, n_vertices: int, n_agents: int, max_utility: int
) -> Instance:
    """A random tree of cycle and clique blocks glued at cut vertices."""
    if n_vertices < 1 or n_agents < 1 or max_utility < 0:
        raise InvalidInputError("need at least one vertex, one agent, max_utility >= 0")
    rng = _rng("block-cactus", seed, n_vertices, n_agents, max_utility)
    names = _names(n_vertices)
    edges: list[tuple[str, str]] = []
    placed = 1
    while placed < n_vertices:
        attach = names[rng.randrange(placed)]
        remaining = n_vertices - placed
        size = 2 if remaining == 1 else rng.randint(2, min(4, remaining + 1))
        members = [attach] + names[placed : placed + size - 1]
        placed += size - 1
        if size == 2 or rng.random() < 0.5:
            edges.extend(
                (a, b) for i, a in enumerate(members) for b in members[i + 1 :]
            )
        else:
            edges.extend(
                (members[i], members[(i + 1) % size]) for i in range(size)
            )
    graph = GoodsGraph.build(names, edges)
    agents = tuple(
        Agent(id=i, type_id=i, utility=_uniform_utilities(rng, names, max_utility))
        for i in range(1, n_agents + 1)
    )
    return Instance(graph=graph, agents=agents)


def _random_sizes(rng: random.Random, total: int, parts: int, floor: int) -> list[int]:
    sizes = [floor] * parts
    for _ in range(total - floor * parts):
        sizes[rng.randrange(parts)] += 1
    return sorted(sizes)


def gen_multipartite(
    seed: int, n_vertices: int, n_agents: int, max_utility: int
) -> Instance:
    """A random connected complete multipartite graph, safe for 1/4-allocation."""
    if n_agents < 1 or max_utility < 0:
        raise InvalidInputError("need at least one agent and max_utility >= 0")
    minimums = {1: 2, 2: 10, 3: 11, 4: 12}
    if n_agents not in minimums:
        raise InvalidInputError(f"multipartite generator supports 1..4 agents, not {n_agents}")
    if n_vertices < minimums[n_agents]:
        raise InvalidInputError(
            f"{n_agents} agents need at least {minimums[n_agents]} vertices"
        )
    rng = _rng("multipartite", seed, n_vertices, n_agents, max_utility)
    floor = 1 if n_agents == 1 else (2 if n_agents == 2 else 3)
    low = 3 if n_agents == 4 else 2
    high = min(4, n_vertices // floor)
    if high < low:
        raise InvalidInputError("too few vertices for the required part layout")
    m = rng.randint(low, high)
    sizes = _random_sizes(rng, n_vertices, m, floor)

    names = _names(n_vertices)
    shuffled = names[:]
    rng.shuffle(shuffled)
    parts: list[list[str]] = []
    at = 0
    for s in sizes:
        parts.append(sorted(shuffled[at : at + s]))
        at += s
    edges = [
        (a, b)
        for i, part in enumerate(parts)
        for other in parts[i + 1 :]
        for a in part
        for b in other
    ]
    graph = GoodsGraph.build(names, edges)

    heavies = rng.sample(names, max(0, n_agents - 2))
    agents = []
    for i in range(1, n_agents + 1):
        utilities = _uniform_utilities(rng, names, max_utility)
        if i <= len(heavies):
            _plant_heavy(utilities, heavies[i - 1])
        agents.append(Agent(id=i, type_id=i, utility=utilities))
    return Instance(graph=graph, agents=tuple(agents))


def gen_split(
    seed: int,
    n_vertices: int,
    n_agents: int,
    max_utility: int,
    n_types: int | None = None,
) -> Instance:
    """A random connected split graph with up to four agent types."""
    if n_vertices < 2 or n_agents < 1 or max_utility < 0:
        raise InvalidInputError("need two vertices, one agent, max_utility >= 0")
    rng = _rng("split", seed, n_vertices, n_agents, max_utility, n_types or 0)
    p = n_types if n_types is not None else rng.randint(1, min(4, n_agents))
    if not 1 <= p <= n_agents:
        raise InvalidInputError(f"type count {p} outside 1..{n_agents}")

    names = _names(n_vertices)
    shuffled = names[:]
    rng.shuffle(shuffled)
    q = 2 if n_vertices == 2 else rng.randint(2, n_vertices - 1)
    clique = sorted(shuffled[:q])
    independent = sorted(shuffled[q:])
    edges = [(a, b) for i, a in enumerate(clique) for b in clique[i + 1 :]]
    for v in independent:
        hooks = [w for w in clique if rng.random() < 0.5]
        if not hooks:
            hooks = [clique[rng.randrange(q)]]
        edges.extend((v, w) for w in hooks)
    graph = GoodsGraph.build(names, edges)

    type_utilities: dict[int, Mapping[str, Fraction]] = {
        t: _uniform_utilities(rng, names, max_utility) for t in range(1, p + 1)
    }
    agents = []
    for i in range(1, n_agents + 1):
        t = i if i <= p else rng.randint(1, p)
        agents.append(Agent(id=i, type_id=t, utility=dict(type_utilities[t])))
    return Instance(graph=graph, agents=tuple(agents))


GENERATORS = {
    "block-cactus": gen_block_cactus,
    "multipartite": gen_multipartite,
    "split": gen_split,
}


def generate(class_name: str, seed: int, n_vertices: int, n_agents: int, max_utility: int) -> Instance:
    if class_name not in GENERATORS:
        raise InvalidInputError(
            f"unknown class {class_name!r}, expected one of {sorted(GENERATORS)}"
        )
    return GENERATORS[class_name](seed, n_vertices, n_agents, max_utility)
