"""Seeded instance pools for the three benchmark workloads.

A pool is a pure function of (workload, seed): instance i belongs to grid
cell i mod len(cells), so every prefix of the pool holds the cells in equal
shares, and a traced run cut short by its time budget still measures the
intended mix.  Graphs come from the package's own generators; "raw" keeps the
generator's uniform 0..20 utilities, "flat" replaces them with near-equal
8..12 utilities, one profile per agent type.  Raw profiles let most agents
peel a single heavy vertex; flat profiles keep agents bounded, which is what
drives the per-class solvers and the share searches.

Why each grid looks the way it does:

* cactus: sparse block-cactus graphs, the only class whose bounded solver
  recurses (absorb/carve) and calls mms on folded graphs.  It stops at 12
  vertices: the 13-vertex cells took a quarter of a pass, and with them
  p90 moved by up to 15% from one seed to the next.
* multipartite: dense graphs where pmms is nearly all of allocate and of
  certify and the ratio search never runs.  n = 3 uses 11 vertices only:
  at 12 and 13 vertices one instance costs about 0.4 s and 0.9 s.
* split: flat profiles with one or two agent types, so the kernel ratio
  search runs on every instance and agents share utility functions.  Three
  identical agents appear only at 9 vertices: from 10 vertices on, a fifth
  of such instances take 0.5-8 s in the ratio search, and a handful of them
  per run decide p90 and solved_per_s on their own.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

RAW_MAX_UTILITY = 20
FLAT_LOW, FLAT_HIGH = 8, 12


@dataclass(frozen=True)
class Cell:
    vertices: int
    agents: int
    profile: str  # "raw" or "flat"
    types: int | None = None  # split only: number of agent types


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # function name in graphfair.generators
    allocator: tuple[str, str]  # (module, function) in graphfair
    cells: tuple[Cell, ...]
    pool_size: int  # at least 100, so that ten samples lie beyond p90
    clique_strata: bool = False  # split: equal shares of each clique size


def _grid(vertices, agents, profiles, types=(None,)):
    return [Cell(v, n, p, t) for v in vertices for n in agents for p in profiles for t in types]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cactus",
            "gen_block_cactus",
            ("blockcactus", "allocate_block_cactus"),
            tuple(_grid((10, 11, 12), (2, 3, 4), ("raw", "flat"))),
            pool_size=342,
        ),
        Workload(
            "multipartite",
            "gen_multipartite",
            ("multipartite", "allocate_multipartite"),
            tuple(_grid((10, 11, 12, 13), (2,), ("raw", "flat")) + _grid((11,), (3,), ("raw",))),
            pool_size=180,
        ),
        Workload(
            "split",
            "gen_split",
            ("splitgraph", "allocate_split"),
            tuple(
                _grid((9, 10, 11), (2,), ("flat",), (1, 2))
                + _grid((9,), (3,), ("flat",), (1, 2))
                + _grid((10, 11), (3,), ("flat",), (2,))
            ),
            pool_size=250,
            clique_strata=True,
        ),
    )
}


def _flatten(lib, inst, rng: random.Random):
    profiles: dict[int, dict[str, Fraction]] = {}
    agents = []
    for a in inst.agents:
        if a.type_id not in profiles:
            profiles[a.type_id] = {
                v: Fraction(rng.randint(FLAT_LOW, FLAT_HIGH)) for v in inst.graph.vertices
            }
        agents.append(lib.core.Agent(id=a.id, type_id=a.type_id, utility=dict(profiles[a.type_id])))
    return lib.core.Instance(graph=inst.graph, agents=tuple(agents))


def split_clique_size(graph) -> int:
    """Clique size of a split graph, from its degree sequence.

    For a split graph with degrees d1 >= d2 >= ..., the largest clique has
    max{i : d_i >= i - 1} vertices (Hammer and Simeone, 1981).
    """
    degrees = sorted((len(graph.neighbors(v)) for v in graph.vertices), reverse=True)
    return max(i for i, d in enumerate(degrees, start=1) if d >= i - 1)


def _cell_instances(lib, workload: Workload, cell: Cell, rng: random.Random, count: int) -> list:
    gen = getattr(lib.generators, workload.generator)

    def draw():
        args = (rng.randrange(2**31), cell.vertices, cell.agents, RAW_MAX_UTILITY)
        return gen(*args, cell.types) if cell.types is not None else gen(*args)

    if workload.clique_strata:
        # Cycle the clique size over 3..V-1: the kernel ratio search grows
        # steeply with it, and drawing it freely lets the count of large
        # kernels, not the code, decide p90 from one seed to the next.
        targets = [3 + j % (cell.vertices - 3) for j in range(count)]
        wanted = {k: targets.count(k) for k in set(targets)}
        buckets: dict[int, list] = {k: [] for k in wanted}
        while any(len(buckets[k]) < n for k, n in wanted.items()):
            inst = draw()
            k = split_clique_size(inst.graph)
            if k in buckets and len(buckets[k]) < wanted[k]:
                buckets[k].append(inst)
        drawn = [buckets[k].pop() for k in targets]
    else:
        drawn = [draw() for _ in range(count)]
    if cell.profile == "flat":
        drawn = [_flatten(lib, inst, rng) for inst in drawn]
    return drawn


def make_pool(lib, workload: Workload, seed: int) -> list:
    """The workload's instances for this seed, in measuring order."""
    cells = workload.cells
    per_cell = [
        _cell_instances(
            lib,
            workload,
            cell,
            random.Random(f"{workload.name}:{seed}:{c}"),
            len(range(c, workload.pool_size, len(cells))),
        )
        for c, cell in enumerate(cells)
    ]
    return [per_cell[i % len(cells)][i // len(cells)] for i in range(workload.pool_size)]


def guarantee(workload: Workload, inst) -> Fraction:
    """The class guarantee, derived here rather than taken from the allocator.

    Split graphs with p agent types get 3/(7*2^k - 3), k = (p - 1).bit_length().
    """
    if workload.name == "cactus":
        return Fraction(1, 2)
    if workload.name == "multipartite":
        return Fraction(1, 4)
    k = (len({a.type_id for a in inst.agents}) - 1).bit_length()
    return Fraction(3, 7 * 2**k - 3)


def shared_type_agents(inst) -> int:
    """How many agents share their utility type with another agent."""
    counts: dict[int, int] = {}
    for a in inst.agents:
        counts[a.type_id] = counts.get(a.type_id, 0) + 1
    return sum(c for c in counts.values() if c > 1)
