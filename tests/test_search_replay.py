"""Real search calls replayed against frozen copies of the two searches.

`naive_oracles.frozen_minmax_partition_search` and
`naive_oracles.frozen_max_min_ratio_allocation` are verbatim copies of the
share search and the ratio search from before the last-bundle close, the
ceiling stop and the integer cut.  Both searches must return the first
optimum in canonical order, because the reduction, the absorb step and the
split tournament read the witness and the output bytes follow from it.  So
every call is compared whole: the share search's `(value, parts)` and the
ratio search's `{agent: bundle}`.

The sample: for each class, SEEDS_PER_CELL generator seeds drawn from one
named `random.Random`, each instance allocated once with the generator's
utilities ("raw") and once with near-equal 8..12 utilities, one profile per
agent type ("flat"), as the benchmark pools draw them.  Every search the
allocation runs is recorded, then one cold `pmms` per agent.  Corner inputs
add what the generators never produce: `p/q` utilities, integers near 2^64,
all-zero and mostly-zero weights, disconnected vertex sets, n above the
vertex count (value 0, where leaves with fewer parts decide the witness),
ratio calls whose agents share one ratio-weight row (which read the share
witness instead of searching), and the block-cactus solver's single-block
ratio call.  Each corner share search that finds a value runs again with
that value as its floor, the path a witness read after the threshold DP
takes, and must return the same first optimum.
"""

import random
from fractions import Fraction

import pytest

from graphfair import generators as gen
from graphfair import oracle
from graphfair.blockcactus import allocate_block_cactus, allocate_bounded
from graphfair.core import Agent, GoodsGraph, Instance
from graphfair.graphs import is_connected
from graphfair.multipartite import allocate_multipartite
from graphfair.splitgraph import allocate_split

from naive_oracles import (
    frozen_max_min_ratio_allocation,
    frozen_minmax_partition_search,
)

SEEDS_PER_CELL = 6
BIG = 2**64

# (generator call for a seed, allocator), with the benchmark's vertex and
# agent counts.
CLASSES = {
    "cactus": (
        lambda seed: gen.gen_block_cactus(seed, 10 + seed % 3, 2 + seed % 3, 20),
        allocate_block_cactus,
    ),
    "multipartite": (
        lambda seed: gen.gen_multipartite(seed, 10 + seed % 4, 2, 20)
        if seed % 4
        else gen.gen_multipartite(seed, 11, 3, 20),
        allocate_multipartite,
    ),
    "split": (
        lambda seed: gen.gen_split(seed, 9 + seed % 3, 2 + (seed % 5 == 0), 20, 1 + seed % 2),
        allocate_split,
    ),
}


def flatten(inst: Instance, rng: random.Random) -> Instance:
    profiles: dict[int, dict[str, Fraction]] = {}
    agents = []
    for a in inst.agents:
        if a.type_id not in profiles:
            profiles[a.type_id] = {v: Fraction(rng.randint(8, 12)) for v in inst.graph.vertices}
        agents.append(Agent(id=a.id, type_id=a.type_id, utility=dict(profiles[a.type_id])))
    return Instance(graph=inst.graph, agents=tuple(agents))


def sample() -> list[Instance]:
    rng = random.Random("search-replay")
    out = []
    for name, (draw, _) in CLASSES.items():
        for _ in range(SEEDS_PER_CELL):
            inst = draw(rng.randrange(2**31))
            out += [(name, inst), (name, flatten(inst, rng))]
    return out


def ceiling(adj, full, wts, n) -> int:
    """No n-bundle partition of `full` has a smallest bundle above this."""
    return sum(w for i, w in enumerate(wts) if full >> i & 1) // n


def heavy_ceiling(adj, full, wts, n) -> int:
    """The least over j < n of (total - top_j) // (n - j).

    top_j is the weight of the j heaviest vertices of `full`.  They lie in
    at most j bundles, so n - j bundles share at most the rest.
    """
    ws = sorted((w for i, w in enumerate(wts) if full >> i & 1), reverse=True)
    return min((sum(ws) - sum(ws[:j])) // (n - j) for j in range(n))


def assert_share_calls_match(calls) -> None:
    # A witness read after the threshold DP passes the known optimum as
    # `floor`; the frozen search takes no floor and must return the same
    # first optimum.
    for call in calls:
        assert frozen_minmax_partition_search(*call.args[:4]) == call.result, call


def assert_ratio_calls_match(calls) -> None:
    for call in calls:
        assert frozen_max_min_ratio_allocation(*call.args) == call.result, call.args


def test_allocation_and_share_searches_match_the_frozen_searches(record):
    shares = record(oracle, "_minmax_partition_search")
    ratios = record(oracle, "max_min_ratio_allocation")
    for name, inst in sample():
        oracle.clear_cache()
        CLASSES[name][1](inst)
        oracle.clear_cache()
        for a in inst.agents:
            oracle.pmms(inst.graph, a, inst.n)
    assert_share_calls_match(shares)
    assert_ratio_calls_match(ratios)
    # The sample reaches both exits of the share search: a value equal to
    # the ceiling total // n, and a search that has to prove a lower one.
    at_ceiling = [call.result[0] == ceiling(*call.args[:4]) for call in shares]
    assert any(at_ceiling) and not all(at_ceiling), len(shares)
    # Full searches reach all three of its exits: total // n, the
    # heavy-vertex bound below it, and a proved value below both.
    exits = {"even": 0, "heavy": 0, "below": 0}
    for call in shares:
        if "floor" not in call.kwargs:
            value, even, heavy = call.result[0], ceiling(*call.args), heavy_ceiling(*call.args)
            exits["even" if value == even else "heavy" if value == heavy else "below"] += 1
    assert all(exits.values()), exits
    # It reaches both kinds of search too: witnesses read after the DP, with
    # a floor, and full searches on components with a block of 5+ vertices.
    floored = ["floor" in call.kwargs for call in shares]
    assert any(floored) and not all(floored), len(shares)
    assert len(ratios) >= 8, len(ratios)


def random_graph(rng: random.Random, size: int, density: float) -> GoodsGraph:
    names = [f"v{i}" for i in range(size)]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < density]
    return GoodsGraph.build(names, edges)


def corner_utility(rng: random.Random, kind: str, vertices) -> dict[str, Fraction]:
    if kind == "pq":
        return {v: Fraction(rng.randint(0, 20), rng.choice([1, 2, 3, 5, 7])) for v in vertices}
    if kind == "huge":
        return {v: Fraction(BIG + rng.randint(-5, 5), rng.choice([1, 1, 3])) for v in vertices}
    if kind == "zero":
        return {v: Fraction(0) for v in vertices}
    if kind == "sparse":
        return {v: Fraction(rng.choice([0, 0, 0, 1, 2])) for v in vertices}
    if kind == "heavy":
        # One to three vertices worth 5-50 times a light one.
        heavy = rng.sample(list(vertices), min(len(vertices), rng.randint(1, 3)))
        return {
            v: Fraction(rng.randint(1, 4) * (rng.randint(5, 50) if v in heavy else 1))
            for v in vertices
        }
    return {v: Fraction(rng.randint(8, 12)) for v in vertices}


KINDS = ("pq", "huge", "zero", "sparse", "heavy", "flat")


@pytest.mark.parametrize("kind", KINDS)
def test_corner_share_searches_match_the_frozen_search(kind):
    rng = random.Random(f"search-replay:{kind}")
    heavy_stops = floored = 0
    for _ in range(25):
        graph = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.7]))
        wts, _ = oracle._weights_for(
            Agent(id=1, type_id=1, utility=corner_utility(rng, kind, graph.vertices)),
            list(graph.vertices),
        )
        mask = oracle._Mask(graph)
        # n runs past the vertex count, and the vertex set may be
        # disconnected, so some searches find no partition at all.
        for n in range(1, len(graph.vertices) + 3):
            args = (mask.adj, mask.full, wts, n)
            got = oracle._minmax_partition_search(*args)
            assert got == frozen_minmax_partition_search(*args), (graph, wts, n)
            if got[0] is not None:
                # Told the optimum, the search starts from best = value - 1
                # and must still stop at the first optimum.
                assert oracle._minmax_partition_search(*args, floor=got[0]) == got
                floored += 1
            if got[0] and got[0] == heavy_ceiling(*args) < ceiling(*args):
                heavy_stops += 1
    # Heavy profiles reach a positive share at the heavy-vertex bound.
    assert heavy_stops or kind != "heavy"
    assert floored, kind


def test_corner_ratio_searches_match_the_frozen_search():
    rng = random.Random("search-replay:ratio")
    for trial in range(40):
        graph = random_graph(rng, rng.randint(1, 7), 0.6)
        while len(graph.vertices) > 1 and not is_connected(graph):
            graph = random_graph(rng, len(graph.vertices), 0.6)
        n = rng.randint(1, min(4, len(graph.vertices) + 1))
        kind = KINDS[trial % len(KINDS)]
        agents = [
            Agent(id=i, type_id=i, utility=corner_utility(rng, kind, graph.vertices))
            for i in range(1, n + 1)
        ]
        targets = {
            a.id: rng.choice([Fraction(0), Fraction(rng.randint(1, 30), rng.randint(1, 4))])
            for a in agents
        }
        got = oracle.max_min_ratio_allocation(graph, agents, targets)
        assert got == frozen_max_min_ratio_allocation(graph, agents, targets), (graph, targets)


def path_graph(size: int) -> GoodsGraph:
    names = [f"v{i}" for i in range(size)]
    return GoodsGraph.build(names, list(zip(names, names[1:])))


def shared_row_calls(case: str, rng: random.Random):
    """Ratio calls, as (graph, [(utility, target), ...]), whose agents share a row."""
    graphs = [
        path_graph(5),
        GoodsGraph.build([f"v{i}" for i in range(6)], [(f"v{i}", f"v{(i + 1) % 6}") for i in range(6)]),
        random_graph(rng, 6, 1.0),
    ]
    for graph, kind in zip(graphs, ("pq", "huge", "flat")):
        u = corner_utility(rng, kind, graph.vertices)
        t = Fraction(rng.randint(1, 30), rng.randint(1, 4))
        if case == "identical":
            yield graph, [(u, t)] * 3
        elif case == "proportional":
            yield graph, [(u, t), ({v: 2 * x for v, x in u.items()}, 2 * t)]
        elif case == "all zero":
            zero = corner_utility(rng, "zero", graph.vertices)
            yield graph, [(zero, t), (zero, 3 * t + 1)]
        elif case == "n above the vertex count":
            small = path_graph(3)
            yield small, [(corner_utility(rng, kind, small.vertices), t)] * 5
        else:
            yield graph, [(u, t), (u, t), (u, Fraction(0))]


@pytest.mark.parametrize(
    "case", ("identical", "proportional", "all zero", "n above the vertex count", "target 0")
)
def test_shared_row_ratio_calls_match_the_frozen_search(case, record):
    # Agents with one ratio-weight row and positive targets get the share
    # witness of the first of them; a target-0 agent keeps the full search.
    rng = random.Random(f"search-replay:shared-row:{case}")
    shares = record(oracle, "_share")
    for graph, rows in shared_row_calls(case, rng):
        before = len(shares)
        agents = [Agent(id=i, type_id=1, utility=u) for i, (u, _) in enumerate(rows, 1)]
        targets = {a.id: t for a, (_, t) in zip(agents, rows)}
        got = oracle.max_min_ratio_allocation(graph, agents, targets)
        assert got == frozen_max_min_ratio_allocation(graph, agents, targets), (graph, targets)
        assert len(shares) - before == (case != "target 0")


def test_single_block_ratio_calls_match_the_frozen_search(record):
    ratios = record(oracle, "max_min_ratio_allocation")
    rng = random.Random("search-replay:block")
    names = [f"v{i}" for i in range(7)]
    blocks = [
        GoodsGraph.build(names, [(names[i], names[(i + 1) % 7]) for i in range(7)]),
        GoodsGraph.build(names[:6], [(a, b) for i, a in enumerate(names[:6]) for b in names[i + 1 : 6]]),
    ]
    for graph in blocks:
        for n in (2, 3):
            agents = [
                Agent(id=i, type_id=i, utility=corner_utility(rng, "pq", graph.vertices))
                for i in range(1, n + 1)
            ]
            targets = {a.id: oracle.mms(graph, a, n).value for a in agents}
            allocate_bounded(graph, agents, targets)
    assert len(ratios) == 4
    assert_ratio_calls_match(ratios)
