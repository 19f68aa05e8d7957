"""Real search calls replayed against frozen copies of the two searches.

`naive_oracles.frozen_minmax_partition_search` and
`naive_oracles.frozen_max_min_ratio_allocation` are verbatim copies of the
share search and the ratio search from before the last-bundle close, the
ceiling stop, the integer cut and the ratio search's bundle cuts.  Both
searches must return the first optimum in canonical order, because the
reduction, the absorb step and the split tournament read the witness and
the output bytes follow from it.  So every call is compared whole: the share
search's `(value, parts)` and the ratio search's `{agent: bundle}`.

The sample: for each class, SEEDS_PER_CELL generator seeds drawn from one
named `random.Random`, each instance allocated once with the generator's
utilities ("raw") and once with near-equal 8..12 utilities, one profile per
agent type ("flat"), as the benchmark pools draw them.  Every search the
allocation runs is recorded, then one cold `pmms` per agent.  Corner inputs
add what the generators never produce: `p/q` utilities, integers near 2^64,
all-zero and mostly-zero weights, disconnected vertex sets, n above the
vertex count (value 0, where leaves with fewer parts decide the witness),
ratio calls whose agents share one ratio-weight row (which read the share
witness instead of searching), ratio calls with every target 0, with one
positive target or with five agents, one whose assignment is not the first
optimal permutation, and the block-cactus solver's single-block ratio call.  Each corner share search that finds a value runs again with
that value as its floor, the path every witness read takes, and must return
the same first optimum.

Two samples aim at the cut that leaves a remainder whose components cannot
hold the bundles still to come: flat split and complete multipartite graphs
of 12-14 vertices, where closing a bundle strands independent vertices, and
every connected graph of at most 7 vertices in networkx's atlas.  The share
search's `rec` and `grow` frames over the allocation sample and the first of
these are counted and pinned.  The counts do not depend on the machine, so
a weaker cut or extra work fails here on any host, and a stronger cut has
to move the pins on purpose.

The kernel sample aims at the ratio search's bundle cuts: the clique
kernels that `allocate_split` solves on flat two-type split graphs of 12-14
vertices, K8-K12 with two and three agents, each compared whole with the
frozen ratio search.  The ratio search's `rec`, `grow` and `leaf` frames
over it, over the allocation sample and over the corner ratio calls are
pinned the same way.
"""

import random
import sys
from fractions import Fraction

import networkx as nx
import pytest

from graphfair import generators as gen
from graphfair import oracle
from graphfair.blockcactus import allocate_block_cactus, allocate_bounded
from graphfair.core import Agent, GoodsGraph, Instance
from graphfair.graphs import is_connected, split_partition
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
    # A witness read passes the known optimum as `floor`; the frozen search
    # takes no floor and must return the same first optimum.
    for call in calls:
        assert frozen_minmax_partition_search(*call.args[:4]) == call.result, call


def assert_ratio_calls_match(calls) -> None:
    for call in calls:
        assert frozen_max_min_ratio_allocation(*call.args) == call.result, call.args


def _codes(code):
    """`code` and every code object defined inside it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_consts"):
            yield from _codes(const)


def count_frames(search, names, replays) -> dict[str, int]:
    """The frames of each nested function in `names` that `search` opens.

    Each call is replayed from its (args, kwargs).  Frames are matched by
    code object, not by name alone, so the share search that the ratio
    search runs for a one-group witness adds nothing to the ratio pins.
    """
    codes = {code for code in _codes(search.__code__) if code.co_name in names}
    nodes = dict.fromkeys(names, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            nodes[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for args, kwargs in replays:
            search(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return nodes


def search_nodes(calls) -> dict[str, int]:
    """The `rec` and `grow` frames the share search opens over `calls`."""
    return count_frames(oracle._minmax_partition_search, ("rec", "grow"), calls)


def ratio_nodes(calls) -> dict[str, int]:
    """The `rec`, `grow` and `leaf` frames the ratio search opens over `calls`."""
    return count_frames(oracle.max_min_ratio_allocation, ("rec", "grow", "leaf"), calls)


def test_allocation_and_share_searches_match_the_frozen_searches(record, monkeypatch):
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
    # It reaches both kinds of search too: witness reads, with a floor, and
    # value searches on components with a block of 5+ vertices.
    floored = ["floor" in call.kwargs for call in shares]
    assert any(floored) and not all(floored), len(shares)
    assert len(ratios) >= 8, len(ratios)
    # Replayed without the recording wrappers.
    monkeypatch.undo()
    assert search_nodes((call.args, call.kwargs) for call in shares) == {"rec": 1985, "grow": 11349}
    assert ratio_nodes((call.args, {}) for call in ratios) == {"rec": 3, "grow": 3, "leaf": 2}


def room_cases():
    """Share searches on graphs where closing a bundle strands vertices.

    Flat split graphs with one and with two agent types, and flat complete
    multipartite graphs, of 12-14 vertices: each type's 8..12 profile is
    searched for 3 and for 4 bundles.
    """
    rng = random.Random("search-replay:room")
    for trial in range(18):
        size, seed = rng.randint(12, 14), rng.randrange(2**31)
        if trial % 3 == 2:
            graph, types = gen.gen_multipartite(seed, size, 2, 20).graph, 1
        else:
            types = 1 + trial % 3
            graph = gen.gen_split(seed, size, types, 20, types).graph
        for _ in range(types):
            wts = [rng.randint(8, 12) for _ in graph.vertices]
            for n in (3, 4):
                yield graph.neighbor_masks, (1 << len(graph.vertices)) - 1, wts, n


def test_room_cut_searches_match_the_frozen_search():
    cases = list(room_cases())
    below = 0
    for args in cases:
        got = oracle._minmax_partition_search(*args)
        assert got == frozen_minmax_partition_search(*args), args
        assert oracle._minmax_partition_search(*args, floor=got[0]) == got
        below += got[0] < heavy_ceiling(*args)
    # Half the searches have to prove a value below the ceiling, where the
    # search runs to exhaustion and the cut does its work.
    assert below * 2 >= len(cases), below
    assert search_nodes((args, {}) for args in cases) == {"rec": 16313, "grow": 116552}


ALPHABETS = ((1, 1, 2), (0, 5, 5, 7), (3, 3, 3))


def test_atlas_share_searches_match_the_frozen_search():
    # Every connected graph of at most 7 vertices, each weighted from three
    # alphabets with ties and zeros, for every n from 1 to one past its
    # vertex count, with and without the optimum as floor.
    rng = random.Random("search-replay:atlas")
    searches = 0
    for g in nx.graph_atlas_g()[1:]:
        if not nx.is_connected(g):
            continue
        m = g.number_of_nodes()
        adj = [sum(1 << j for j in g[i]) for i in range(m)]
        full = (1 << m) - 1
        for alphabet in ALPHABETS:
            wts = [rng.choice(alphabet) for _ in range(m)]
            for n in range(1, m + 2):
                got = oracle._minmax_partition_search(adj, full, wts, n)
                assert got == frozen_minmax_partition_search(adj, full, wts, n), (g.edges, wts, n)
                assert oracle._minmax_partition_search(adj, full, wts, n, floor=got[0]) == got
                searches += 1
    assert searches == 23331


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
        full = (1 << len(graph.vertices)) - 1
        # n runs past the vertex count, and the vertex set may be
        # disconnected, so some searches find no partition at all.
        for n in range(1, len(graph.vertices) + 3):
            args = (graph.neighbor_masks, full, wts, n)
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


def connected_graph(rng: random.Random, size: int) -> GoodsGraph:
    graph = random_graph(rng, size, 0.6)
    while len(graph.vertices) > 1 and not is_connected(graph):
        graph = random_graph(rng, len(graph.vertices), 0.6)
    return graph


def pinned_tie_call():
    """A call whose assignment is not the first optimal permutation.

    Every vertex of the star v0 - {v1, v2} is a bundle of the first
    partition, and v0 is worth 0 to all three agents, so every assignment,
    and every later partition, scores 0.  Bundle v0 goes to agent 1, the
    first agent; then v1 goes to agent 3, which leaves agent 2 the ratio 3/5
    on v2 rather than 2/5 on v1.  The first optimal permutation, (1, 2, 3),
    gives v1 to agent 2.
    """
    graph = GoodsGraph.build(["v0", "v1", "v2"], [("v0", "v1"), ("v0", "v2")])
    rows = ((0, 2, 4), (0, 2, 3), (0, 2, 2))
    agents = [
        Agent(id=i, type_id=i, utility=dict(zip(graph.vertices, map(Fraction, row))))
        for i, row in enumerate(rows, 1)
    ]
    return graph, agents, {1: Fraction(3), 2: Fraction(5), 3: Fraction(1)}


def test_corner_ratio_searches_match_the_frozen_search():
    rng = random.Random("search-replay:ratio")
    calls = [pinned_tie_call()]
    for trial in range(40):
        graph = connected_graph(rng, rng.randint(1, 7))
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
        calls.append((graph, agents, targets))
    # Every target 0, where the first partition wins; exactly one positive
    # target; and five agents on at most six vertices, empty bundles and all.
    for trial in range(36):
        graph = connected_graph(rng, rng.randint(1, 6))
        n = 5 if trial % 3 == 2 else rng.randint(1, 4)
        kind = KINDS[trial % len(KINDS)]
        agents = [
            Agent(id=i, type_id=i, utility=corner_utility(rng, kind, graph.vertices))
            for i in range(1, n + 1)
        ]
        targets = {a.id: Fraction(rng.randint(1, 30), rng.randint(1, 4)) for a in agents}
        if trial % 3 == 0:
            targets = dict.fromkeys(targets, Fraction(0))
        elif trial % 3 == 1:
            lone = rng.choice(agents).id
            targets = {aid: t if aid == lone else Fraction(0) for aid, t in targets.items()}
        calls.append((graph, agents, targets))
    for graph, agents, targets in calls:
        got = oracle.max_min_ratio_allocation(graph, agents, targets)
        assert got == frozen_max_min_ratio_allocation(graph, agents, targets), (graph, targets)
    # Many of these calls have target-0 agents, who value every bundle above
    # best, so the bundle cuts do little there; the reach bound at each `rec`
    # (best closed bundle or everything left) keeps them small, and the
    # benchmark makes no such calls, so only this pin holds it.
    assert ratio_nodes((args, {}) for args in calls) == {"rec": 626, "grow": 673, "leaf": 110}


# Kernel ratio calls wanted per (kernel size, agent count): two of each up
# to K11 and one at K12, whose frozen replay with three agents takes
# seconds.
KERNEL_STRATA = {(k, n): 1 if k == 12 else 2 for k in range(8, 13) for n in (2, 3)}


def kernel_calls(record) -> list[tuple]:
    """Kernel ratio calls of flat two-type split graphs of 12-14 vertices.

    `allocate_split` contracts each graph to a clique kernel and runs the
    ratio search there with every agent's kernel share as her target.  Both
    types differ, so the search runs in full rather than reading a share
    witness.  Graphs are drawn until every stratum of KERNEL_STRATA is
    full; a graph whose clique fills no open stratum is not allocated.
    """
    ratios = record(oracle, "max_min_ratio_allocation")
    rng = random.Random("search-replay:kernel")
    kept: dict[tuple[int, int], list] = {stratum: [] for stratum in KERNEL_STRATA}
    while any(len(kept[s]) < want for s, want in KERNEL_STRATA.items()):
        size, n = rng.randint(12, 14), rng.choice((2, 3))
        inst = flatten(gen.gen_split(rng.randrange(2**31), size, n, 20, 2), rng)
        clique, _ = split_partition(inst.graph)
        if len(kept.get((len(clique), n), ())) >= KERNEL_STRATA.get((len(clique), n), 0):
            continue
        before = len(ratios)
        oracle.clear_cache()
        allocate_split(inst)
        for call in ratios[before:]:
            graph, agents, _ = call.args
            stratum = (len(graph.vertices), len(agents))
            if len(kept.get(stratum, ())) < KERNEL_STRATA.get(stratum, 0):
                kept[stratum].append(call.args)
    return [args for stratum in KERNEL_STRATA for args in kept[stratum]]


def test_kernel_ratio_searches_match_the_frozen_search(record, monkeypatch):
    calls = kernel_calls(record)
    monkeypatch.undo()
    for args in calls:
        assert oracle.max_min_ratio_allocation(*args) == frozen_max_min_ratio_allocation(*args), args
    assert ratio_nodes((args, {}) for args in calls) == {"rec": 8195, "grow": 64500, "leaf": 4428}


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
