"""Shares on 9-10 vertices against a subset DP that shares no code with the package.

The naive oracle enumerates set partitions and stops at 6 vertices.  The DP
here reaches 10: over vertex masks S and bundle counts k,

    f(S, 1) = w(S) when S is connected (the empty set included),
    f(S, k) = max over connected T inside S holding S's lowest vertex
              of min(w(T), f(S minus T, k - 1)),

so each partition into at most k connected bundles is met once, bundles in
order of their lowest vertex, and f(empty set, k) = 0 covers the bundles left
empty.  Subset connectivity is a breadth-first walk local to this file.
"""

import random
from fractions import Fraction
from math import lcm

from graphfair import oracle
from graphfair.core import Agent, GoodsGraph
from graphfair.generators import gen_block_cactus, gen_multipartite, gen_split

MAX_BUNDLES = 4


def subset_dp_shares(graph: GoodsGraph, utility: dict[str, Fraction]) -> dict[int, Fraction | None]:
    """{k: best min bundle value over connected partitions into k bundles}, k = 1..4.

    None when no partition into k connected bundles covers the graph.
    """
    ids = list(graph.vertices)
    index = {v: i for i, v in enumerate(ids)}
    nbr = [0] * len(ids)
    for a, b in graph.edges:
        nbr[index[a]] |= 1 << index[b]
        nbr[index[b]] |= 1 << index[a]
    scale = lcm(*(utility[v].denominator for v in ids))
    wts = [int(utility[v] * scale) for v in ids]
    full = (1 << len(ids)) - 1

    weight = [0] * (full + 1)
    connected = [True] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        weight[s] = weight[s ^ low] + wts[low.bit_length() - 1]
        reach, frontier = low, low
        while frontier:
            step = 0
            for i in range(len(ids)):
                if frontier >> i & 1:
                    step |= nbr[i]
            frontier = step & s & ~reach
            reach |= frontier
        connected[s] = reach == s

    # None marks a mask that no partition into k connected bundles covers.
    f = [weight[s] if connected[s] else None for s in range(full + 1)]
    shares = {1: f[full]}
    for k in range(2, MAX_BUNDLES + 1):
        g = [0] + [None] * full
        for s in range(1, full + 1):
            low = s & -s
            rest = s ^ low
            best = None
            sub = rest
            while True:
                t = low | sub
                tail = f[s ^ t]
                if connected[t] and tail is not None:
                    value = min(weight[t], tail)
                    if best is None or value > best:
                        best = value
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            g[s] = best
        f = g
        shares[k] = f[full]
    return {k: None if v is None else Fraction(v, scale) for k, v in shares.items()}


def random_connected(rng: random.Random, size: int) -> GoodsGraph:
    """A random spanning tree plus each other pair with probability 1/4."""
    names = [f"r{i:02d}" for i in range(size)]
    edges = {(names[rng.randrange(i)], names[i]) for i in range(1, size)}
    edges |= {(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < 0.25}
    return GoodsGraph.build(names, edges)


def utility_profiles(rng: random.Random, graph: GoodsGraph) -> list[dict[str, Fraction]]:
    """Int, p/q and flat 8..12 weights on every vertex."""
    vs = graph.vertices
    return [
        {v: Fraction(rng.randint(0, 20)) for v in vs},
        {v: Fraction(rng.randint(0, 30), rng.randint(1, 7)) for v in vs},
        {v: Fraction(rng.randint(8, 12)) for v in vs},
    ]


def test_the_dp_matches_hand_counted_shares():
    # A path of weights 1, 2, 3, 4: two bundles best split {1, 2, 3} | {4},
    # three {1, 2} | {3} | {4}, four one vertex each.
    path = GoodsGraph.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    weights = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(3), "d": Fraction(4)}
    assert subset_dp_shares(path, weights) == {1: 10, 2: 4, 3: 3, 4: 1}
    # Two lone vertices: one bundle cannot cover them, three leave one empty.
    apart = GoodsGraph.build(["a", "b"], [])
    assert subset_dp_shares(apart, {"a": Fraction(1), "b": Fraction(2)}) == {
        1: None,
        2: 1,
        3: 0,
        4: 0,
    }


def test_shares_on_nine_and_ten_vertices_match_the_subset_dp():
    rng = random.Random("share-subset-dp")
    graphs = []
    for seed in range(4):
        for size in (9, 10):
            graphs.append(gen_block_cactus(seed, size, 1, 20).graph)
            graphs.append(gen_multipartite(seed, size, 1, 20).graph)
            graphs.append(gen_split(seed, size, 1, 20).graph)
            graphs.append(random_connected(rng, size))
    for graph in graphs:
        assert len(graph) in (9, 10)
        for utility in utility_profiles(rng, graph):
            expected = subset_dp_shares(graph, utility)
            agent = Agent(id=1, type_id=1, utility=utility)
            for n in range(2, MAX_BUNDLES + 1):
                assert oracle.mms(graph, agent, n).value == expected[n]
                assert oracle.pmms(graph, agent, n).value == expected[n]
