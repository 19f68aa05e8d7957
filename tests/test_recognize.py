"""The lazy class witness against the frozen eager recognizer, and its scope.

`recognize` returns a witness whose class tests run on first read.  Every
flag, the full flag set, the parts and the split pair must equal what the
eager recognizer in naive_oracles computed, whatever is read first; and a
read must run only the test it needs, once.
"""

import random

import networkx as nx

from graphfair import graphs
from graphfair.core import GoodsGraph
from graphfair.generators import gen_block_cactus, gen_multipartite, gen_split
from graphfair.graphs import is_connected, recognize
from graphfair.multipartite import allocate_multipartite
from graphfair.splitgraph import allocate_split
from naive_oracles import frozen_recognize

FLAGS = (
    "connected",
    "complete",
    "cycle",
    "tree",
    "block_graph",
    "cactus",
    "block_cactus",
    "complete_multipartite",
    "split",
    "no_such_flag",
)


def atlas_graphs():
    """All 1253 atlas graphs of up to 7 vertices, the empty graph included."""
    for g in nx.graph_atlas_g():
        yield GoodsGraph.build([f"v{v}" for v in g.nodes], [(f"v{a}", f"v{b}") for a, b in g.edges])


def random_graphs(count=300):
    """Seeded G(n, p) graphs of 0 to 14 vertices across all densities."""
    rng = random.Random(2024)
    for _ in range(count):
        ids = [f"v{i:02d}" for i in range(rng.randint(0, 14))]
        p = rng.random()
        edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if rng.random() < p]
        yield GoodsGraph.build(ids, edges)


def generated_graphs():
    for seed in range(10):
        for v in (1, 5, 9, 14):
            yield gen_block_cactus(seed, v, 2, 20).graph
        for v in (10, 12, 14):
            yield gen_multipartite(seed, v, 2, 20).graph
        for v in (2, 8, 14):
            yield gen_split(seed, v, 2, 20).graph


def assert_matches_frozen(graph: GoodsGraph) -> None:
    ref = frozen_recognize(graph)
    for flag in FLAGS:
        assert recognize(graph).has(flag) == ref.has(flag), (graph, flag)
    assert recognize(graph).flags == ref.flags, graph
    assert recognize(graph).parts == ref.parts, graph
    assert recognize(graph).split_pair == ref.split_pair, graph


def test_lazy_witness_matches_the_eager_recognizer_on_the_atlas():
    count = 0
    for graph in atlas_graphs():
        assert_matches_frozen(graph)
        parts = recognize(graph).parts
        if parts is not None and len(parts) >= 2:
            # every vertex is adjacent to every vertex outside its part
            assert is_connected(graph), graph
        count += 1
    assert count == 1253


def test_lazy_witness_matches_the_eager_recognizer_on_random_graphs():
    for graph in random_graphs():
        assert_matches_frozen(graph)


def test_lazy_witness_matches_the_eager_recognizer_on_generated_graphs():
    for graph in generated_graphs():
        assert_matches_frozen(graph)


def test_split_and_multipartite_reads_build_no_block_cut_tree(record):
    trees = record(graphs, "block_cut_tree")
    for graph in generated_graphs():
        recognize(graph).has("split")
        recognize(graph).has("complete_multipartite")
        recognize(graph).parts
        recognize(graph).split_pair
    assert trees == []


def test_block_cactus_read_runs_no_split_or_multipartite_test(record):
    splits = record(graphs, "split_partition")
    parts = record(graphs, "_multipartite_parts")
    trees = record(graphs, "block_cut_tree")
    for graph in generated_graphs():
        recognize(graph).has("block_cactus")
    assert splits == [] and parts == []
    assert trees, "no generated graph reached the block test"


def test_each_class_test_runs_once_per_witness(record):
    tests = {
        name: record(graphs, name)
        for name in ("is_connected", "block_cut_tree", "_multipartite_parts", "split_partition")
    }
    witness = recognize(gen_block_cactus(0, 9, 2, 20).graph)
    for _ in range(2):
        for flag in FLAGS:
            witness.has(flag)
        witness.parts
        witness.split_pair
        witness.flags
    assert {name: len(calls) for name, calls in tests.items()} == dict.fromkeys(tests, 1)


def test_multipartite_and_split_allocators_build_no_witness_block_cut_tree(record):
    # Every block search goes through the memo `_blocks`, the share oracle's
    # plans too, so block_cut_tree counts theirs.  Only the witness looks
    # `_blocks` and the block test `_block_flags` up in graphs; the oracle's
    # reads go through its own binding and are not counted here.
    searches = record(graphs, "_blocks")
    tests = record(graphs, "_block_flags")
    for seed in range(6):
        allocate_multipartite(gen_multipartite(seed, 10, 2, 20))
        allocate_split(gen_split(seed, 9, 3, 20))
    assert searches == [] and tests == []
