import ast
import importlib
import pkgutil
import random
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from pathlib import Path

import pytest

import graphfair
from graphfair import generators as gen
from graphfair import oracle
from graphfair.core import (
    Agent,
    Allocation,
    GoodsGraph,
    Instance,
    InvalidInputError,
    SizeLimitError,
    StructuralError,
    UndefinedMmsError,
)
from graphfair.blockcactus import allocate_block_cactus
from graphfair.graphs import connected_components, is_connected_subset
from graphfair.multipartite import allocate_multipartite
from graphfair.splitgraph import allocate_split
from graphfair.verify import check_allocation

from naive_oracles import (
    assigned_vertices,
    connected_graphs_up_to,
    enumerate_connected_partitions,
    is_partition_of,
    naive_mms,
    naive_pmms,
    packing_problems,
    random_profile,
)


def agent_with(util: dict) -> Agent:
    return Agent(id=1, type_id=1, utility={k: Fraction(v) for k, v in util.items()})


def test_two_component_fixture_values():
    g = GoodsGraph.build(["x", "y", "z"], [("x", "y")])
    a = agent_with({"x": 2, "y": 2, "z": 1})
    assert oracle.mms(g, a, 2).value == 1
    assert oracle.pmms(g, a, 2).value == 2
    # with three bundles the isolated vertex gets its own part
    assert oracle.mms(g, a, 3).value == 1
    assert oracle.pmms(g, a, 3).value == 1


def test_mms_undefined_with_too_few_bundles():
    g = GoodsGraph.build(["x", "y", "z"], [("x", "y")])
    a = agent_with({"x": 2, "y": 2, "z": 1})
    with pytest.raises(UndefinedMmsError):
        oracle.mms(g, a, 1)
    # pmms never needs to cover, so it stays defined
    assert oracle.pmms(g, a, 1).value == 4


def test_witnesses_are_valid_packings():
    g = GoodsGraph.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    a = agent_with({"a": 3, "b": 1, "c": 2, "d": 2})
    for n in (1, 2, 3):
        rec = oracle.mms(g, a, n)
        assert len(rec.witness) == n
        assert packing_problems(enumerate(rec.witness, 1), g) == []
        assert is_partition_of(rec.witness, g)
        values = [a.value(b) for b in rec.witness if b]
        assert min(values) == rec.value
        for b in rec.witness:
            assert is_connected_subset(g, b)


def test_pmms_witness_may_skip_vertices():
    g = GoodsGraph.build(["x", "y", "z"], [("x", "y")])
    a = agent_with({"x": 2, "y": 2, "z": 1})
    rec = oracle.pmms(g, a, 2)
    assert packing_problems(enumerate(rec.witness, 1), g) == []
    covered = assigned_vertices(rec.witness)
    assert covered <= frozenset(g.vertices)
    assert min(a.value(b) for b in rec.witness) == 2


def test_witness_lists_empty_bundles_last():
    g = GoodsGraph.build(["x", "y"], [("x", "y")])
    a = agent_with({"x": 1, "y": 1})
    for share in (oracle.mms, oracle.pmms):
        rec = share(g, a, 4)
        assert rec.value == 0
        assert len(rec.witness) == 4
        assert set(rec.witness[:2]) == {frozenset({"x"}), frozenset({"y"})}
        assert rec.witness[2:] == (frozenset(), frozenset())


def test_size_cap():
    names = [f"v{i:02d}" for i in range(15)]
    g = GoodsGraph.build(names, [(names[i], names[i + 1]) for i in range(14)])
    a = agent_with({v: 1 for v in names})
    with pytest.raises(SizeLimitError):
        oracle.mms(g, a, 2)


def test_bad_n_rejected():
    # True is an int to isinstance, but not a bundle count.
    g = GoodsGraph.build(["a"], [])
    a = agent_with({"a": 1})
    for n in (0, 2.0, True, "2"):
        for share in (oracle.mms, oracle.pmms):
            with pytest.raises(InvalidInputError):
                share(g, a, n)


def test_enumerate_connected_partitions_counts():
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    # P3 into at most 2 bundles: {abc}, {a|bc}, {ab|c}
    parts = list(enumerate_connected_partitions(g, 2))
    assert len(parts) == 3
    for p in parts:
        assert len(p) == 2
        nonempty = [b for b in p if b]
        assert frozenset().union(*nonempty) == frozenset(g.vertices)
    # {a|c} is not reachable: the middle vertex must join someone
    assert all(frozenset({"a", "c"}) not in p for p in parts)


def test_pmms_matches_naive_on_random_small_graphs():
    rng = random.Random("oracle-cross")
    for gi, graph in enumerate(connected_graphs_up_to(5)):
        a = agent_with(random_profile(rng, graph.vertices))
        for n in (1, 2, 3):
            assert oracle.pmms(graph, a, n).value == naive_pmms(graph, a, n)
            assert oracle.mms(graph, a, n).value == naive_mms(graph, a, n)


def test_pmms_matches_naive_on_disconnected_graphs():
    rng = random.Random("oracle-disc")
    graphs = [
        GoodsGraph.build(
            ["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c"), ("d", "e")]
        ),
        # Components of 4, 2 and 1 vertices: the component DP reads several
        # k per component, and n = |V| + 1 leaves some bundle empty.
        GoodsGraph.build(
            ["a", "b", "c", "d", "e", "f", "g"],
            [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("e", "f")],
        ),
    ]
    for g in graphs:
        for _ in range(10):
            a = agent_with(random_profile(rng, g.vertices))
            for n in range(1, len(g.vertices) + 2):
                rec = oracle.pmms(g, a, n)
                assert rec.value == naive_pmms(g, a, n)
                assert packing_problems(enumerate(rec.witness, 1), g) == []
                assert min(a.value(b) for b in rec.witness) == rec.value
                expected = naive_mms(g, a, n)
                if expected is None:
                    with pytest.raises(UndefinedMmsError):
                        oracle.mms(g, a, n)
                else:
                    rec = oracle.mms(g, a, n)
                    assert rec.value == expected
                    assert is_partition_of(rec.witness, g)
                    assert min(a.value(b) for b in rec.witness) == rec.value


def flat_agent(graph: GoodsGraph, rng: random.Random) -> Agent:
    return agent_with({v: rng.randint(8, 12) for v in graph.vertices})


def union(*graphs: GoodsGraph) -> GoodsGraph:
    """The disjoint union, with each graph's vertices tagged by its position."""
    names = [f"{i}{v}" for i, g in enumerate(graphs) for v in g.vertices]
    edges = [(f"{i}{a}", f"{i}{b}") for i, g in enumerate(graphs) for a, b in g.edges]
    return GoodsGraph.build(names, edges)


def share_sweeps() -> list[tuple[str, GoodsGraph, Agent]]:
    """(kind, graph, agent) triples, each graph with raw and flat agents.

    Block-cactus graphs go to the block DP, multipartite and split graphs
    to the search, and one union of three components to both.
    """
    rng = random.Random("share-sweeps")
    graphs = []
    for seed in range(6):
        graphs.append(("cactus", gen.gen_block_cactus(seed, 14, 2, 20)))
        graphs.append(("multipartite", gen.gen_multipartite(seed, 11, 2, 20)))
        graphs.append(("split", gen.gen_split(seed, 10, 2, 20)))
    pieces = [gen.gen_block_cactus(9, 6, 1, 20), gen.gen_split(9, 5, 1, 20), gen.gen_split(9, 2, 1, 20)]
    g = union(*(inst.graph for inst in pieces))
    raw = {f"{i}{v}": x for i, inst in enumerate(pieces) for v, x in inst.agents[0].utility.items()}
    sweeps = [("union", g, agent_with(raw)), ("union", g, flat_agent(g, rng))]
    for kind, inst in graphs:
        for a in inst.agents:
            sweeps += [(kind, inst.graph, a), (kind, inst.graph, flat_agent(inst.graph, rng))]
    return sweeps


def test_shares_never_rise_with_the_bundle_count():
    # Merging two bundles of an (n + 1)-bundle packing or partition, or
    # dropping an empty one, gives an n-bundle one whose least bundle is no
    # lighter.
    sweeps = share_sweeps()
    assert any(len(connected_components(g)) > 1 for _, g, _ in sweeps)
    for kind, g, a in sweeps:
        m = len(g.vertices)
        shares = [oracle.pmms(g, a, n).value for n in range(1, m + 2)]
        assert shares == sorted(shares, reverse=True), (kind, shares)
        first = len(connected_components(g))
        shares = [oracle.mms(g, a, n).value for n in range(first, m + 2)]
        assert shares == sorted(shares, reverse=True), (kind, shares)


def count_searches(monkeypatch) -> list[tuple[int, int]]:
    """Record the (vertex mask, bundle count) of every exhaustive search."""
    calls: list[tuple[int, int]] = []
    search = oracle._minmax_partition_search

    def counted(adj, full, wts, n, floor=None):
        calls.append((full, n))
        return search(adj, full, wts, n, floor=floor)

    monkeypatch.setattr(oracle, "_minmax_partition_search", counted)
    return calls


def test_pmms_runs_only_the_searches_it_reads(monkeypatch):
    calls = count_searches(monkeypatch)
    names = ["a", "b", "c", "d", "e", "f"]
    g = GoodsGraph.build(
        names, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("b", "e")]
    )
    a = agent_with({v: i + 1 for i, v in enumerate(names)})
    for n in range(1, len(names) + 2):
        calls.clear()
        rec = oracle.pmms(g, a, n)
        # Every block has at most 4 vertices, so the threshold DP gives the
        # value and the share runs no search.
        assert calls == [], n
        rec.witness
        # Reading the witness runs one search for the whole graph at k = n;
        # none for one bundle or for more bundles than vertices.
        assert calls == ([(0b111111, n)] if 2 <= n <= len(names) else []), n
    calls.clear()
    oracle.mms(g, a, 1).witness
    assert calls == []

    disc = GoodsGraph.build(
        ["a", "b", "c", "d", "e", "f", "g"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("e", "f")],
    )
    a = agent_with({v: 1 for v in disc.vertices})
    for n in range(1, len(disc.vertices) + 2):
        calls.clear()
        rec = oracle.pmms(disc, a, n)
        assert calls == [], n
        rec.witness
        assert len(calls) == len(set(calls)), n
        assert all(k >= 2 for _, k in calls), n


def test_connected_graph_runs_one_search_for_both_shares(monkeypatch):
    calls = count_searches(monkeypatch)
    names = ["a", "b", "c", "d", "e"]
    g = GoodsGraph.build(names, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("b", "d")])
    a = agent_with({v: i + 2 for i, v in enumerate(names)})
    for n in (2, 3):
        for first, second in ((oracle.pmms, oracle.mms), (oracle.mms, oracle.pmms)):
            oracle.clear_cache()
            calls.clear()
            rec = first(g, a, n)
            assert second(g, a, n) is rec
            assert calls == []
            assert is_partition_of(rec.witness, g)
            assert calls == [(0b11111, n)]


def test_shares_stay_apart_on_two_components(monkeypatch):
    # The criterion-2 graph: covering forces the isolated vertex into a bundle.
    calls = count_searches(monkeypatch)
    g = GoodsGraph.build(["x", "y", "z"], [("x", "y")])
    a = agent_with({"x": 2, "y": 2, "z": 1})
    for first, second in ((oracle.pmms, oracle.mms), (oracle.mms, oracle.pmms)):
        oracle.clear_cache()
        calls.clear()
        one = first(g, a, 2)
        other = second(g, a, 2)
        assert one is not other
        by_share = {first: one, second: other}
        assert calls == []
        one.witness, other.witness
        # Only the pmms witness searches, for two bundles in {x, y}; mms gives
        # each component one bundle, which needs no search.
        assert calls == [(0b011, 2)]
        assert by_share[oracle.mms].value == 1
        assert by_share[oracle.pmms].value == 2
        assert is_partition_of(by_share[oracle.mms].witness, g)


def test_search_stops_at_the_ceiling_on_a_flat_multipartite_graph(monkeypatch):
    # A flat 12-vertex complete multipartite instance whose three-bundle
    # share is total // 3, the most any three bundles can give.  The search
    # returns at the first partition that reaches it; without that stop and
    # the integer cut it ran 54 connectivity checks here.  The count also
    # holds pmms's own component walk of the whole graph, one more than the
    # search's 12.
    g = gen.gen_multipartite(13, 12, 3, 20).graph
    rng = random.Random(13)
    a = agent_with({v: rng.randint(8, 12) for v in g.vertices})
    checks = []
    walk = oracle._components

    def counted(adj, mask):
        checks.append(mask)
        return walk(adj, mask)

    monkeypatch.setattr(oracle, "_components", counted)
    rec = oracle.pmms(g, a, 3)
    assert rec.value == sum(a.utility.values()) // 3 == 37
    assert len(checks) == 13


def test_search_stops_at_the_heavy_vertex_ceiling(monkeypatch):
    # Agent 1 of this 11-vertex, 3-agent instance has one vertex worth 81 of
    # 161.  Whichever bundle holds it, the other two share at most 80, so no
    # partition reaches total // 3 = 53 and the share is (161 - 81) // 2.
    # Stopping there takes 10 connectivity checks; stopping only at
    # total // 3 ran the search to exhaustion in 258.  pmms's own component
    # walk of the whole graph makes the count 11.
    inst = gen.gen_multipartite(0, 11, 3, 20)
    a = inst.agents[0]
    total = sum(a.utility.values())
    heaviest = max(a.utility.values())
    assert heaviest * 3 > total
    checks = []
    walk = oracle._components

    def counted(adj, mask):
        checks.append(mask)
        return walk(adj, mask)

    monkeypatch.setattr(oracle, "_components", counted)
    rec = oracle.pmms(inst.graph, a, 3)
    assert rec.value == (total - heaviest) // 2 == 40 < total // 3
    assert len(checks) == 11


def test_search_stops_growing_bundles_that_cannot_win(monkeypatch):
    # A flat 10-vertex split instance whose three-bundle share, 31, is below
    # total // 3 = 32, so the search runs to exhaustion.  Growing a bundle
    # after it leaves too little for the later ones, or after best reached
    # its level's running minimum, never reaches a connectivity check: the
    # search's check count stays 11, while the bundles grown fell from 949
    # to 95.  The search runs on the graph's own labels: pmms searches a
    # relabelled view for the value, so the pins would not be these.
    g = gen.gen_split(2, 10, 3, 20, 1).graph
    rng = random.Random(2)
    a = agent_with({v: rng.randint(8, 12) for v in g.vertices})
    wts, _ = oracle._weights_for(a, list(g.vertices))
    checks = []
    walk = oracle._components

    def counted(adj, mask):
        checks.append(mask)
        return walk(adj, mask)

    monkeypatch.setattr(oracle, "_components", counted)
    grown = 0

    def profile(frame, event, arg):
        nonlocal grown
        if event == "call" and frame.f_code.co_name == "grow":
            grown += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        value, _ = oracle._minmax_partition_search(g.neighbor_masks, (1 << 10) - 1, wts, 3)
    finally:
        sys.setprofile(previous)
    assert value == 31 < sum(wts) // 3
    assert len(checks) == 11
    assert grown <= 95


def test_search_stops_at_a_remainder_without_room_for_its_bundles(monkeypatch):
    # A flat 12-vertex split instance whose four-bundle share, 28, is below
    # total // 4 = 29, so the search runs to exhaustion.  Closing a bundle
    # often strands independent vertices; once a partition worth best is
    # known, a remainder with a component worth less than best + 1, or whose
    # components hold fewer than the bundles still to come at best + 1 each,
    # is left at once.  Counting only its components, the search made 1930
    # connectivity checks here and grew 3279 bundles; now it makes 430 and
    # grows 847.  The search runs on the graph's own labels, as above.
    g = gen.gen_split(2, 12, 4, 20, 1).graph
    rng = random.Random(2)
    a = agent_with({v: rng.randint(8, 12) for v in g.vertices})
    wts, _ = oracle._weights_for(a, list(g.vertices))
    checks = []
    walk = oracle._components

    def counted(adj, mask):
        checks.append(mask)
        return walk(adj, mask)

    monkeypatch.setattr(oracle, "_components", counted)
    grown = 0

    def profile(frame, event, arg):
        nonlocal grown
        if event == "call" and frame.f_code.co_name == "grow":
            grown += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        value, _ = oracle._minmax_partition_search(g.neighbor_masks, (1 << 12) - 1, wts, 4)
    finally:
        sys.setprofile(previous)
    assert value == 28 < sum(wts) // 4
    assert len(checks) == 430
    assert grown == 847


def test_negative_utilities_are_rejected():
    # The searches and the threshold DP assume nonnegative weights.  Here
    # the oracle would report 0 where the three-bundle share is -4.
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    a = agent_with({"a": -4, "b": -1, "c": -4})
    calls = (
        lambda: oracle.mms(g, a, 3),
        lambda: oracle.pmms(g, a, 3),
        lambda: oracle.max_min_ratio_allocation(g, [a], {1: Fraction(1)}),
    )
    for call in calls:
        with pytest.raises(InvalidInputError, match="negative value at 'a'"):
            call()


def inexact_probes() -> dict:
    """Public calls that meet a float or a bool, with the error each must raise."""
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    a = agent_with({"a": 1, "b": 1, "c": 1})
    b = Agent(id=2, type_id=2, utility=dict(a.utility))
    floaty = Agent(id=1, type_id=1, utility={"a": Fraction(1), "b": 0.5, "c": Fraction(1)})
    truthy = Agent(id=2, type_id=2, utility={"a": Fraction(1), "b": Fraction(1), "c": True})
    inst = Instance(graph=g, agents=(floaty,))
    alloc = Allocation(bundles=((1, frozenset(g.vertices)),), target_alpha=Fraction(1, 2))
    return {
        "float utility": (lambda: oracle.pmms(g, floaty, 2), "agent 1 has 0.5 at 'b'"),
        "float utility, certified": (
            lambda: check_allocation(inst, alloc, Fraction(1, 2)),
            "agent 1 has 0.5 at 'b'",
        ),
        "bool utility": (
            lambda: oracle.max_min_ratio_allocation(g, [a, truthy], {1: Fraction(1), 2: Fraction(1)}),
            "agent 2 has True at 'c'",
        ),
        "float target": (
            lambda: oracle.max_min_ratio_allocation(g, [a, b], {1: 0.5, 2: Fraction(1)}),
            "target of agent 1 is 0.5",
        ),
        "bool target": (
            lambda: oracle.max_min_ratio_allocation(g, [a, b], {1: Fraction(1), 2: True}),
            "target of agent 2 is True",
        ),
    }


@pytest.mark.parametrize("probe", list(inexact_probes()))
def test_inexact_utilities_and_targets_are_rejected(probe):
    # core.as_value refuses bools and floats; the oracle must too, by name,
    # rather than read True as 1 or fail on a float's missing denominator.
    call, message = inexact_probes()[probe]
    with pytest.raises(InvalidInputError, match=message):
        call()


def test_max_min_ratio_rejects_agents_that_share_an_id():
    # {id: bundle} has one entry per id, so a second agent 1 would lose hers.
    g = GoodsGraph.build(["a", "b"], [("a", "b")])
    a = agent_with({"a": 1, "b": 2})
    twin = Agent(id=1, type_id=2, utility={"a": Fraction(2), "b": Fraction(1)})
    with pytest.raises(InvalidInputError, match="two agents share an id"):
        oracle.max_min_ratio_allocation(g, [a, twin], {1: Fraction(1)})


def test_agents_of_one_type_share_records(monkeypatch):
    calls = count_searches(monkeypatch)
    path = [("a", "b"), ("b", "c"), ("c", "d")]
    two_components = [("a", "b"), ("c", "d")]
    util = {"a": Fraction(3), "b": Fraction(1, 2), "c": Fraction(2), "d": Fraction(5, 2)}
    first = Agent(id=1, type_id=1, utility=util)
    second = Agent(id=2, type_id=1, utility=dict(util))
    for edges in (path, two_components):
        g = GoodsGraph.build(["a", "b", "c", "d"], edges)
        for share in (oracle.pmms, oracle.mms):
            mine = share(g, first, 2)
            searched = len(calls)
            theirs = share(g, second, 2)
            assert len(calls) == searched  # the second agent runs no search
            # A record names no agent, so both agents get the same object.
            assert theirs is mine
            assert share(g, first, 2) is mine


def test_cache_is_bounded_and_drops_the_oldest_first():
    g = GoodsGraph.build(["a", "b"], [("a", "b")])
    limit = oracle._CACHE_LIMIT
    agents = [agent_with({"a": i + 1, "b": 2 * i + 1}) for i in range(limit + 10)]
    records = [oracle.pmms(g, a, 2) for a in agents]
    assert len(oracle._cache) == limit
    assert [r.value for r in records] == [i + 1 for i in range(limit + 10)]
    # The newest entries are hits; the oldest were dropped and are searched again.
    assert oracle.pmms(g, agents[-1], 2) is records[-1]
    again = oracle.pmms(g, agents[0], 2)
    assert again is not records[0] and again == records[0]
    assert len(oracle._cache) == limit


def test_shares_exact_with_coprime_denominators():
    rng = random.Random("oracle-coprime")
    denominators = [2, 3, 5, 7, 11, 13]
    for graph in connected_graphs_up_to(5)[-12:]:
        util = {
            v: Fraction(rng.randint(0, 40), rng.choice(denominators))
            for v in graph.vertices
        }
        a = agent_with(util)
        for n in (1, 2, 3):
            assert oracle.mms(graph, a, n).value == naive_mms(graph, a, n)
            assert oracle.pmms(graph, a, n).value == naive_pmms(graph, a, n)


def test_shares_exact_near_two_to_the_64():
    rng = random.Random("oracle-huge")
    big = 2**64
    for graph in connected_graphs_up_to(5)[-12:]:
        util = {v: big + rng.randint(-5, 5) for v in graph.vertices}
        a = agent_with(util)
        for n in (2, 3):
            assert oracle.mms(graph, a, n).value == naive_mms(graph, a, n)
            assert oracle.pmms(graph, a, n).value == naive_pmms(graph, a, n)
    # Huge numerators over coprime denominators.
    g = GoodsGraph.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    a = Agent(
        id=1,
        type_id=1,
        utility={
            "a": Fraction(big + 1, 3),
            "b": Fraction(big - 1, 7),
            "c": Fraction(big + 3, 5),
            "d": Fraction(big, 11),
        },
    )
    for n in (1, 2, 3, 4):
        assert oracle.mms(g, a, n).value == naive_mms(g, a, n)
        assert oracle.pmms(g, a, n).value == naive_pmms(g, a, n)


def test_bound_separates_values_that_float_quotients_merge():
    # On the path a-b-c with two bundles the search first closes {a | b c}
    # at min = 2^64 + 1, then bounds {a b | c} by c = 2^64 + 3.  As floats
    # the two quotients are equal, so `int / int` would cut the optimum.
    big = 2**64
    assert (big + 3) / 1 == (big + 1) / 1
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    a = agent_with({"a": big + 1, "b": big + 3, "c": big + 3})
    assert naive_mms(g, a, 2) == big + 3
    assert oracle.mms(g, a, 2).value == big + 3
    assert oracle.pmms(g, a, 2).value == big + 3


def test_oracle_searches_stay_in_exact_arithmetic():
    tree = ast.parse(Path(oracle.__file__).read_text())
    floats = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "float"
    ]
    assert floats == [], f"`float` used at lines {floats}"
    search_fns = {"rec", "grow", "leaf", "assign", "dp", "comp_value", "witness"}
    divisions = [
        (fn.name, node.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in search_fns
        for node in ast.walk(fn)
        if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.Div)
    ]
    assert divisions == [], f"`/` inside a search function: {divisions}"


def test_max_min_ratio_allocation_exact():
    g = GoodsGraph.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    a1 = Agent(id=1, type_id=1, utility={"a": Fraction(4), "b": Fraction(1), "c": Fraction(1), "d": Fraction(1)})
    a2 = Agent(id=2, type_id=2, utility={"a": Fraction(1), "b": Fraction(1), "c": Fraction(1), "d": Fraction(4)})
    targets = {1: Fraction(4), 2: Fraction(4)}
    bundles = oracle.max_min_ratio_allocation(g, [a1, a2], targets)
    # opposite ends are worth 4 to each: both can hit their target exactly
    assert all(a.value(bundles[a.id]) >= targets[a.id] for a in (a1, a2))
    assert "a" in bundles[1] and "d" in bundles[2]
    assert is_partition_of(bundles.values(), g)
    # An int target is exact and reads as its Fraction.
    assert oracle.max_min_ratio_allocation(g, [a1, a2], {1: 4, 2: Fraction(4)}) == bundles


def test_max_min_ratio_has_no_ceiling_at_the_least_even_split():
    # Each agent's share of the path is 1 = total // 2, but the two agents
    # want opposite ends, so both can get 2.  A search that stopped once the
    # score reached min over agents of total // n would return its first
    # leaf, {1: {a}, 2: {b, c, d}}, with score 1.
    g = GoodsGraph.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    a1 = agent_with({"a": 1, "b": 1, "c": 0, "d": 0})
    a2 = Agent(id=2, type_id=2, utility={"a": Fraction(0), "b": Fraction(0), "c": Fraction(1), "d": Fraction(1)})
    bundles = oracle.max_min_ratio_allocation(g, [a1, a2], {1: Fraction(1), 2: Fraction(1)})
    assert bundles == {1: frozenset({"a", "b"}), 2: frozenset({"c", "d"})}


def test_max_min_ratio_zero_target_unconstrained():
    g = GoodsGraph.build(["a", "b"], [("a", "b")])
    a1 = Agent(id=1, type_id=1, utility={"a": Fraction(1), "b": Fraction(1)})
    a2 = Agent(id=2, type_id=2, utility={"a": Fraction(1), "b": Fraction(1)})
    bundles = oracle.max_min_ratio_allocation(g, [a1, a2], {1: Fraction(2), 2: Fraction(0)})
    assert bundles == {1: frozenset({"a", "b"}), 2: frozenset()}
    with pytest.raises(InvalidInputError):
        oracle.max_min_ratio_allocation(g, [a1, a2], {1: Fraction(1), 2: Fraction(-1)})


def test_max_min_ratio_rejects_a_disconnected_graph():
    # the size cap is checked first, then connectivity, then the targets
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b")])
    a1 = Agent(id=1, type_id=1, utility=dict.fromkeys(g.vertices, Fraction(1)))
    a2 = Agent(id=2, type_id=2, utility=dict.fromkeys(g.vertices, Fraction(1)))
    for targets in ({1: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(-1)}, {1: 3}):
        with pytest.raises(StructuralError, match="graph is disconnected"):
            oracle.max_min_ratio_allocation(g, [a1, a2], targets)
    # On the connected path a-b-c a missing target is an error, not target 0.
    path = GoodsGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(InvalidInputError, match="no target for agent 2"):
        oracle.max_min_ratio_allocation(path, [a1, a2], {1: 3})
    big = GoodsGraph.build([f"v{i:02d}" for i in range(oracle.MAX_VERTICES + 1)], [])
    wide = Agent(id=1, type_id=1, utility=dict.fromkeys(big.vertices, Fraction(1)))
    with pytest.raises(SizeLimitError):
        oracle.max_min_ratio_allocation(big, [wide], {1: Fraction(1)})


def test_max_min_ratio_caps_the_agent_count():
    # Each partition fills tables of 2^n entries, so the search time doubles
    # with every agent; past MAX_VERTICES agents it is refused before any
    # other work, even on a 3-vertex path.
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    n = oracle.MAX_VERTICES + 1
    agents = [
        Agent(id=i, type_id=i, utility={"a": Fraction(i), "b": Fraction(1), "c": Fraction(n - i)})
        for i in range(1, n + 1)
    ]
    with pytest.raises(SizeLimitError, match=f"{n} agents"):
        oracle.max_min_ratio_allocation(g, agents, dict.fromkeys(range(1, n + 1), Fraction(1)))


def brute_max_min_ratio(graph, agents, targets):
    """Best min value/target over agents with a positive target."""
    best = None
    for parts in enumerate_connected_partitions(graph, len(agents)):
        for order in permutations(parts):
            cand = min(
                a.value(bundle) / targets[a.id]
                for a, bundle in zip(agents, order)
                if targets[a.id] > 0
            )
            if best is None or cand > best:
                best = cand
    return best


def test_max_min_ratio_brute_force_cross_check():
    rng = random.Random("ratio-cross")
    target_cases = [
        {1: Fraction(3), 2: Fraction(5)},
        {1: Fraction(7, 3), 2: Fraction(11, 4)},
        {1: Fraction(5, 2), 2: Fraction(0), 3: Fraction(9, 7)},
        {1: Fraction(4), 2: Fraction(13, 6), 3: Fraction(5, 3)},
    ]
    cases = [(targets, {i: i for i in targets}) for targets in target_cases]
    # Agents of one type share a utility function but may have different
    # targets; only equal targets with no target-0 agent make one group.
    cases += [
        ({1: Fraction(3), 2: Fraction(3)}, {1: 1, 2: 1}),
        ({1: Fraction(3), 2: Fraction(3), 3: Fraction(3)}, {1: 1, 2: 1, 3: 1}),
        ({1: Fraction(2), 2: Fraction(9, 2)}, {1: 1, 2: 1}),
        ({1: Fraction(7, 2), 2: Fraction(0), 3: Fraction(7, 2)}, {1: 1, 2: 1, 3: 1}),
        ({1: Fraction(4), 2: Fraction(4), 3: Fraction(5, 3)}, {1: 1, 2: 1, 3: 2}),
        ({1: Fraction(5, 2), 2: Fraction(11, 3), 3: Fraction(6)}, {1: 1, 2: 2, 3: 1}),
    ]
    for targets, type_of in cases:
        for graph in connected_graphs_up_to(4)[-6:]:
            profiles: dict[int, dict] = {}
            for i in sorted(targets):
                if type_of[i] not in profiles:
                    profiles[type_of[i]] = random_profile(rng, graph.vertices)
            agents = [
                Agent(id=i, type_id=type_of[i], utility=profiles[type_of[i]])
                for i in sorted(targets)
            ]
            bundles = oracle.max_min_ratio_allocation(graph, agents, targets)
            assert sorted(bundles) == sorted(targets)
            assert is_partition_of(bundles.values(), graph)
            best = brute_max_min_ratio(graph, agents, targets)
            got = min(
                a.value(bundles[a.id]) / targets[a.id] for a in agents if targets[a.id] > 0
            )
            assert got == best


def subset_sums(values: list) -> list:
    """sums[mask]: the total of values[i] over the bits i of mask."""
    sums = [0] * (1 << len(values))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


def least_ratio(*pairs):
    """The least value/target over (value, target) pairs with target > 0.

    None when every target is 0: such agents are unconstrained, so they
    never set the min.
    """
    ratios = [value / target for value, target in pairs if target > 0]
    return min(ratios, default=None)


def better(a, b):
    if a is None or b is None:
        return b if a is None else a
    return max(a, b)


def clique_two_agent_optimum(values, targets):
    """Every subset is connected on a clique: the best of the two
    assignments of (T, V - T), over every subset T."""
    first, second = map(subset_sums, values)
    full = len(first) - 1
    best = None
    for t in range(full + 1):
        rest = full ^ t
        best = better(best, least_ratio((first[t], targets[0]), (second[rest], targets[1])))
        best = better(best, least_ratio((first[rest], targets[0]), (second[t], targets[1])))
    return best


def best_halving(weights: list[int]) -> int:
    """The most the lighter of two bundles can hold: the largest reachable
    subset sum at most half the total, from an int bitset of reachable sums."""
    reach = 1
    for w in weights:
        reach |= reach << w
    half = sum(weights) // 2
    return (reach & ((2 << half) - 1)).bit_length() - 1


def clique_two_type_optimum(a_values, a_target, b_values, b_target):
    """Two agents of type A with one target and one agent of type B: the
    best over B's bundle T of B's ratio and A's best halving of V - T."""
    scale = lcm(*(x.denominator for x in a_values))
    a_ints = [int(x * scale) for x in a_values]
    b_sums = subset_sums(b_values)
    full = len(b_sums) - 1
    best = None
    for t in range(full + 1):
        rest = [w for i, w in enumerate(a_ints) if not t >> i & 1]
        half = Fraction(best_halving(rest), scale)
        best = better(best, least_ratio((b_sums[t], b_target), (half, a_target)))
    return best


def clique_utility(rng: random.Random, kind: str) -> Fraction:
    if kind == "pq":
        return Fraction(rng.randint(0, 20), rng.choice([1, 2, 3, 5, 7]))
    return Fraction(rng.randint(0, 20))


def test_max_min_ratio_reaches_the_subset_sum_optimum_on_cliques():
    # An optimum worked out from subset sums alone, sharing no code with the
    # search: two agents of any types, and three agents of two types, on
    # K2-K12, with int and p/q utilities and with target-0 agents.
    rng = random.Random("ratio-clique")
    for m in range(2, 13):
        names = [f"v{i:02d}" for i in range(m)]
        graph = GoodsGraph.build(names, combinations(names, 2))
        for kind in ("int", "pq", "target 0"):
            rows = [[clique_utility(rng, kind) for _ in names] for _ in range(2)]
            ts = [Fraction(rng.randint(1, 4 * m), rng.randint(1, 3)) for _ in range(2)]
            if kind == "target 0":
                ts[rng.randrange(2)] = Fraction(0)
            cases = [
                ([(1, rows[0], ts[0]), (2, rows[1], ts[1])], clique_two_agent_optimum(rows, ts)),
                (
                    [(1, rows[0], ts[0]), (1, rows[0], ts[0]), (2, rows[1], ts[1])],
                    clique_two_type_optimum(rows[0], ts[0], rows[1], ts[1]),
                ),
            ]
            for spec, optimum in cases:
                # B goes anywhere in the agent order.
                rng.shuffle(spec)
                agents = [
                    Agent(id=i, type_id=type_id, utility=dict(zip(names, row)))
                    for i, (type_id, row, _) in enumerate(spec, 1)
                ]
                targets = {i: t for i, (_, _, t) in enumerate(spec, 1)}
                bundles = oracle.max_min_ratio_allocation(graph, agents, targets)
                assert is_partition_of(bundles.values(), graph)
                got = least_ratio(*((a.value(bundles[a.id]), targets[a.id]) for a in agents))
                assert got == optimum, (m, kind, spec)


def test_max_min_ratio_gives_every_agent_a_bundle():
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    agents = [
        Agent(id=i, type_id=i, utility={"a": Fraction(i), "b": Fraction(1), "c": Fraction(3)})
        for i in (1, 2, 3)
    ]
    for targets in (
        {1: Fraction(0), 2: Fraction(2), 3: Fraction(0)},
        {1: Fraction(0), 2: Fraction(0), 3: Fraction(0)},
    ):
        bundles = oracle.max_min_ratio_allocation(g, agents, targets)
        assert sorted(bundles) == [1, 2, 3]
        assert is_partition_of(bundles.values(), g)
    # four agents on three goods: one of them holds the empty bundle
    fourth = Agent(id=4, type_id=4, utility=dict(agents[0].utility))
    bundles = oracle.max_min_ratio_allocation(g, agents + [fourth], {i: Fraction(0) for i in range(1, 5)})
    assert sorted(bundles) == [1, 2, 3, 4]
    assert sorted(map(len, bundles.values())) == [0, 1, 1, 1]


def test_cache_round_trip():
    oracle.clear_cache()
    g = GoodsGraph.build(["a", "b"], [("a", "b")])
    a = agent_with({"a": 1, "b": 2})
    first = oracle.mms(g, a, 2)
    again = oracle.mms(g, a, 2)
    assert first.value == again.value == 1
    oracle.clear_cache()
    assert oracle.mms(g, a, 2).value == 1


def test_clear_cache_leaves_no_entry_behind():
    # The benchmark charges each operation what a fresh process pays only
    # while clear_cache() empties every cache the package keeps across calls.
    for make, allocate in (
        (gen.gen_block_cactus, allocate_block_cactus),
        (gen.gen_multipartite, allocate_multipartite),
        (gen.gen_split, allocate_split),
    ):
        allocate(make(3, 12, 3, 20))
    assert oracle._cache and oracle._plans
    oracle.clear_cache()
    assert not oracle._cache and not oracle._plans
    for info in pkgutil.iter_modules(graphfair.__path__):
        module = importlib.import_module(f"graphfair.{info.name}")
        objects = list(vars(module).values())
        objects += [v for obj in objects if isinstance(obj, type) for v in vars(obj).values()]
        for obj in objects:
            if hasattr(obj, "cache_info"):
                assert obj.cache_info().currsize == 0, (info.name, obj)
