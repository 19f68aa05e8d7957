import ast
import random
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from graphfair import generators as gen
from graphfair import oracle
from graphfair.core import (
    Agent,
    GoodsGraph,
    InvalidInputError,
    SizeLimitError,
    StructuralError,
    UndefinedMmsError,
)
from graphfair.graphs import is_connected_subset

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
    g = GoodsGraph.build(["a"], [])
    a = agent_with({"a": 1})
    with pytest.raises(InvalidInputError):
        oracle.mms(g, a, 0)


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
    # the integer cut it ran 54 connectivity checks here.
    g = gen.gen_multipartite(13, 12, 3, 20).graph
    rng = random.Random(13)
    a = agent_with({v: rng.randint(8, 12) for v in g.vertices})
    checks = []
    count = oracle._component_count

    def counted(adj, mask):
        checks.append(mask)
        return count(adj, mask)

    monkeypatch.setattr(oracle, "_component_count", counted)
    rec = oracle.pmms(g, a, 3)
    assert rec.value == sum(a.utility.values()) // 3 == 37
    assert len(checks) == 12


def test_search_stops_at_the_heavy_vertex_ceiling(monkeypatch):
    # Agent 1 of this 11-vertex, 3-agent instance has one vertex worth 81 of
    # 161.  Whichever bundle holds it, the other two share at most 80, so no
    # partition reaches total // 3 = 53 and the share is (161 - 81) // 2.
    # Stopping there takes 10 connectivity checks; stopping only at
    # total // 3 ran the search to exhaustion in 258.
    inst = gen.gen_multipartite(0, 11, 3, 20)
    a = inst.agents[0]
    total = sum(a.utility.values())
    heaviest = max(a.utility.values())
    assert heaviest * 3 > total
    checks = []
    count = oracle._component_count

    def counted(adj, mask):
        checks.append(mask)
        return count(adj, mask)

    monkeypatch.setattr(oracle, "_component_count", counted)
    rec = oracle.pmms(inst.graph, a, 3)
    assert rec.value == (total - heaviest) // 2 == 40 < total // 3
    assert len(checks) == 10


def test_search_stops_growing_bundles_that_cannot_win(monkeypatch):
    # A flat 10-vertex split instance whose three-bundle share, 31, is below
    # total // 3 = 32, so the search runs to exhaustion.  Growing a bundle
    # after it leaves too little for the later ones, or after best reached
    # its level's running minimum, never reaches a connectivity check: the
    # check count stays 11, while the bundles grown fell from 949 to 95.
    g = gen.gen_split(2, 10, 3, 20, 1).graph
    rng = random.Random(2)
    a = agent_with({v: rng.randint(8, 12) for v in g.vertices})
    checks = []
    count = oracle._component_count

    def counted(adj, mask):
        checks.append(mask)
        return count(adj, mask)

    monkeypatch.setattr(oracle, "_component_count", counted)
    grown = 0

    def profile(frame, event, arg):
        # pmms runs only the share search, so every `grow` frame is its own.
        nonlocal grown
        if event == "call" and frame.f_code.co_name == "grow":
            grown += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        rec = oracle.pmms(g, a, 3)
    finally:
        sys.setprofile(previous)
    assert rec.value == 31 < sum(a.utility.values()) // 3
    assert len(checks) == 11
    assert grown <= 95


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
    search_fns = {"rec", "grow", "leaf", "assign", "dp", "comp_split"}
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
    for targets in ({1: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(-1)}):
        with pytest.raises(StructuralError, match="graph is disconnected"):
            oracle.max_min_ratio_allocation(g, [a1, a2], targets)
    big = GoodsGraph.build([f"v{i:02d}" for i in range(oracle.MAX_VERTICES + 1)], [])
    wide = Agent(id=1, type_id=1, utility=dict.fromkeys(big.vertices, Fraction(1)))
    with pytest.raises(SizeLimitError):
        oracle.max_min_ratio_allocation(big, [wide], {1: Fraction(1)})


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
