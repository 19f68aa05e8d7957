"""End-to-end acceptance suite, one test per criterion, in order.

Criterion 8 replays every oracle value the earlier suites computed, so the
module keeps a shared RESULTS list and the tests must run in file order
(pytest's default).  Each test prints a "[criterion N] PASS" line; run with
-v to get the same information as one PASSED row per test.

Several suites mix generator output with flattened utility profiles.  The
generators' integer profiles usually let every agent peel a single vertex,
which resolves the instance before the bounded subroutines run; near-equal
profiles keep agents bounded, forcing the interesting code paths.
"""

import json
import random
import time
from fractions import Fraction

from graphfair import generators as gen
from graphfair import blockcactus, cli, io, multipartite, oracle, reduction, splitgraph
from graphfair.blockcactus import allocate_block_cactus
from graphfair.core import Agent, GoodsGraph, GuaranteeViolationError, Instance
from graphfair.multipartite import allocate_multipartite
from graphfair.splitgraph import allocate_split, beta, split_alpha
from graphfair.verify import check_allocation

from naive_oracles import connected_graphs_up_to, naive_mms, random_profile

# (graph, agent, n, pmms value) for every oracle share computed in suites
# one through seven; criterion 8 replays these.
RESULTS: list[tuple[GoodsGraph, Agent, int, Fraction]] = []


def recorded_pmms(graph: GoodsGraph, agent: Agent, n: int) -> oracle.MmsRecord:
    rec = oracle.pmms(graph, agent, n)
    RESULTS.append((graph, agent, n, rec.value))
    return rec


def certificate_records(inst: Instance) -> dict[int, oracle.MmsRecord]:
    return {a.id: recorded_pmms(inst.graph, a, inst.n) for a in inst.agents}


def flat_instance(inst: Instance, tag: str, lo: int = 10, hi: int = 12) -> Instance:
    """Near-equal utilities, one shared profile per agent type."""
    rng = random.Random(f"{tag}")
    per_type: dict[int, dict[str, Fraction]] = {}
    agents = []
    for a in inst.agents:
        if a.type_id not in per_type:
            per_type[a.type_id] = {
                v: Fraction(rng.randint(lo, hi)) for v in inst.graph.vertices
            }
        agents.append(Agent(id=a.id, type_id=a.type_id, utility=per_type[a.type_id]))
    return Instance(graph=inst.graph, agents=tuple(agents))


def test_criterion_1_oracle_matches_naive_partition_filter():
    t0 = time.perf_counter()
    graphs = connected_graphs_up_to(6)
    assert len(graphs) == 1 + 1 + 2 + 6 + 21 + 112
    checks = 0
    for gi, graph in enumerate(graphs):
        rng = random.Random(f"c1:{gi}")
        for _ in range(5):
            agent = Agent(id=1, type_id=1, utility=random_profile(rng, graph.vertices))
            for n in (1, 2, 3):
                expected = naive_mms(graph, agent, n)
                assert expected is not None  # connected, so always defined
                got_mms = oracle.mms(graph, agent, n).value
                got_pmms = recorded_pmms(graph, agent, n).value
                assert got_mms == expected
                assert got_pmms == got_mms
                checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300, elapsed
    print(f"[criterion 1] PASS ({checks} checks, {elapsed:.1f}s)")


def test_criterion_2_two_component_fixture():
    t0 = time.perf_counter()
    graph = GoodsGraph.build(["x", "y", "z"], [("x", "y")])
    agent = Agent(
        id=1,
        type_id=1,
        utility={"x": Fraction(2), "y": Fraction(2), "z": Fraction(1)},
    )
    assert oracle.mms(graph, agent, 2).value == Fraction(1)
    assert oracle.pmms(graph, agent, 2).value == Fraction(2)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1, elapsed
    print(f"[criterion 2] PASS ({elapsed:.3f}s)")


def test_criterion_3_recurrence_closed_form():
    t0 = time.perf_counter()
    for k in range(9):
        assert beta(k, k) == Fraction(4, 7 * 2**k - 3)
        assert Fraction(3, 4) * beta(k, k) == split_alpha(k)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1, elapsed
    print(f"[criterion 3] PASS ({elapsed:.3f}s)")


def test_criterion_4_block_cactus_suite(record):
    t0 = time.perf_counter()
    bounded = record(blockcactus, "allocate_bounded")
    reductions = record(blockcactus, "allocate_reduction")
    carve_calls = record(blockcactus, "greedy_prefix_carve")
    absorbs = carves = 0
    for seed in range(200):
        inst = gen.gen_block_cactus(seed, 6 + seed % 7, 1 + seed % 4, 20)
        if seed % 3 == 0:
            inst = flat_instance(inst, f"flat:{seed}", lo=8, hi=12)
        for calls in (bounded, reductions, carve_calls):
            calls.clear()
        alloc = allocate_block_cactus(inst)
        cert = check_allocation(inst, alloc, Fraction(1, 2), certificate_records(inst))
        assert cert.passes, (seed, cert.notes, cert.min_ratio)
        # Replay the recursion: every bounded call, including the one after
        # each carve, and every absorb's re-entry into the reduction with
        # the rim folded in, must still let every agent reach her unchanged
        # target.  Only an absorb passes targets to the reduction.
        folds = [c for c in reductions if c.kwargs.get("targets") is not None]
        states = [c.args for c in bounded] + [
            (c.args[0].graph, c.args[0].agents, c.kwargs["targets"]) for c in folds
        ]
        for graph, agents, targets in states:
            for a in agents:
                assert oracle.mms(graph, a, len(agents)).value >= targets[a.id], (seed, a.id)
        absorbs += len(folds)
        carves += len(carve_calls)
    assert absorbs > 0 and carves > 0, (absorbs, carves)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600, elapsed
    print(f"[criterion 4] PASS (absorb={absorbs}, carve={carves}, {elapsed:.1f}s)")


def test_criterion_5_multipartite_suite(record):
    t0 = time.perf_counter()
    bounded_calls = record(multipartite, "allocate_bounded_multipartite")
    for seed in range(200):
        if seed % 3 == 2:
            inst = flat_instance(
                gen.gen_multipartite(seed, 10 + seed % 3, 2, 20), f"mpflat:{seed}"
            )
        else:
            na = 1 + seed % 3
            nv = {1: 4 + seed % 9, 2: 10 + seed % 3, 3: 11 + seed % 2}[na]
            inst = gen.gen_multipartite(seed, nv, na, 20)
        try:
            alloc = allocate_multipartite(inst)
        except GuaranteeViolationError as exc:
            raise AssertionError(f"runtime assertion fired at seed {seed}: {exc}")
        cert = check_allocation(inst, alloc, Fraction(1, 4), certificate_records(inst))
        assert cert.passes, (seed, cert.notes, cert.min_ratio)
    # the reduction serves a lone agent itself, so every call splits
    assert all(len(c.args[2]) >= 2 for c in bounded_calls)
    bounded = len(bounded_calls)
    assert bounded > 0  # the bounded path must actually be exercised
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600, elapsed
    print(f"[criterion 5] PASS (bounded calls={bounded}, {elapsed:.1f}s)")


def test_criterion_6_split_suite(record):
    t0 = time.perf_counter()
    merge_calls = record(splitgraph, "merge_packings")
    kernel_calls = record(splitgraph, "contract_to_kernel")
    kernel_solves = record(oracle, "max_min_ratio_allocation")
    for seed in range(200):
        if seed % 3 == 2:
            inst = flat_instance(
                gen.gen_split(seed, 10 + seed % 3, 2, 20, n_types=1 + (seed // 3) % 2),
                f"spflat:{seed}",
            )
        else:
            inst = gen.gen_split(seed, 4 + seed % 9, 1 + seed % 4, 20)
        p = len({a.type_id for a in inst.agents})
        alpha = split_alpha((p - 1).bit_length())
        alloc = allocate_split(inst)
        assert alloc.target_alpha == alpha, seed
        cert = check_allocation(inst, alloc, alpha, certificate_records(inst))
        assert cert.passes, (seed, cert.notes, cert.min_ratio)
    merges, kernels = len(merge_calls), len(kernel_calls)
    assert merges > 0 and kernels > 0, (merges, kernels)

    for call in merge_calls:
        left, right, owners, independent = call.args
        packs = left + right
        assert len(call.result) == len(packs) == len(owners)
        for old, new, owner in zip(packs, call.result, owners):
            util = owner.utility
            assert len(new) == len(old)
            for was, now in zip(old, new):
                assert now - independent == was - independent, (was, now)
                assert now <= was, (was, now)
                before = sorted((util[v] for v in was & independent), reverse=True)
                after = sorted((util[v] for v in now & independent), reverse=True)
                # losing a contested vertex is always paid for by a kept
                # one: the j-th best survivor beats the 2j-th best original
                for j in range(1, len(before) // 2 + 1):
                    assert after[j - 1] >= before[2 * j - 1], (was, now)

    # Folding keeps each bundle's value to the owner of its packing, and
    # the complete-graph solve on every kernel reaches 3/4 of each target.
    for call in kernel_calls:
        _, _, seq, agents = call.args
        kern = call.result
        kernel_vertices = frozenset(kern.graph.vertices)
        types = sorted({a.type_id for a in agents})
        for a, folded_agent in zip(agents, kern.agents):
            assert folded_agent.id == a.id
            for bundle in seq[types.index(a.type_id)]:
                folded = folded_agent.value(bundle & kernel_vertices)
                assert folded == a.value(bundle), (a.id, bundle)
    assert len(kernel_solves) == kernels
    for call in kernel_solves:
        _, agents, targets = call.args
        for a in agents:
            assert a.value(call.result[a.id]) >= Fraction(3, 4) * targets[a.id], call.args
    elapsed = time.perf_counter() - t0
    assert elapsed <= 900, elapsed
    print(f"[criterion 6] PASS (merges={merges}, kernels={kernels}, {elapsed:.1f}s)")


def plant_heavy(inst: Instance, seed: int) -> Instance:
    """Give agent 1 one vertex worth more than everything else combined."""
    rng = random.Random(f"plant:{seed}")
    target = inst.agents[0]
    v_star = rng.choice(list(inst.graph.vertices))
    util = dict(target.utility)
    rest = sum((util[v] for v in util if v != v_star), Fraction(0))
    util[v_star] = rest + 1
    agents = tuple(
        Agent(id=a.id, type_id=a.type_id, utility=util) if a.id == target.id else a
        for a in inst.agents
    )
    return Instance(graph=inst.graph, agents=agents)


def test_criterion_7_reduction_suite(record):
    t0 = time.perf_counter()
    peels = record(reduction, "peel_heavy_vertices")
    for seed in range(100):
        cls = seed % 3
        if cls == 0:
            inst = plant_heavy(gen.gen_block_cactus(seed, 8 + seed % 5, 2 + seed % 3, 20), seed)
            allocate, alpha = allocate_block_cactus, Fraction(1, 2)
        elif cls == 1:
            na = 2 + seed % 2
            nv = {2: 10 + seed % 3, 3: 11 + seed % 2}[na]
            inst = plant_heavy(gen.gen_multipartite(seed, nv, na, 20), seed)
            allocate, alpha = allocate_multipartite, Fraction(1, 4)
        else:
            na = 2 + seed % 3
            inst = plant_heavy(gen.gen_split(seed, 8 + seed % 5, na, 20, n_types=na), seed)
            allocate, alpha = allocate_split, split_alpha((na - 1).bit_length())
        peels.clear()
        alloc = allocate(inst)
        assert {aid for aid, _ in alloc.bundles} == {a.id for a in inst.agents}
        # the first peel is the top-level one; later peels are re-entries
        peel = peels[0].result
        assert 1 in {aid for _, aid in peel.heavy}, seed
        assert len(peel.residual_agents) == inst.n - len(peel.heavy), seed
        # every heavy pick is final and every other agent was routed to a
        # component, which serves her inside it
        for v, aid in peel.heavy:
            assert alloc.bundle_of(aid) == frozenset({v}), (seed, aid)
        for aid in peel.residual_agents:
            bundle = alloc.bundle_of(aid)
            assert bundle and any(bundle <= comp for comp in peel.components), (seed, aid)
        cert = check_allocation(inst, alloc, alpha, certificate_records(inst))
        assert cert.passes, (seed, cert.notes, cert.min_ratio)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300, elapsed
    print(f"[criterion 7] PASS ({elapsed:.1f}s)")


def test_criterion_8_monotonicity_and_total_value_bound():
    t0 = time.perf_counter()
    assert len(RESULTS) > 3000  # suites 1..7 must have run first
    violations = 0
    for idx, (graph, agent, n, value) in enumerate(RESULTS):
        if agent.value(frozenset(graph.vertices)) < n * value:
            violations += 1
        if n > 1:
            m = 1 + idx % (n - 1)
            if oracle.pmms(graph, agent, m).value < value:
                violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    print(f"[criterion 8] PASS ({len(RESULTS)} results replayed, {elapsed:.1f}s)")


def test_criterion_9_cli_round_trip(tmp_path):
    t0 = time.perf_counter()
    for cls in sorted(gen.GENERATORS):
        for seed in range(30):
            if cls == "block-cactus":
                nv, na = 6 + seed % 7, 1 + seed % 4
            elif cls == "multipartite":
                na = 1 + seed % 3
                nv = {1: 4 + seed % 9, 2: 10 + seed % 3, 3: 11 + seed % 2}[na]
            else:
                nv, na = 4 + seed % 9, 1 + seed % 4
            inst_path = tmp_path / f"{cls}-{seed}.json"
            alloc_path = tmp_path / f"{cls}-{seed}-alloc.json"
            rc = cli.main(
                [
                    "gen",
                    "--class",
                    cls,
                    "--seed",
                    str(seed),
                    "--vertices",
                    str(nv),
                    "--agents",
                    str(na),
                    "--out",
                    str(inst_path),
               ]
            )
            assert rc == 0, (cls, seed)

            text = inst_path.read_text(encoding="utf-8")
            parsed, names = io.parse_instance_doc(json.loads(text))
            assert io.canonical_dumps(io.instance_to_doc(parsed, names)) == text
            # reversing every object's key order must not change the canonical bytes
            scrambled = json.dumps(
                json.loads(text, object_pairs_hook=lambda kv: dict(reversed(kv)))
            )
            assert list(json.loads(scrambled)) == ["graph", "agents"]
            parsed, names = io.parse_instance_doc(json.loads(scrambled))
            assert io.canonical_dumps(io.instance_to_doc(parsed, names)) == text

            rc = cli.main(["allocate", str(inst_path), "--out", str(alloc_path)])
            assert rc == 0, (cls, seed)

            inst, _ = io.load_instance(str(inst_path))
            if cls == "block-cactus":
                alpha = "1/2"
            elif cls == "multipartite":
                alpha = "1/4"
            else:
                p = len({a.type_id for a in inst.agents})
                a = split_alpha((p - 1).bit_length())
                alpha = f"{a.numerator}/{a.denominator}"
            rc = cli.main(["verify", str(inst_path), str(alloc_path), "--alpha", alpha])
            assert rc == 0, (cls, seed)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 180, elapsed
    print(f"[criterion 9] PASS ({elapsed:.1f}s)")
