"""graphfair benchmark: cold allocate and certify latency per workload.

Run from the repository root:

    python3 perfbench/run.py --workload cactus --seed 1 --seconds 30 --trace 0

One client, one process, one thread, closed loop: each instance of the
seeded pool is allocated, then certified, then checked, before the next one
starts; the pool is walked in order, and again from the start if time is
left.  The oracle's share cache is cleared before every timed operation, so
each one pays what a fresh `graphfair allocate` or `graphfair verify` pays;
certify recomputing shares that allocate already had is the policy, not
waste.

Reported times are corrected for host speed.  On a shared host the same
work can take 40% longer from one minute to the next, so a fixed piece of
reference work that uses no graphfair code runs before and after every
operation, and each wall time is scaled by REFERENCE_NOMINAL_S over the
mean of the two reference times around it.  The cyclic garbage collector is
off while the reference work runs, so a collection of garbage an operation
left behind is paid inside the operations, never inside the reference.  The
table also prints the uncorrected wall-clock figures.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 each
instance runs twice, untraced and with spans around every public function
of the package (see tracer.py), and the run reports per-layer metrics per
traced instance plus the tracing overhead.  Either way every output is
certified at a guarantee the benchmark derives itself, and the canonical
allocation bytes of the first DIGEST_INSTANCES instances are hashed; the
digest depends only on the code and the seed.

The last line of standard output is one JSON object; the lines before it
print the same metrics as a table.
"""

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, guarantee, make_pool, shared_type_agents  # noqa: E402

MODULES = (
    "core",
    "graphs",
    "oracle",
    "carve",
    "reduction",
    "blockcactus",
    "multipartite",
    "splitgraph",
    "verify",
    "io",
    "generators",
    "cli",
)
SETUP_REPEATS = 9
PASS_LIMIT = 1.5
MIN_TRACED_INSTANCES = 50
DIGEST_INSTANCES = 50
MAX_REPORTED_ERRORS = 5
REFERENCE_ITERATIONS = 300  # about 1 ms of interpreter work on a quiet host
REFERENCE_NOMINAL_S = 1e-3

END_TO_END_UNITS = {
    "alloc_ms_p50": "ms",
    "alloc_ms_p90": "ms",
    "certify_ms_p50": "ms",
    "certify_ms_p90": "ms",
    "solved_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric prefix, traced function, statistics).  Statistics are per traced
# instance, except max_ms, the longest single call.
LAYER_SPANS = [
    ("oracle.pmms", "oracle.pmms", ("calls", "self_ms", "hits")),
    ("oracle.mms", "oracle.mms", ("calls", "self_ms", "hits")),
    ("oracle.ratio", "oracle.max_min_ratio_allocation", ("calls", "self_ms", "max_ms")),
    ("reduction.allocate_reduction", None, ("calls", "self_ms")),
    ("reduction.peel_heavy_vertices", None, ("calls", "self_ms")),
    ("blockcactus.allocate_bounded", None, ("calls", "self_ms")),
    ("carve.greedy_prefix_carve", None, ("calls", "self_ms")),
    ("multipartite.allocate_bounded_multipartite", None, ("calls", "self_ms")),
    ("splitgraph.build_packing_sequence", None, ("calls", "self_ms")),
    ("splitgraph.merge_packings", None, ("calls",)),
    ("splitgraph.contract_to_kernel", None, ("calls", "self_ms")),
    ("graphs.recognize", None, ("calls", "self_ms")),
    ("graphs.block_cut_tree", None, ("calls", "self_ms")),
    ("verify.check_allocation", None, ("calls", "self_ms")),
    ("graphs.is_connected_subset", None, ("calls", "self_ms")),
    ("io.canonical_dumps", None, ("self_ms",)),
]
STAT_UNITS = {"calls": "calls/inst", "self_ms": "ms/inst", "hits": "hits/inst", "max_ms": "ms"}


def reference_work() -> None:
    """A fixed piece of interpreter work that uses no graphfair code."""
    total = Fraction(0)
    seen = set()
    counts: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        total += Fraction(i % 7, 3)
        m = (i * 2654435761) & 0xFFFF
        seen.add(frozenset((m, i)))
        counts[m & 0xFF] = counts.get(m & 0xFF, 0) + 1


class HostSpeed:
    """Times reference_work() between operations to correct their wall times."""

    def __init__(self):
        self.references: list[float] = []
        self.last = self.probe()

    def probe(self) -> float:
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            self.last = time.perf_counter() - start
        finally:
            gc.enable()
        self.references.append(self.last)
        return self.last

    def timed(self, fn, *args):
        """(result, wall seconds, corrected seconds) of fn(*args)."""
        before = self.last
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        return result, wall, wall * REFERENCE_NOMINAL_S * 2 / (before + self.probe())


class Lib:
    """The package modules of one fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "graphfair" or m.startswith("graphfair.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        pkg = importlib.import_module("graphfair")
        if Path(pkg.__file__).resolve().parent != ROOT / "src" / "graphfair":
            raise ImportError(f"graphfair imported from {pkg.__file__}, not from this checkout")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"graphfair.{name}"))


def setup(workload, seed: int, speed: HostSpeed):
    """Import the package and build the pool, SETUP_REPEATS times.

    Returns the last import and pool with the median wall and corrected cost.
    """
    def build():
        lib = Lib()
        return lib, make_pool(lib, workload, seed)

    walls, costs = [], []
    for _ in range(SETUP_REPEATS):
        (lib, pool), wall, cost = speed.timed(build)
        walls.append(wall)
        costs.append(cost)
    return lib, pool, statistics.median(walls), statistics.median(costs)


@dataclass
class Outcome:
    alloc_s: float
    certify_s: float
    alloc_wall_s: float
    certify_wall_s: float
    output: bytes


class Runner:
    """Times, certifies and checks one instance at a time."""

    def __init__(self, lib, workload, speed: HostSpeed, tracer: Tracer | None = None):
        self.lib = lib
        self.workload = workload
        self.speed = speed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name
            self.tracer.new_operation()

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(what)

    def _certify(self, inst, alloc, alpha):
        records = {a.id: self.lib.oracle.pmms(inst.graph, a, inst.n) for a in inst.agents}
        return self.lib.verify.check_allocation(inst, alloc, alpha, records)

    def solve(self, index: int, inst) -> Outcome | None:
        """Allocate, certify and check one instance; None when an operation failed."""
        lib = self.lib
        module, function = self.workload.allocator
        allocate = getattr(getattr(lib, module), function)
        alpha = guarantee(self.workload, inst)
        self.attempted += 2

        self._phase("allocate")
        lib.oracle.clear_cache()
        try:
            alloc, alloc_wall, alloc_s = self.speed.timed(allocate, inst)
        except Exception:
            self._fail(f"instance {index}: allocate raised\n{traceback.format_exc()}")
            self._fail(f"instance {index}: certify skipped")
            return None

        self._phase("certify")
        lib.oracle.clear_cache()
        try:
            cert, certify_wall, certify_s = self.speed.timed(self._certify, inst, alloc, alpha)
        except Exception:
            self._fail(f"instance {index}: certify raised\n{traceback.format_exc()}")
            return None

        self._phase("check")
        lib.oracle.clear_cache()
        if not (cert.structural_ok and cert.passes):
            self._fail(
                f"instance {index}: certificate fails at alpha {alpha}: "
                f"min_ratio {cert.min_ratio}, notes {list(cert.notes)}"
            )
            return None
        text = lib.io.canonical_dumps(lib.io.allocation_to_doc(inst, cert))
        return Outcome(alloc_s, certify_s, alloc_wall, certify_wall, text.encode("utf-8"))


@dataclass
class Samples:
    """Per-instance operation times; an instance timed twice keeps the median."""

    alloc: dict[int, list[float]] = field(default_factory=dict)
    certify: dict[int, list[float]] = field(default_factory=dict)
    timed_s: float = 0.0
    solved: int = 0

    def add(self, index: int, alloc_s: float, certify_s: float) -> None:
        self.alloc.setdefault(index, []).append(alloc_s)
        self.certify.setdefault(index, []).append(certify_s)
        self.timed_s += alloc_s + certify_s
        self.solved += 1

    def summary(self) -> dict[str, float]:
        alloc_ms = [1e3 * statistics.median(v) for v in self.alloc.values()]
        certify_ms = [1e3 * statistics.median(v) for v in self.certify.values()]
        if len(alloc_ms) < 2:
            return {}
        return {
            "alloc_ms_p50": statistics.median(alloc_ms),
            "alloc_ms_p90": _quantile(alloc_ms, 90),
            "certify_ms_p50": statistics.median(certify_ms),
            "certify_ms_p90": _quantile(certify_ms, 90),
            "solved_per_s": self.solved / self.timed_s,
        }


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _digest(outputs: dict[int, bytes]) -> str:
    h = hashlib.sha256()
    for index in range(DIGEST_INSTANCES):
        h.update(b"%d:" % index)
        h.update(outputs.get(index, b"<missing>"))
    return h.hexdigest()


def measure(lib, workload, pool, seconds: float, speed: HostSpeed) -> dict:
    """Untraced closed loop: the whole pool once, then on until `seconds`.

    Every run measures the same instances whatever the host's speed, so a
    slow minute cannot change the mix behind the percentiles.  Only a pass
    still unfinished at PASS_LIMIT times `seconds` stops early.
    """
    runner = Runner(lib, workload, speed)
    corrected, wall = Samples(), Samples()
    outputs: dict[int, bytes] = {}
    done = 0
    start = time.perf_counter()
    while (done < len(pool) and time.perf_counter() - start < PASS_LIMIT * seconds) or (
        time.perf_counter() - start < seconds
    ):
        index = done % len(pool)
        out = runner.solve(index, pool[index])
        done += 1
        if out is None:
            continue
        corrected.add(index, out.alloc_s, out.certify_s)
        wall.add(index, out.alloc_wall_s, out.certify_wall_s)
        outputs.setdefault(index, out.output)
    return {
        "runners": (runner,),
        "metrics": corrected.summary(),
        "wall": wall.summary(),
        "instances": len(corrected.alloc),
        "digest": _digest(outputs),
    }


def _solve_traced(runner: Runner, tracer: Tracer, index: int, inst) -> Outcome | None:
    tracer.install()
    try:
        return runner.solve(index, inst)
    finally:
        tracer.phase = "other"
        tracer.uninstall()


def measure_traced(lib, workload, pool, seconds: float, speed: HostSpeed) -> dict:
    """Each instance untraced and traced; per-layer metrics per traced instance."""
    tracer = Tracer()
    plain = Runner(lib, workload, speed)
    traced = Runner(lib, workload, speed, tracer)
    plain_s = traced_s = traced_alloc_wall_s = 0.0
    plain_out: dict[int, bytes] = {}
    traced_out: dict[int, bytes] = {}
    mismatched = []
    agents = shared = 0
    count = 0
    start = time.perf_counter()
    while count < min(len(pool), MIN_TRACED_INSTANCES) or (
        count < len(pool) and time.perf_counter() - start < seconds
    ):
        inst = pool[count]
        # Alternate which side goes first, so that state one side leaves
        # behind (such as cached graph adjacency) favours neither.
        if count % 2:
            t = _solve_traced(traced, tracer, count, inst)
            p = plain.solve(count, inst)
        else:
            p = plain.solve(count, inst)
            t = _solve_traced(traced, tracer, count, inst)
        if p is not None and t is not None:
            plain_s += p.alloc_s + p.certify_s
            traced_s += t.alloc_s + t.certify_s
            traced_alloc_wall_s += t.alloc_wall_s
            plain_out[count] = p.output
            traced_out[count] = t.output
            if p.output != t.output:
                mismatched.append(count)
        agents += inst.n
        shared += shared_type_agents(inst)
        count += 1

    def stat(label: str, what: str) -> float:
        s = tracer.stats[label]
        if what == "max_ms":
            return 1e3 * s.max_s
        return {"calls": s.calls, "self_ms": 1e3 * s.self_s, "hits": s.hits}[what] / count

    # A span the package no longer has (renamed, made private, removed) must
    # not read as zero calls or zero time.
    missing = [
        label or prefix for prefix, label, _ in LAYER_SPANS if (label or prefix) not in tracer.stats
    ]
    metrics = {}
    for prefix, label, whats in LAYER_SPANS:
        if (label or prefix) in missing:
            continue
        for what in whats:
            metrics[f"{prefix}.{what}"] = (stat(label or prefix, what), STAT_UNITS[what])
    shares = [tracer.stats[k] for k in ("oracle.pmms", "oracle.mms") if k in tracer.stats]
    share_calls = sum(s.calls for s in shares)
    oracle_alloc_s = sum(
        s.self_s_by_phase.get("allocate", 0.0)
        for label, s in tracer.stats.items()
        if label.startswith("oracle.")
    )
    metrics["oracle.hit_ratio"] = (
        sum(s.hits for s in shares) / share_calls if share_calls else 0.0,
        "ratio",
    )
    metrics["oracle.alloc_share"] = (
        oracle_alloc_s / traced_alloc_wall_s if traced_alloc_wall_s else 0.0,
        "ratio",
    )
    metrics["agents.shared_type_share"] = (shared / agents, "ratio")
    metrics["reduction.peel_ratio"] = (
        tracer.peel_picks / tracer.peel_agents if tracer.peel_agents else 0.0,
        "ratio",
    )
    metrics["trace.overhead_ratio"] = (traced_s / plain_s if plain_s else 0.0, "ratio")
    return {
        "runners": (plain, traced),
        "metrics": metrics,
        "instances": count,
        "digest": _digest(plain_out),
        "traced_digest": _digest(traced_out),
        "mismatched": mismatched,
        "missing": missing,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "graphfair" / "__init__.py").is_file():
        print(f"no graphfair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    speed = HostSpeed()
    lib, pool, setup_wall_s, setup_s = setup(workload, args.seed, speed)
    start = time.perf_counter()
    if args.trace:
        result = measure_traced(lib, workload, pool, args.seconds, speed)
        metrics = result["metrics"]
        correct = (
            not result["mismatched"]
            and not result["missing"]
            and result["digest"] == result["traced_digest"]
        )
    else:
        result = measure(lib, workload, pool, args.seconds, speed)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in result["metrics"].items()}
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        correct = len(metrics) == len(END_TO_END_UNITS)
    measured_s = time.perf_counter() - start
    runners = result["runners"]
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    correct = correct and failed == 0

    for r in runners:
        for err in r.errors:
            print(err, file=sys.stderr)
    print(
        f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} instances={result['instances']} pool={len(pool)} "
        f"measured_s={measured_s:.1f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:14.6f} {unit}")
    print(f"  {'fail_ratio':<48} {failed / attempted:14.6f} ratio ({failed}/{attempted} operations)")
    if not args.trace:
        print("uncorrected wall-clock figures")
        for name, value in result["wall"].items():
            print(f"  {name:<48} {value:14.6f} {END_TO_END_UNITS[name]}")
        print(f"  {'setup_s':<48} {setup_wall_s:14.6f} s")
    print(f"  {'reference_ms (median)':<48} {1e3 * statistics.median(speed.references):14.6f} ms")
    print(f"digest {result['digest']} (outputs of the first {DIGEST_INSTANCES} instances)")
    if args.trace:
        print(f"traced_digest {result['traced_digest']}")
        if result["mismatched"]:
            print(f"  traced output differs on instances {result['mismatched'][:10]}")
        if result["missing"]:
            print(f"  no such traced function: {', '.join(result['missing'])}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
