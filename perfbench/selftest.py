"""Self-test of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

It fails (non-zero exit) when

* a binding site of a traced function is not replaced while tracing is
  installed, or not restored afterwards;
* a traced run of any workload fails an operation, or its output bytes
  differ from the untraced run's, or from another run in a process with a
  different string-hash seed;
* a workload stops driving the layer it exists for: cactus must reach the
  block-cactus bounded solver with some agents left unpeeled, split must run
  the kernel ratio search with agents sharing a type, and multipartite must
  never run the ratio search.

It takes about a minute.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_pool  # noqa: E402

# Binding sites that exist in the package today and must be traced.
EXPECTED_SITES = [
    ("graphfair.blockcactus", "recognize"),
    ("graphfair.multipartite", "recognize"),
    ("graphfair.splitgraph", "recognize"),
    ("graphfair.cli", "recognize"),
    ("graphfair.blockcactus", "allocate_reduction"),
    ("graphfair.multipartite", "allocate_reduction"),
    ("graphfair.splitgraph", "allocate_reduction"),
    ("graphfair.blockcactus", "greedy_prefix_carve"),
    ("graphfair.multipartite", "greedy_prefix_carve"),
    ("graphfair.oracle", "pmms"),
    ("graphfair.oracle", "mms"),
    ("graphfair.oracle", "max_min_ratio_allocation"),
]

GUARDS = {
    "cactus": [
        ("blockcactus.allocate_bounded.calls", lambda v: v > 0),
        ("reduction.peel_ratio", lambda v: v < 1),
    ],
    "split": [
        ("oracle.ratio.calls", lambda v: v > 0),
        ("agents.shared_type_share", lambda v: v > 0),
    ],
    "multipartite": [("oracle.ratio.calls", lambda v: v == 0)],
}


def check_binding_sites(failures: list[str]) -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    lib = run.Lib()
    tracer = Tracer()
    modules = {name: sys.modules[name] for name, _ in EXPECTED_SITES}
    originals = {site: getattr(modules[site[0]], site[1]) for site in EXPECTED_SITES}
    sites = tracer.install()
    try:
        for site in EXPECTED_SITES:
            bound = getattr(modules[site[0]], site[1])
            if site not in sites or getattr(bound, "__wrapped__", None) is not originals[site]:
                failures.append(f"{site[0]}.{site[1]} is not traced while tracing is installed")
        for workload in WORKLOADS.values():
            inst = make_pool(lib, workload, seed=7)[0]
            if run.Runner(lib, workload, run.HostSpeed(), tracer).solve(0, inst) is None:
                failures.append(f"{workload.name}: traced solve failed")
        if not tracer.stats["oracle.pmms"].calls:
            failures.append("no oracle.pmms span was recorded")
    finally:
        tracer.uninstall()
    for site in EXPECTED_SITES:
        if getattr(modules[site[0]], site[1]) is not originals[site]:
            failures.append(f"{site[0]}.{site[1]} was not restored after tracing")


def traced_run(workload: str, hash_seed: str) -> tuple[dict, dict]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} run exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digests = dict(line.split()[:2] for line in lines if line.split()[0].endswith("digest"))
    return json.loads(lines[-1]), digests


def check_runs(failures: list[str]) -> None:
    for name in WORKLOADS:
        first, first_digests = traced_run(name, "1")
        second, second_digests = traced_run(name, "2")
        if not (first["correct"] and first["failed"] == 0):
            failures.append(f"{name}: traced run is not correct: {first}")
        if first_digests["digest"] != first_digests["traced_digest"]:
            failures.append(f"{name}: traced and untraced outputs differ")
        if first_digests != second_digests:
            failures.append(f"{name}: outputs differ between runs of the same seed")
        metrics = {k: v["value"] for k, v in first["metrics"].items()}
        for metric, holds in GUARDS.get(name, []):
            if not holds(metrics[metric]):
                failures.append(f"{name}: coverage guard failed on {metric} = {metrics[metric]}")
        print(f"{name}: digest {first_digests['digest'][:16]}, "
              + ", ".join(f"{m} = {metrics[m]:.3g}" for m, _ in GUARDS.get(name, [])))


def main() -> int:
    failures: list[str] = []
    check_binding_sites(failures)
    check_runs(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
