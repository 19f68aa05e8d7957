"""The benchmark's traced spans and binding sites still exist in the package.

perfbench/tracer.py wraps every public module-level function of every
graphfair module.  perfbench/run.py reports per-layer metrics for the spans
named in LAYER_SPANS, and perfbench/selftest.py checks the binding sites in
EXPECTED_SITES.  A renamed or privatised function drops out of both
silently until a traced run or the self-test notices, so this reads the two
lists from the source (without importing the benchmark) and checks them
against the package, and checks that a small run of each class reaches
every span.
"""

import ast
import importlib
import inspect
import random
import sys
from fractions import Fraction
from pathlib import Path

from graphfair import io, oracle
from graphfair.blockcactus import allocate_block_cactus
from graphfair.core import Agent, Instance
from graphfair.generators import gen_block_cactus, gen_multipartite, gen_split
from graphfair.multipartite import allocate_multipartite
from graphfair.splitgraph import allocate_split
from graphfair.verify import check_allocation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def literal(path: Path, name: str):
    """The literal value assigned to the module-level `name` in `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def is_traced(fn) -> bool:
    """Would the tracer span fn: a public function defined at module level?"""
    if not inspect.isfunction(fn) or fn.__name__.startswith("_"):
        return False
    home = importlib.import_module(fn.__module__)
    return home.__name__.startswith("graphfair.") and vars(home).get(fn.__name__) is fn


def test_layer_spans_name_public_functions():
    spans = literal(PERFBENCH / "run.py", "LAYER_SPANS")
    assert spans
    missing = []
    for prefix, label, _ in spans:
        short, _, name = (label or prefix).partition(".")
        module = importlib.import_module(f"graphfair.{short}")
        fn = vars(module).get(name)
        if not is_traced(fn) or fn.__module__ != module.__name__:
            missing.append(label or prefix)
    assert missing == [], f"LAYER_SPANS names no traced function: {missing}"


def test_expected_sites_still_bind_traced_functions():
    sites = literal(PERFBENCH / "selftest.py", "EXPECTED_SITES")
    assert sites
    unbound = [
        f"{module}.{name}"
        for module, name in sites
        if not is_traced(vars(importlib.import_module(module)).get(name))
    ]
    assert unbound == [], f"EXPECTED_SITES no longer bind a traced function: {unbound}"


def flat(inst: Instance, rng: random.Random) -> Instance:
    """`inst` with near-equal 8..12 utilities, one profile per agent type.

    Flat profiles keep agents bounded, so the class solvers run where raw
    profiles would let the peel serve most agents.
    """
    profiles: dict[int, dict] = {}
    for a in inst.agents:
        if a.type_id not in profiles:
            profiles[a.type_id] = {v: Fraction(rng.randint(8, 12)) for v in inst.graph.vertices}
    agents = tuple(Agent(id=a.id, type_id=a.type_id, utility=profiles[a.type_id]) for a in inst.agents)
    return Instance(graph=inst.graph, agents=agents)


def test_every_layer_span_is_reached():
    # A span that no pipeline code calls reads 0 on every workload, which
    # looks like a layer that costs nothing.  Allocate and cold-certify a few
    # flat instances of each class, as a benchmark operation does, and watch
    # which functions run.
    codes = {}
    for prefix, label, _ in literal(PERFBENCH / "run.py", "LAYER_SPANS"):
        short, _, name = (label or prefix).partition(".")
        codes[label or prefix] = vars(importlib.import_module(f"graphfair.{short}"))[name].__code__
    rng = random.Random("bench-sites:spans")
    cases = (
        [(gen_block_cactus(seed, 11, 3, 20), allocate_block_cactus) for seed in range(4)]
        + [(gen_multipartite(seed, 12, 2, 20), allocate_multipartite) for seed in range(2)]
        + [(gen_split(seed, 10, 2, 20, 2), allocate_split) for seed in range(4)]
    )
    cases = [(flat(inst, rng), allocate) for inst, allocate in cases]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for inst, allocate in cases:
            oracle.clear_cache()
            alloc = allocate(inst)
            oracle.clear_cache()
            records = {a.id: oracle.pmms(inst.graph, a, inst.n) for a in inst.agents}
            cert = check_allocation(inst, alloc, alloc.target_alpha, records)
            assert cert.passes, cert.notes
            io.canonical_dumps(io.allocation_to_doc(inst, cert))
    finally:
        sys.setprofile(None)
    missed = [label for label, code in codes.items() if code not in called]
    assert missed == [], f"no run reached these spans: {missed}"
