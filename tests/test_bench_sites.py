"""The benchmark's traced spans and binding sites still exist in the package.

perfbench/tracer.py wraps every public module-level function of every
graphfair module.  perfbench/run.py reports per-layer metrics for the spans
named in LAYER_SPANS, and perfbench/selftest.py checks the binding sites in
EXPECTED_SITES.  A renamed or privatised function drops out of both
silently until a traced run or the self-test notices, so this reads the two
lists from the source (without importing the benchmark) and checks them
against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

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
