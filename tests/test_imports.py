import ast
from pathlib import Path

import graphfair

PACKAGE_DIR = Path(graphfair.__file__).parent
TESTS_DIR = Path(__file__).parent
PERFBENCH_DIR = TESTS_DIR.parent / "perfbench"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, in quoted annotations too, plus those in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def test_no_module_imports_a_name_it_never_uses():
    # The tests and the benchmark too: a script that stops calling a
    # function keeps no stale import of it.
    paths = [p for d in (PACKAGE_DIR, TESTS_DIR, PERFBENCH_DIR) for p in sorted(d.glob("*.py"))]
    assert any(p.parent == PERFBENCH_DIR for p in paths)
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree)
        for name, line in imported_names(tree).items():
            if name not in used:
                unused.append(f"{path.parent.name}/{path.name}:{line} {name}")
    assert unused == [], f"imported and never used: {unused}"


def test_unused_import_check_sees_what_it_should():
    tree = ast.parse(
        "import os\n"
        "import json as js\n"
        "from x import a, b as bee, c, d\n"
        "__all__ = ['c']\n"
        "def f(v: 'a') -> None:\n"
        "    return js.dumps(v)\n"
    )
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"os", "bee", "d"}


def test_no_module_imports_from_typing():
    # typing's subscription cache keeps every class it was subscripted with
    # alive, and through it every re-imported copy of the package; the
    # collections.abc generics cache nothing.
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "typing":
                offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Import) and any(
                alias.name == "typing" for alias in node.names
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == [], f"imports from typing: {offenders}"
