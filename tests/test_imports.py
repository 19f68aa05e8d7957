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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level names with one leading underscore, each with the index of its statement."""
    defined = {}
    for index, node in enumerate(tree.body):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            targets = []
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = index
    return defined


def names_read(tree: ast.Module) -> set[tuple[str, int]]:
    """(name, index of the module-level statement) for each name or attribute read."""
    reads = set()
    for index, statement in enumerate(tree.body):
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add((node.id, index))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add((node.attr, index))
    return reads


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """module:name for each private definition nothing reads outside its own statement."""
    readers: dict[str, set[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for name, index in names_read(tree):
            readers.setdefault(name, set()).add((module, index))
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, index in private_definitions(tree).items()
        if not readers.get(name, set()) - {(module, index)}
    ]


def test_every_private_name_in_the_package_is_read_by_the_package():
    # A private helper that only the tests call, or a wrapper kept only so
    # that a test can patch it, is dead weight in src/.  A read inside the
    # name's own definition, as in a recursive call, does not count.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    assert len(trees) > 10
    unread = unread_private_names(trees)
    assert unread == [], f"private names nothing in the package reads: {unread}"


def test_private_name_check_sees_what_it_should():
    tree = ast.parse(
        "_used = 1\n"
        "_unused: int = 2\n"
        "__dunder__ = 3\n"
        "def _loop(n):\n"
        "    return _loop(n - 1) + _used\n"
        "class _Kept:\n"
        "    pass\n"
        "def public():\n"
        "    return _Kept()\n"
    )
    assert unread_private_names({"m.py": tree}) == ["m.py:_unused", "m.py:_loop"]
