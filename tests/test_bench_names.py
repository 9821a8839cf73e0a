"""The benchmark times layers by wrapping sigmine functions from outside, at
the names their callers look them up under (bench/layers.py), and builds its
workloads from sigmine's public names (bench/workloads.py).  A renamed
function or a dropped re-export would silently stop a per-layer metric, or
fail only when the benchmark runs."""

import ast
import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "sigmine"


def _bench(module: str):
    """The module `module` of bench/, imported as the benchmark imports it."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(str(BENCH))


def _wrapped():
    """bench/layers.py's WRAPPED: (owner, attribute, span name, counter)."""
    return _bench("layers").WRAPPED


def test_bench_wrapped_names_resolve():
    for owner, attr, name, _ in _wrapped():
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_bench_workloads_and_searches_resolve():
    # the workloads import sigmine's names at import time; the searches whose
    # heap use the benchmark measures are patched by (owner, attribute)
    assert _bench("workloads").WORKLOADS
    for owner, attr in _bench("layers").SEARCHES:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def _imported_names(tree):
    """(name, line) of every top-level import of a module, `__future__` aside."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            yield from ((a.asname or a.name, stmt.lineno) for a in stmt.names)
        elif isinstance(stmt, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], stmt.lineno) for a in stmt.names)


def _exported(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return set(ast.literal_eval(stmt.value))
    return set()


def _unused_imports(path):
    """(name, line) of every top-level import the module at `path` never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [(name, line) for name, line in _imported_names(tree) if name not in used]


def test_unused_imports_are_only_those_the_bench_wraps():
    # an import a module never uses stays only where bench/layers.py wraps
    # the name in that module; once it stops wrapping one, delete the import
    wrapped = {(getattr(owner, "__name__", ""), attr) for owner, attr, _, _ in _wrapped()}
    unused = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in _unused_imports(path)
        if (f"sigmine.{path.stem}", name) not in wrapped
    ]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_tests_and_demos_have_no_unused_imports():
    root = SRC.parents[1]
    unused = [
        f"{path.relative_to(root)}:{line}: {name}"
        for folder in ("tests", "demos", "tools")
        for path in sorted((root / folder).glob("*.py"))
        for name, line in _unused_imports(path)
    ]
    assert not unused, "unused imports: " + ", ".join(unused)
