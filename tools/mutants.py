"""Single-token mutation testing of sigmine's modules.

Each mutant changes one token of one module: a comparison flipped between
strict and non-strict (< and <=, > and >=) or between == and !=, one of
+ - * / swapped for its inverse (+ and -, * and /), or math.ceil swapped
for math.floor (and np.ceil for np.floor).  The repository is copied to a
temporary directory once; each mutant is written into the copy, the named
test files run against it once, stopping at the first failure, and the
module is restored.  A mutant is killed when the tests fail or run longer
than TIMEOUT seconds, and survives when they pass.

    python tools/mutants.py src/sigmine/bounds.py src/sigmine/discovery.py \\
        --tests tests/test_bounds.py tests/test_discovery.py

`--functions` keeps only the sites inside one of the named functions (at
any depth of nesting: a method by its own name), so that a change can
mutate only the code it touched:

    python tools/mutants.py src/sigmine/search.py --functions groups _restrict \\
        --tests tests/test_batched_search.py

The runner uses only the standard library and starts pytest in a
subprocess.  It exits 0 when every mutant is killed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
ROUNDING = {"ceil": "floor", "floor": "ceil"}
TIMEOUT = 600.0  # seconds per test run; a mutant that loops forever counts as killed
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None, str, str]]:
    """Every token of `tree` a mutant can change, in `ast.walk` order, as
    (node, operator slot of a comparison or None, old token, new token)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    found.append((node, j, SYMBOLS[type(op)], SYMBOLS[FLIPS[type(op)]]))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, None, SYMBOLS[type(node.op)], SYMBOLS[SWAPS[type(node.op)]]))
        elif isinstance(node, ast.Attribute) and node.attr in ROUNDING:
            found.append((node, None, node.attr, ROUNDING[node.attr]))
    return found


def selected(tree: ast.AST, functions: list[str] | None) -> list[int]:
    """The indices into `sites(tree)` of the sites inside one of the
    `functions`, first to last, or of every site when None."""
    spans = [
        (node.lineno, node.end_lineno) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in (functions or ())
    ]
    return [
        k for k, (node, *_) in enumerate(sites(tree))
        if functions is None or any(a <= node.lineno <= b for a, b in spans)
    ]


def mutant(source: str, k: int) -> tuple[str, str]:
    """The source with its k-th site changed, and a description of it."""
    tree = ast.parse(source)
    node, slot, old, new = sites(tree)[k]
    text = ast.get_source_segment(source, node).splitlines()[0][:60]
    where = f"line {node.lineno}, `{text}`: {old} -> {new}"
    if slot is not None and len(node.ops) > 1:
        where += f" (operator {slot + 1})"
    if isinstance(node, ast.Compare):
        node.ops[slot] = FLIPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Attribute):
        node.attr = new
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree), where


def run_tests(copy: Path, tests: list[str]) -> bool:
    """Whether the test files pass on the copy."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-o", "addopts=", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module files to mutate, relative to the repository")
    parser.add_argument("--tests", nargs="+", required=True, help="test files to run per mutant")
    parser.add_argument("--functions", nargs="+", help="mutate only inside functions of these names")
    args = parser.parse_args(argv)
    survived = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
        )
        if not run_tests(copy, args.tests):
            print("the tests fail on the unmutated tree", file=sys.stderr)
            return 2
        for module in args.modules:
            target = copy / module
            source = target.read_text()
            for k in selected(ast.parse(source), args.functions):
                text, where = mutant(source, k)
                target.write_text(text)
                killed = not run_tests(copy, args.tests)
                target.write_text(source)
                total += 1
                survived += not killed
                print(f"{'killed  ' if killed else 'SURVIVED'} {module} {where}", flush=True)
    print(f"{total - survived} of {total} mutants killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
