"""Mutation check of a few checking functions: every mutant must fail a test.

    python .github/mutants.py MODULE:FUNCTION[,FUNCTION...] TEST_FILE...

For each named top-level function of MODULE (a path in the checkout), this
script makes one mutant per comparison operator, swapped with each of its
twins (``<`` with ``<=`` and ``>=``, ``==`` with ``!=``, ``is`` with ``is
not``, ``in`` with ``not in``), one per reference to a comparison function
of the ``operator`` module, swapped with the same twins (``operator.lt``
with ``operator.le`` and ``operator.ge``, and so on), so that a comparison
passed as a function is mutated too, and one per statement, replaced by
``pass`` (the docstring excepted).  It copies the checkout to a temporary
directory, checks that the test files pass there, then writes each mutant
into the copy and runs the test files on it with pytest, stopping at the
first failure; the checkout is never changed.  A mutant survives when the
tests still pass, and counts as killed when they fail or run past ten
times the first pass plus a minute.

It exits 1 when a mutant survives that is not in EQUIVALENT, the mutants
known to behave as the original, each with the reason.  It prints one line
per mutant, then the count and the run time.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a comparison operator -> its strict or non-strict twin and its negation
TWINS = {
    ast.Lt: (ast.LtE, ast.GtE), ast.LtE: (ast.Lt, ast.Gt),
    ast.Gt: (ast.GtE, ast.LtE), ast.GtE: (ast.Gt, ast.Lt),
    ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,),
    ast.Is: (ast.IsNot,), ast.IsNot: (ast.Is,),
    ast.In: (ast.NotIn,), ast.NotIn: (ast.In,),
}

# the operator module's comparison functions -> their twins, as above
_FUNCTIONS = {ast.Lt: "lt", ast.LtE: "le", ast.Gt: "gt", ast.GtE: "ge", ast.Eq: "eq",
              ast.NotEq: "ne"}
FUNCTION_TWINS = {_FUNCTIONS[op]: tuple(_FUNCTIONS[twin] for twin in twins)
                  for op, twins in TWINS.items() if op in _FUNCTIONS}

# (function, mutant as printed) -> why no test can tell it from the
# original; every mutant of the targets in CI is killed today
EQUIVALENT: dict[tuple[str, str], str] = {}


def sites(function: ast.FunctionDef):
    """(description, edit) per mutant of ``function``; ``edit`` applies the
    mutant to a deep copy of it."""
    nodes = list(ast.walk(function))
    for index, node in enumerate(nodes):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                for twin in TWINS[type(op)]:
                    mutated = copy.deepcopy(node)
                    mutated.ops[k] = twin()
                    yield (f"{ast.unparse(node)}  ->  {ast.unparse(mutated)}",
                           _replace(index, lambda old, new=mutated: new))
        if (isinstance(node, ast.Attribute) and node.attr in FUNCTION_TWINS
                and isinstance(node.value, ast.Name) and node.value.id == "operator"):
            for twin in FUNCTION_TWINS[node.attr]:
                mutated = copy.deepcopy(node)
                mutated.attr = twin
                yield (f"{ast.unparse(node)}  ->  {ast.unparse(mutated)}",
                       _replace(index, lambda old, new=mutated: new))
        if isinstance(node, ast.stmt) and node is not function and not _docstring(node):
            yield (f"{ast.unparse(node).splitlines()[0]}  ->  pass",
                   _replace(index, lambda old: ast.copy_location(ast.Pass(), old)))


def _docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _replace(index: int, make):
    """An edit that puts ``make(node)`` in place of the function's
    ``index``-th node in ``ast.walk`` order."""
    def edit(function: ast.FunctionDef) -> ast.FunctionDef:
        function = copy.deepcopy(function)
        target = list(ast.walk(function))[index]
        for parent in ast.walk(function):
            for field, value in ast.iter_fields(parent):
                if value is target:
                    setattr(parent, field, make(target))
                    return function
                if isinstance(value, list) and any(v is target for v in value):
                    value[[v is target for v in value].index(True)] = make(target)
                    return function
        raise ValueError("the node to mutate has no parent")
    return edit


def run_tests(copy_root: Path, tests, timeout: float) -> bool:
    """True when every test passes on the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy_root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *tests], cwd=copy_root, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("target", help="MODULE:FUNCTION[,FUNCTION...], MODULE a path")
    parser.add_argument("tests", nargs="+", help="pytest files, paths in the checkout")
    args = parser.parse_args(argv)
    module, _, names = args.target.partition(":")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy_root = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy_root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out"))
        path = copy_root / module
        tree = ast.parse(path.read_text())
        # the baseline is the module as ast writes it back, as every mutant is
        path.write_text(ast.unparse(tree))
        if not run_tests(copy_root, args.tests, None):
            print(f"the tests fail on the unchanged {module}")
            return 1
        timeout = 10 * (time.perf_counter() - start) + 60
        functions = {node.name: i for i, node in enumerate(tree.body)
                     if isinstance(node, ast.FunctionDef)}
        survivors, count = [], 0
        for name in names.split(","):
            if name not in functions:
                print(f"{module} has no top-level function {name}")
                return 1
            position = functions[name]
            for description, edit in sites(tree.body[position]):
                mutant = copy.deepcopy(tree)
                mutant.body[position] = edit(tree.body[position])
                path.write_text(ast.unparse(mutant))
                killed = not run_tests(copy_root, args.tests, timeout)
                count += 1
                known = (name, description) in EQUIVALENT
                verdict = "killed" if killed else ("equivalent" if known else "SURVIVED")
                print(f"{name}: {description}: {verdict}", flush=True)
                if not killed and not known:
                    survivors.append(description)
    print(f"{count} mutants, {len(survivors)} unlisted survivors, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
