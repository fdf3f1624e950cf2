"""Refusals in ``src/catent`` that no test depends on, found by deleting them one at a time.

    python tools/refusal_mutants.py [MODULE ...]   # e.g. locc qstate; by default every module

Every ``raise`` statement of the package is a refusal, except a bare
re-raise, one under a ``pragma: no cover`` line, and a raise of
``RuntimeError`` or of a ``catent.errors`` subclass of it: ``errors.py``
reserves those for failed guaranteed bounds, which are bugs.  Each refusal
in turn is replaced by ``pass`` in a copy of this checkout, and that
module's test file (``tests/test_<module>.py``, without a leading
underscore) runs with ``-x``.  A mutant it does not kill then runs against
all of ``tests/``.  The survivors of both are printed with their line and
text, and the exit status is 1 if there are any.

When ``cli`` is mutated, each verdict of a command runner (a ``_cmd_``
function) is also forced to ``True``, one at a time, and run the same way:
the value of each ``passed = ...`` and the second item of each ``return
a, b``.  A verdict that already reads ``True`` is skipped.

Each pytest run is a child process with ``OPENBLAS_NUM_THREADS=1``, an
address-space ceiling of ``CEILING_MB`` and a timeout of ``TIMEOUT_S``: a
mutant without a cap check may otherwise allocate without bound.  A child
that fails, is killed or times out has killed its mutant.  On a 2-core box
a run over every module takes about 19 minutes, each full-suite run
about 70 s of it.

The copy lives in a temporary directory outside the checkout, and the
children write their bytecode, pytest cache and Hypothesis database
there, so nothing is written into the checkout.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import runpy
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "catent")
CEILING_MB = 3072
TIMEOUT_S = 900
PRAGMA = "pragma: no cover"


def _bug_checks() -> set[str]:
    """``RuntimeError`` and the ``catent.errors`` classes derived from it."""
    names = runpy.run_path(os.path.join(ROOT, PACKAGE, "errors.py"))
    return {"RuntimeError"} | {name for name, value in names.items()
                               if isinstance(value, type) and issubclass(value, RuntimeError)}


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def refusals(path: str, lines: list[str], bug_checks: set[str]) -> list[ast.Raise]:
    """The ``raise`` statements of one module that count as refusals, in line order."""
    found = []

    def walk(node: ast.AST) -> None:
        # a statement whose first line carries the pragma excludes its whole body
        if isinstance(node, ast.stmt) and PRAGMA in lines[node.lineno - 1]:
            return
        if isinstance(node, ast.Raise):
            if node.exc is not None and _raised_name(node) not in bug_checks:
                found.append(node)
            return
        for child in ast.iter_child_nodes(node):
            walk(child)

    walk(ast.parse("".join(lines), path))
    return sorted(found, key=lambda n: n.lineno)


def verdicts(path: str, lines: list[str]) -> list[ast.expr]:
    """The verdicts of the ``_cmd_`` runners that do not read ``True``, in line order."""
    found = []
    for func in ast.parse("".join(lines), path).body:
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("_cmd_")):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "passed":
                found.append(node.value)
            elif isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple) \
                    and len(node.value.elts) == 2:
                found.append(node.value.elts[1])
    return sorted((n for n in found if ast.unparse(n) != "True"), key=lambda n: n.lineno)


def mutate(lines: list[str], node: ast.AST, text: str = "pass") -> list[str]:
    """``lines`` with ``node`` replaced by ``text``; line numbers stay."""
    first, last = node.lineno - 1, node.end_lineno - 1
    out = list(lines)
    tail = lines[last][node.end_col_offset:]
    if first == last:
        out[first] = lines[first][: node.col_offset] + text + tail
    else:
        out[first] = lines[first][: node.col_offset] + text + "\n"
        out[first + 1 : last] = ["\n"] * (last - first - 1)
        out[last] = tail if tail.strip() else "\n"
    return out


def _limit() -> None:
    ceiling = CEILING_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))


def passes(copy: str, targets: list[str]) -> bool:
    """Whether pytest, run with ``-x`` in ``copy`` on ``targets``, passes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(copy, "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S, preexec_fn=_limit)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def _text(lines: list[str], node: ast.AST) -> str:
    return " ".join(s.strip() for s in lines[node.lineno - 1 : node.end_lineno])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", metavar="MODULE",
                        help="module of src/catent to mutate, without .py (default: all)")
    args = parser.parse_args(argv)
    names = args.modules or sorted(n[:-3] for n in os.listdir(os.path.join(ROOT, PACKAGE))
                                   if n.endswith(".py"))
    bug_checks = _bug_checks()
    survivors, counts, full_runs = [], {"refusal": 0, "verdict": 0}, 0
    with tempfile.TemporaryDirectory(prefix="refusal_mutants-") as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".bench_out", "__pycache__", ".pytest_cache", ".hypothesis"))
        for name in names:
            path = os.path.join(copy, PACKAGE, f"{name}.py")
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            own = os.path.join("tests", f"test_{name.lstrip('_')}.py")
            mutants = [("refusal", node, "pass") for node in refusals(path, lines, bug_checks)]
            if name == "cli":
                mutants += [("verdict", node, "True") for node in verdicts(path, lines)]
            for kind, node, text in mutants:
                counts[kind] += 1
                where = f"{PACKAGE}/{name}.py:{node.lineno}"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(mutate(lines, node, text))
                try:
                    alive = not os.path.exists(os.path.join(copy, own)) or passes(copy, [own])
                    full_runs += alive
                    alive = alive and passes(copy, ["tests"])
                finally:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.writelines(lines)
                print(f"{where}: {kind} {'SURVIVED' if alive else 'killed'}", file=sys.stderr,
                      flush=True)
                if alive:
                    survivors.append(f"{where}: {kind}: {_text(lines, node)}")
    print(f"{counts['refusal']} refusals mutated, {counts['verdict']} verdicts forced True, "
          f"{full_runs} survived their module's tests, {len(survivors)} survived all tests")
    for line in survivors:
        print(line)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
