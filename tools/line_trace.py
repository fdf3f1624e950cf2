"""Lines of ``src/catent`` that the Tier-1 tests, or one benchmark pass, never run.

    python tools/line_trace.py [PYTEST_ARGS ...]   # pytest in process, by default on tests bench
    python tools/line_trace.py --workload NAME     # one seed-0 pass of a benchmark workload

A ``sys.settrace`` hook, set before catent is imported, records the lines
executed in files under this checkout's ``src/catent/``.  Afterwards one
line per module lists its executable lines that never ran, taken from the
line tables of the module's compiled code objects.  Lines run only in
child processes (the tests that start an interpreter, such as the CLI
exit-code and import checks) are not seen, and the output says so.

With pytest arguments, or none, pytest runs in this process and its
outcomes are reported as it gives them: nothing is deselected, and the
exit status is pytest's.  The hook allocates on every traced line, so a
test that asserts no garbage collection runs may fail under it:
``test_wide_synthesis_runs_no_garbage_collection`` does, and passes
without the hook.

``--workload NAME`` builds that workload's seed-0 operations through the
checkout's ``bench/workloads.py`` and runs each once, with its inputs in
a temporary directory outside the checkout.  Both the build and the run
are traced.  The exit status is 1 if an operation's check fails.

Nothing is written into the checkout: bytecode writing is off (for child
processes too), pytest's cache is off, and Hypothesis keeps its example
database in a temporary directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "catent") + os.sep


def _trace(seen: dict[str, set[int]]):
    """A trace function recording ``seen[file]``: the lines run in package files.

    A code object's first line counts as run when it is called: its 'call'
    event stands for it, and no 'line' event follows for it.
    """

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        seen[code.co_filename].add(code.co_firstlineno)
        return local

    return hook


def _executable(path: str) -> set[int]:
    """Every line of ``path`` that its compiled code objects map an instruction to."""
    with open(path, encoding="utf-8") as fh:
        codes = [compile(fh.read(), path, "exec")]
    lines = set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or 0 at a start
        codes += [c for c in code.co_consts if isinstance(c, type(code))]
    return lines


def _ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(seen: dict[str, set[int]]) -> None:
    print("lines never run (lines run only in child processes are not seen):")
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            unrun = sorted(_executable(path) - seen.get(path, set()))
            print(f"src/catent/{name}: {len(unrun)}" + (f": {_ranges(unrun)}" if unrun else ""))


def _run_workload(name: str) -> int:
    sys.path[:0] = [SRC, os.path.join(ROOT, "bench")]
    import workloads

    failed = 0
    with tempfile.TemporaryDirectory(prefix="line_trace-") as inputs:
        for op in workloads.WORKLOADS[name](0, inputs):
            problems = op.check(op.call())
            failed += bool(problems)
            for problem in problems:
                print(f"{name}.{op.name}: {problem}")
    return 1 if failed else 0


def _run_pytest(args: list[str], home: str) -> int:
    import pytest
    from hypothesis.configuration import set_hypothesis_home_dir

    sys.path.insert(0, SRC)
    set_hypothesis_home_dir(home)
    return int(pytest.main(["-p", "no:cacheprovider", *(args or [
        os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")])]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("factory", "ensemble", "search"),
                        help="trace one seed-0 pass of this benchmark workload")
    args, rest = parser.parse_known_args(argv)
    if args.workload and rest:
        parser.error(f"--workload takes no pytest arguments: {rest}")
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    seen: dict[str, set[int]] = defaultdict(set)
    with tempfile.TemporaryDirectory(prefix="line_trace-") as home:
        sys.settrace(_trace(seen))
        try:
            code = _run_workload(args.workload) if args.workload else _run_pytest(rest, home)
        finally:
            sys.settrace(None)
    report(seen)
    return code


if __name__ == "__main__":
    sys.exit(main())
