"""SHA-256 of every benchmark report, to check that a change leaves them all unchanged.

    python tools/report_digests.py                 # digests of this checkout
    python tools/report_digests.py OTHER_CHECKOUT  # and the names that differ

For each checkout, a child interpreter imports catent from the checkout's
``src/`` and the workloads from its ``bench/workloads.py``, and runs every
operation of ``factory`` seeds 0 and 5 and ``ensemble`` and ``search``
seed 0 once.  Each report is hashed as sorted-key JSON without its
``versions`` block, and each input document a workload writes (the four
protocol files of each ``factory`` seed) as its bytes.  One line per digest is
printed, ``<workload>.<seed>.<operation> <sha256>``; given a second
checkout, the lines are this checkout's, then a count of the digests
and of those that differ, each with how many are reports, then the names
that differ; the exit status is 1 if any do (2 if a run fails).  A report that
differs is shown with its largest numeric difference: the field's path and
its value in each checkout (a field whose type, keys or length differ
counts as an infinite difference).

Both children write their inputs into one temporary directory outside
both checkouts: a ``catalyze`` of a ``file:`` protocol carries that path
in its scenario, so a directory per checkout would change those digests.
The children run with ``-B`` and outside the checkouts, so they write
nothing into either.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

RUNS = [("factory", 0), ("factory", 5), ("ensemble", 0), ("search", 0)]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _child(checkout: str, inputs: str) -> None:
    """Print the digests of ``checkout``'s reports and inputs, and the reports, as JSON."""
    src = os.path.join(checkout, "src")
    sys.path[:0] = [src, os.path.join(checkout, "bench")]
    import catent
    import workloads

    if not os.path.abspath(catent.__file__).startswith(src + os.sep):
        sys.exit(f"catent was imported from {catent.__file__}, not from {src}")
    found, reports = {}, {}
    for workload, seed in RUNS:
        workdir = os.path.join(inputs, f"{workload}-{seed}")
        for op in workloads.WORKLOADS[workload](seed, workdir):
            report = op.call()
            report.pop("versions", None)
            text = json.dumps(report, sort_keys=True)
            found[f"{workload}.{seed}.{op.name}"] = _sha(text.encode())
            reports[f"{workload}.{seed}.{op.name}"] = report
        for name in sorted(os.listdir(workdir) if os.path.isdir(workdir) else ()):
            with open(os.path.join(workdir, name), "rb") as fh:
                found[f"{workload}.{seed}.input.{name}"] = _sha(fh.read())
    print(json.dumps({"digests": found, "reports": reports}))


def _largest_difference(a, b, path=""):
    """(gap, path, a, b) of the largest difference between two report fields."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        parts = [_largest_difference(a[k], b[k], f"{path}.{k}" if path else k) for k in sorted(a)]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = [_largest_difference(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    elif type(a) in (int, float) and type(b) in (int, float):
        gap = 0.0 if a == b or math.isnan(a) and math.isnan(b) else abs(a - b)
        return (math.inf if math.isnan(gap) else gap), path, a, b
    else:
        return (0.0 if type(a) is type(b) and a == b else math.inf), path, a, b
    return max(parts, key=lambda part: part[0], default=(0.0, path, a, b))


def digests(checkout: str, inputs: str) -> tuple[dict[str, str], dict]:
    """The digests and reports of ``checkout``, computed in a child interpreter."""
    out = subprocess.run(
        [sys.executable, "-B", os.path.abspath(__file__), "--child", checkout, inputs],
        cwd=inputs, capture_output=True, text=True,
    )
    if out.returncode:
        print(f"{checkout}: the child run failed:\n{out.stderr}", file=sys.stderr)
        sys.exit(2)
    run = json.loads(out.stdout.splitlines()[-1])
    return run["digests"], run["reports"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", nargs="?", help="a second checkout to compare with")
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(*(os.path.abspath(p) for p in args.child))
        return 0
    with tempfile.TemporaryDirectory(prefix="report_digests-") as inputs:
        mine, my_reports = digests(ROOT, inputs)
        theirs, their_reports = (
            digests(os.path.abspath(args.other), inputs) if args.other else (mine, my_reports)
        )
    for name, sha in mine.items():
        print(name, sha)
    differ = sorted(n for n in mine.keys() | theirs.keys() if mine.get(n) != theirs.get(n))
    if args.other:
        reports, differing = (sum(".input." not in n for n in names) for names in (mine, differ))
        print(f"{len(mine)} digests ({reports} reports); {len(differ)} differ "
              f"({differing} reports) from {args.other}")
        for name in differ:
            if name in my_reports and name in their_reports:
                gap, path, a, b = _largest_difference(my_reports[name], their_reports[name])
                print(f"differs: {name}; largest difference {gap:.3g} at {path or '(top)'}: "
                      f"{a!r} here, {b!r} in {args.other}")
            else:
                print("differs:", name)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
