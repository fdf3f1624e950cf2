"""The golden report corpus: every seed-0 benchmark operation against ``bench/reference/``.

Each operation runs once through the benchmark's own pass, ``run.run_pass``,
which checks its report with ``bench/check.py``: numbers within 1e-9,
booleans and strings exactly.  The inputs are written under the test's
temporary directory at the relative path the benchmark uses,
``.bench_out/inputs/<workload>-0``, which the ``file:`` scenarios of the
reference carry.  Nothing is written under ``bench/``.
"""

import copy
import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)
_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import check  # noqa: E402
    import run  # noqa: E402
    import workloads  # noqa: E402
finally:
    sys.dont_write_bytecode = _bytecode


def _reference(workload):
    with open(os.path.join(run.REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _ops(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return workloads.WORKLOADS[workload](run.REFERENCE_SEED, os.path.join(
        run.OUT_DIR, "inputs", f"{workload}-{run.REFERENCE_SEED}"))


@pytest.mark.parametrize("workload", ["factory", "ensemble", "search"])
def test_seed_0_reports_match_the_reference(workload, tmp_path, monkeypatch):
    reference = _reference(workload)
    ops = _ops(workload, tmp_path, monkeypatch)
    result = run.run_pass(ops, reference)
    assert result.failures == []
    assert set(result.reports) == set(reference)


def test_a_perturbed_reference_number_is_reported(tmp_path, monkeypatch):
    (op, *_) = _ops("ensemble", tmp_path, monkeypatch)
    want = copy.deepcopy(_reference("ensemble")[op.name])
    got = want["results"]["scatter"][0][0]
    want["results"]["scatter"][0][0] += 10 * check.ATOL
    (failure,) = run.run_pass([op], {op.name: want}).failures
    assert failure == (op.name, [f"$.results.scatter[0][0]: {got!r} != "
                                 f"{want['results']['scatter'][0][0]!r}"])
