"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _reference(workload):
    with open(os.path.join(run.REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def _set(node, path, value):
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("workload", ["factory", "ensemble", "search"])
def test_checker_accepts_the_reference_and_rejects_perturbations(workload):
    for name, want in _reference(workload).items():
        got = json.loads(json.dumps(want))
        assert check.compare(got, want) == [], name
        floats = [(p, v) for p, v in _leaves(got) if type(v) is float and "versions" not in p]
        bools = [(p, v) for p, v in _leaves(got) if type(v) is bool]
        path, value = floats[0]
        _set(got, path, value + 0.5 * check.ATOL)
        assert check.compare(got, want) == [], name
        _set(got, path, value + 10 * check.ATOL)
        assert len(check.compare(got, want)) == 1, name
        _set(got, path, value)
        if bools:
            path, value = bools[0]
            _set(got, path, not value)
            assert len(check.compare(got, want)) == 1, name


def test_checker_rejects_changed_shape_and_ignores_versions():
    want = {"a": [1.0, 2.0], "passed": True, "versions": {"numpy": "1"}}
    assert check.compare({"a": [1.0, 2.0], "passed": True, "versions": {"numpy": "2"}}, want) == []
    assert check.compare({"a": [1.0], "passed": True, "versions": {}}, want)
    assert check.compare({"a": [1.0, 2.0], "passed": 1, "versions": {}}, want)
    assert check.compare({"a": [1.0, 2.0], "versions": {}}, want)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
        ["d", 5.0, 6.0, 3, None],
        ["e", 5.5, 7.0, 3, None],  # overlaps d: only their union counts
        ["b", 7.5, 8.5, 3, {"kraus": 4}],  # nested in a span of the same name
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 1.5, 1.0])
    st = tracing.SpanStats(spans)
    assert st.calls["b"] == 2
    assert st.busy["b"] == pytest.approx(4.0)  # the nested b is inside the outer one
    assert st.self_s["b"] == pytest.approx(2.0)
    assert st.attr_max[("b", "kraus")] == 4


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from catent import catfactory, locc, qstate

    originals = (locc.apply, catfactory.apply, qstate.QState.__init__, np.linalg.eigvalsh)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert catfactory.apply is locc.apply is not originals[0]
        rho = qstate.maximally_mixed(qstate.SystemLayout([(0, 2)]))
        locc.apply(locc.Channel.identity(rho.layout), rho)
    finally:
        tracer.uninstall()
    assert (locc.apply, catfactory.apply, qstate.QState.__init__, np.linalg.eigvalsh) == originals
    names = [s[0] for s in tracer.spans]
    assert names[0] == "qstate.state" and "locc.apply" in names and "linalg.eig" in names
    apply_span = tracer.spans[names.index("locc.apply")]
    assert apply_span[4] == {"kraus": 1}


def test_metric_names_are_well_formed_and_match_the_code():
    spec = _spec()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS) + list(
        run.TRACE_METRICS
    )


@pytest.mark.parametrize("workload", ["factory", "ensemble", "search"])
def test_operation_and_phase_names_are_well_formed(workload, tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    ops = workloads.WORKLOADS[workload](0, str(tmp_path))
    assert len({op.name for op in ops}) == len(ops)
    assert set(_reference(workload)) == {op.name for op in ops}
    assert all(NAME.fullmatch(f"{op.phase}_s") for op in ops)


def test_fails_without_the_program(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
