#!/usr/bin/env python3
"""catent benchmark: one workload on one seed, driven by one caller.

    python3 bench/run.py --workload factory --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports catent from ``src/`` there
and nowhere else.  Load is closed-loop: one caller runs one operation at
a time, with no threads of its own.  A pass runs every operation of the
workload once and checks its output; passes repeat, on the same inputs,
while another fits in ``--seconds``, and at least one runs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with no
wrappers installed.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics, the share of each pass covered by
top-level spans, and the traced-minus-untraced overhead.  The last line
of standard output is the JSON result; the lines before it name every
metric with its unit.
Results, machine facts and spans are written under ``.bench_out/``.

``--probe-defects`` runs the known failing inputs in child processes
under an address-space ceiling and a time limit, and records how each
ended in ``bench/defects.json``.  ``--write-reference`` freezes the
reports of the reference seed under ``bench/reference/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from typing import NamedTuple

import check
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = ".bench_out"
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
REFERENCE_SEED = 0
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60
DEFECT_CEILING_MB = 2048

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# reported by the traced run beside tracing.LAYER_METRICS
TRACE_METRICS = {"bench.span_coverage_pct": "%", "bench.trace_overhead_pct": "%"}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no catent under src/)."""


def setup(workload: str, seed: int):
    """Import catent and generate the workload's inputs; return (ops, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        import catent
    except ImportError as exc:
        raise SetupError(f"cannot import catent from {SRC}: {exc}") from None
    if not os.path.abspath(catent.__file__).startswith(SRC + os.sep):
        raise SetupError(f"catent was imported from {catent.__file__}, not from {SRC}")
    import workloads

    workdir = os.path.join(OUT_DIR, "inputs", f"{workload}-{seed}")
    ops = workloads.WORKLOADS[workload](seed, workdir)
    return ops, time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh interpreters, which pay the imports again."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up child failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


# ---------------------------------------------------------------------------
# passes


class Pass(NamedTuple):
    wall: float
    phases: dict[str, float]  # seconds per operation phase
    failures: list[tuple[str, list[str]]]
    reports: dict[str, dict]
    spans: list | None = None


def run_pass(ops, reference, tracer=None) -> Pass:
    """Run and check every operation once."""
    phases: dict[str, float] = {}
    failures: list[tuple[str, list[str]]] = []
    reports: dict[str, dict] = {}
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        with tracer.span("bench.op") if tracer else nullcontext():
            try:
                rep = check.normalize(op.call())
                problems = op.check(rep)
                if reference is not None:
                    if op.name in reference:
                        problems += check.compare(rep, reference[op.name])
                    else:
                        problems.append("no reference report")
                reports[op.name] = rep
            except Exception:  # an operation that raises is a failed operation
                problems = [traceback.format_exc(limit=2).strip().splitlines()[-1]]
        phases[op.phase] = phases.get(op.phase, 0.0) + time.perf_counter() - t0
        if problems:
            failures.append((op.name, problems))
    return Pass(time.perf_counter() - t_pass, phases, failures, reports)


def run_passes(ops, reference, budget: float) -> list[Pass]:
    """Passes while another fits in ``budget`` seconds; at least one."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(ops, reference))
        if time.perf_counter() - start + passes[-1].wall > budget:
            return passes


def run_traced(ops, reference, budget: float) -> tuple[list[Pass], list[Pass]]:
    """Alternate untraced and traced passes, so slow drifts of the machine
    fall on both sides of the overhead estimate; at least one pair."""
    tracer = tracing.Tracer()
    start = time.perf_counter()
    untraced, traced = [], []
    while True:
        untraced.append(run_pass(ops, reference))
        tracer.install()
        try:
            p = run_pass(ops, reference, tracer)
        finally:
            tracer.uninstall()
        traced.append(p._replace(spans=list(tracer.spans)))
        tracer.spans.clear()
        if time.perf_counter() - start + untraced[-1].wall + p.wall > budget:
            return untraced, traced


def median_phases(passes: list[Pass]) -> dict[str, float]:
    names = sorted({name for p in passes for name in p.phases})
    return {n: statistics.median(p.phases.get(n, 0.0) for p in passes) for n in names}


# ---------------------------------------------------------------------------
# machine facts


def _first_line(path: str, prefix: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int | str:
    """Threads the loaded OpenBLAS uses, read from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem = _first_line("/proc/meminfo", "MemTotal")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "mem_total_mb": int(mem.split()[0]) // 1024 if mem != "unknown" else mem,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# known defects, outside the timed runs

# (name, command, scenario, time limit in seconds)
DEFECTS = (
    ("catalyze_synth_n4", "catalyze",
     "rho: pure:0.5,0.5\nsigma: pure:0.75,0.25\nprotocol: synth\nn: 4\n", 120),
    ("distill_mc_0.51_0.99", "distill",
     "f_initial: 0.51\nf_target: 0.99\nmc_samples: 1\n", 30),
)


def probe_defects() -> None:
    """Run each known failing input in a child under limits; record the end."""
    def limit():
        cap = DEFECT_CEILING_MB * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    results = {}
    for name, command, scenario, limit_s in DEFECTS:
        path = os.path.join(OUT_DIR, f"defect-{name}.scn")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(scenario)
        cmd = [sys.executable, "-m", "catent.cli", command, "--scenario", path]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  timeout=limit_s, preexec_fn=limit)
            tail = (proc.stderr.strip().splitlines() or [""])[-1]
            ended = f"exit {proc.returncode}: {tail}"
        except subprocess.TimeoutExpired:
            ended = f"killed after the {limit_s} s time limit"
        results[name] = {
            "scenario": scenario.strip().splitlines(),
            "address_space_mb": DEFECT_CEILING_MB,
            "time_limit_s": limit_s,
            "ended": ended,
            "seconds": round(time.perf_counter() - t0, 3),
        }
        print(f"defect {name}: {ended} after {results[name]['seconds']} s", flush=True)
    with open(os.path.join(BENCH_DIR, "defects.json"), "w", encoding="utf-8") as fh:
        json.dump({"machine": machine_facts(), "defects": results}, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# entry point


def _load_reference(workload: str):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SetupError(f"cannot read the reference corpus: {exc}") from None


def _write_reference(workload: str, ops) -> int:
    p = run_pass(ops, None)
    if p.failures:
        print(f"bench: not writing a reference with failures: {p.failures}", file=sys.stderr)
        return 1
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(p.reports, fh, sort_keys=True, indent=0, allow_nan=False)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("factory", "ensemble", "search"))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--probe-defects", action="store_true")
    args = ap.parse_args(argv)
    os.chdir(ROOT)

    if args.probe_defects:
        probe_defects()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.write_reference and args.seed != REFERENCE_SEED:
        ap.error(f"the reference corpus is for seed {REFERENCE_SEED}")
    try:
        ops, own_setup = setup(args.workload, args.seed)
        if args.setup_only:
            print(own_setup)
            return 0
        if args.write_reference:
            return _write_reference(args.workload, ops)
        reference = _load_reference(args.workload) if args.seed == REFERENCE_SEED else None
        setups = setup_seconds(args.workload, args.seed)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    facts = machine_facts()
    for key, value in facts.items():
        print(f"machine {key}: {value}")

    if args.trace:
        untraced, traced = run_traced(ops, reference, args.seconds)
    else:
        untraced, traced = run_passes(ops, reference, args.seconds), []

    attempted = len(ops) * (len(untraced) + len(traced))
    failures = [f for p in untraced + traced for f in p.failures]
    walls = [p.wall for p in untraced]
    phases = median_phases(untraced)
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; {len(ops)} operations each")
    print(f"pass walls (untraced): {' '.join(f'{w:.4f}' for w in walls)} s")
    for phase, secs in phases.items():
        print(f"metric {phase}_s {secs:.6f} s")
    instances = sum(op.instances for op in ops)
    print(f"metric instances_per_s {instances / statistics.median(walls):.3f} 1/s")
    print(f"metric fail_share {len(failures) / attempted:.6f} share")
    for name, problems in failures[:10]:
        print(f"FAILED {name}: {'; '.join(problems[:3])}")

    if args.trace:
        values = tracing.layer_metrics([p.spans for p in traced])
        values["bench.span_coverage_pct"] = 100.0 * statistics.median(
            sum(s[2] - s[1] for s in p.spans if s[3] < 0) / p.wall for p in traced
        )
        values["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median(p.wall for p in traced) / statistics.median(walls) - 1.0
        )
        units = {**{k: v[0] for k, v in tracing.LAYER_METRICS.items()}, **TRACE_METRICS}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    for name, value in values.items():
        print(f"metric {name} {value} {units[name]}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "machine": facts, "setup_s_samples": setups, "pass_walls": walls,
                   "traced_pass_walls": [p.wall for p in traced], "phases": phases,
                   "failures": failures}, fh, indent=1)
    if traced:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for i, p in enumerate(traced):
                for s in p.spans:
                    fh.write(json.dumps([i] + s, separators=(",", ":")) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
