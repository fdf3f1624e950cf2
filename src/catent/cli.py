"""Deterministic scenario runner exposing the package's verifiers.

Scenario files are flat ``key: value`` documents: one pair per line,
``#`` starts a comment, blank lines are skipped, duplicate or unknown
keys are rejected.  State-valued keys accept the named families

    singlet                    the two-qubit singlet
    werner:F                   Werner state with singlet fidelity F
    haar:SEED                  seeded random two-qubit pure state
    ginibre:SEED               seeded random two-qubit mixed state
    pure:p1,p2,...             Schmidt-diagonal pure state with that spectrum
    jp-source|jp-target|jp-catalyst   the worked catalysis example spectra
    file:PATH                  a serialized state document

Spectrum-valued keys (pure-rate) accept ``jp-*`` names or comma lists.
Protocol-valued keys accept ``identity``, ``synth`` (Schmidt synthesis
from the scenario's rho to its sigma, both pure) or ``file:PATH``.

Flags ``--scenario``, ``--seed``, ``--samples``, ``--out`` fall back to
environment variables with the ``CATENT_`` prefix, then to the scenario
key of the same name, then to per-command defaults.  Reports are JSON
with sorted keys and no timestamps, so one scenario plus one seed gives
byte-identical output.  Exit status: 0 when every asserted invariant
passed, 1 for a computed failure or domain error, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .catfactory import (
    _build_catalyst,
    _certify,
    _copies_dim,
    _reuse,
    verify_marginal_reduction,
)
from .distill import (
    distill_to,
    expected_copies_mc,
    recurrence_sweep,
    synthesize_tau_eps,
    werner,
)
from .errors import (
    BoundViolationError,
    BudgetError,
    DimensionCapError,
    DivergingRateError,
    DocumentError,
    MissingSeriesError,
    ScenarioError,
)
from .locc import LoccProtocol, identity_protocol, load_protocol
from .measures import (
    compose_superadditive,
    decoupling_check,
    hashing_bounds,
    mutual_information,
    squashed_upper,
)
from .purecat import (
    canonical_pure,
    catalytic_convertible,
    majorizes,
    pure_target_rate,
    synthesize_pure_protocol,
)
from .qstate import (
    DIM_CAP,
    QState,
    SchmidtVector,
    SystemLayout,
    is_pure,
    load_state,
    random_state,
    schmidt_decompose,
    singlet,
    tensor,
    trace_norm_dist,
)

ENV_PREFIX = "CATENT_"
PAIR = SystemLayout([(0, 2), (1, 2)])

_JP = {
    "jp-source": (0.4, 0.4, 0.1, 0.1),
    "jp-target": (0.5, 0.25, 0.25),
    "jp-catalyst": (0.6, 0.4),
}

_COMMON_KEYS = {"command", "seed", "samples", "out"}
# command -> (required keys, optional keys)
_COMMANDS: dict[str, tuple[set, set]] = {
    "catalyze": ({"rho", "n"}, {"sigma", "protocol", "max_epsilon"}),
    "reduce": ({"rho", "sigma", "n", "m"}, {"protocol", "max_error"}),
    "verify-lemma1": (set(), {"aux_dim"}),
    "bounds": ({"state"}, {"budget", "max_ext_dim"}),
    "superadd": (set(), {"eps", "mix"}),
    "distill": (
        {"f_initial", "f_target"},
        {"max_rounds", "sweep_points", "sweep_lo", "sweep_hi", "mc_samples"},
    ),
    "synth-catalyst": ({"rho", "sigma"}, {"n", "copies", "f_resource", "protocol"}),
    "pure-rate": ({"source", "target"}, {"catalyst", "expect_plain", "expect_catalytic"}),
}

# Work budgets of the counts a scenario leaves unbounded.  Like
# distill.MC_COPY_BUDGET, each lets the largest accepted input run at most
# about 30 s on a 2-core box (numpy 2.4, OpenBLAS 0.3.31), where one item
# cost 0.6 ms in verify-lemma1, 1.5 ms in superadd and 0.25 ms in a
# squashed search at the default max_ext_dim: the largest bounds input,
# 35543 rounds there, runs in about 15 s.  The sweep is bounded by memory:
# its report takes about 1.4 kB a point, 0.7 GB at 5e5 points (about 7 s).
LEMMA1_SAMPLE_BUDGET = 5e4
SUPERADD_SAMPLE_BUDGET = 2e4
BOUNDS_ROUND_BUDGET = 6e4
SWEEP_POINT_BUDGET = 5e5


def _dim_cost(d: int) -> float:
    """Items of work in a sample or search round on dimension d (1 when d is small).

    Fitted to verify-lemma1 samples and squashed-search rounds at d = 4..2048.
    """
    return 1 + (d / 40) ** 2 + (d / 88) ** 3


def _check_budget(what: str, work: float, budget: float) -> None:
    if work > budget:
        raise BudgetError(f"{what} is about {work:.3g} items of work; the budget is {budget:.3g}")


# ---------------------------------------------------------------------------
# scenario parsing


def parse_scenario(text: str) -> dict[str, str]:
    """Parse a flat ``key: value`` scenario document into a dict."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or not key:
            raise ScenarioError(f"line {ln}: expected 'key: value', got {raw!r}")
        if key in out:
            raise ScenarioError(f"line {ln}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _to_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(f"{what} must be an integer, got {value!r}") from None


def _to_float(value: str, what: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None


def _get_int(scen: Mapping[str, str], key: str, default: int) -> int:
    return _to_int(scen[key], key) if key in scen else default


def _get_float(scen: Mapping[str, str], key: str, default: float) -> float:
    return _to_float(scen[key], key) if key in scen else default


def _get_bool(scen: Mapping[str, str], key: str) -> bool:
    value = scen[key].lower()
    if value not in ("true", "false"):
        raise ScenarioError(f"{key} must be true or false, got {scen[key]!r}")
    return value == "true"


def _parse_spectrum(spec: str, what: str) -> tuple[float, ...]:
    if spec in _JP:
        return _JP[spec]
    try:
        vals = tuple(float(x) for x in spec.split(","))
    except ValueError:
        raise ScenarioError(f"{what} must be a spectrum or jp-* name, got {spec!r}") from None
    if not vals or any(v < 0 for v in vals):
        raise ScenarioError(f"{what} must list nonnegative weights, got {spec!r}")
    return vals


def _parse_state(spec: str, what: str) -> QState:
    name, _, arg = spec.partition(":")
    name, arg = name.strip(), arg.strip()
    if name == "singlet":
        return singlet()
    if name == "werner":
        return werner(_to_float(arg, f"{what} fidelity")).state
    if name == "haar":
        return random_state(PAIR, "haar_pure", seed=_to_int(arg or "0", f"{what} seed"))
    if name == "ginibre":
        return random_state(PAIR, "ginibre_mixed", seed=_to_int(arg or "0", f"{what} seed"))
    if name == "pure":
        return canonical_pure(SchmidtVector.of(_parse_spectrum(arg, what)))
    if name in _JP:
        return canonical_pure(SchmidtVector.of(_JP[name]))
    if name == "file":
        return load_state(arg)
    raise ScenarioError(f"unknown state family for {what}: {spec!r}")


def _build_protocol(spec: str, rho: QState, sigma: QState, n: int) -> LoccProtocol:
    # refuse n past the cap before any n-copy spectrum or layout is built
    if _copies_dim(rho.total_dim, n) > DIM_CAP:
        raise DimensionCapError(f"{n} copies of dimension {rho.total_dim} exceed cap {DIM_CAP}")
    if spec == "identity":
        return identity_protocol(rho.layout.power(n))
    if spec == "synth":
        if not (is_pure(rho) and is_pure(sigma)):
            raise ScenarioError("synth protocol needs pure rho and sigma")
        s, t = (
            functools.reduce(SchmidtVector.tensor, [schmidt_decompose(x)] * n) for x in (rho, sigma)
        )
        return synthesize_pure_protocol(s, t, layout=rho.layout.power(n))
    if spec.startswith("file:"):
        return load_protocol(spec[5:].strip())
    raise ScenarioError(f"unknown protocol {spec!r}")


# ---------------------------------------------------------------------------
# command runners: each returns (results, passed, samples_used)


def _cmd_catalyze(scen, seed, samples):
    rho = _parse_state(scen["rho"], "rho")
    n = _to_int(scen["n"], "n")
    if n < 2:
        raise ScenarioError(f"n must be >= 2, got {n}")
    sigma = _parse_state(scen["sigma"], "sigma") if "sigma" in scen else rho
    lam = _build_protocol(scen.get("protocol", "identity"), rho, sigma, n)
    # certified from the run the build's own checks made
    asm, run = _build_catalyst(lam, rho, n)
    cert = _certify(asm.embedding, asm.tau, rho, sigma, run)
    results = {
        "n": n,
        "catalyst_dim": asm.tau.total_dim,
        "certificate": {
            "epsilon_achieved": cert.epsilon_achieved,
            "catalyst_drift": cert.catalyst_drift,
            "correlation": cert.correlation,
        },
        "copy_errors": [trace_norm_dist(g, sigma) for g in asm.gamma_marginals],
    }
    passed = cert.catalyst_drift < 1e-9
    if "max_epsilon" in scen:
        passed = passed and cert.epsilon_achieved <= _to_float(
            scen["max_epsilon"], "max_epsilon"
        )
    return results, passed, None


def _cmd_reduce(scen, seed, samples):
    rho = _parse_state(scen["rho"], "rho")
    sigma = _parse_state(scen["sigma"], "sigma")
    n = _to_int(scen["n"], "n")
    m = _to_int(scen["m"], "m")
    if not 1 <= m <= n:
        raise ScenarioError(f"need 1 <= m <= n, got m={m}, n={n}")
    base = _build_protocol(scen.get("protocol", "identity"), rho, sigma, n)
    if m < n:
        f = len(rho.layout)
        base = LoccProtocol(
            base.input_layout,
            base.steps,
            discard=tuple(range(m * f, n * f)),
            classical_factors=base.classical_factors,
        )
    cert = verify_marginal_reduction(base, rho, sigma, n, m)
    eps = max(cert.per_marginal_errors)
    results = {
        "n": n,
        "m": m,
        "rate": cert.rate_slack,
        "per_marginal_errors": list(cert.per_marginal_errors),
        "epsilon": eps,
        "delta": max(1.0 - cert.rate_slack, 1e-6),
    }
    passed = True
    if "max_error" in scen:
        passed = eps <= _to_float(scen["max_error"], "max_error")
    return results, passed, None


def _cmd_lemma1(scen, seed, samples):
    count = 200 if samples is None else samples
    if count < 1:
        raise ScenarioError(f"samples must be >= 1, got {count}")
    aux = _get_int(scen, "aux_dim", 2)
    if aux < 1:
        raise ScenarioError(f"aux_dim must be >= 1, got {aux}")
    layout = PAIR + SystemLayout([(0, aux)])
    # past DIM_CAP, random_state refuses the first sample before allocating
    if layout.total_dim <= DIM_CAP:
        work = count * _dim_cost(layout.total_dim)
        _check_budget(f"{count} samples at aux_dim {aux}", work, LEMMA1_SAMPLE_BUDGET)
    scatter = []
    violations = 0
    for i in range(count):
        mu = random_state(layout, "ginibre_mixed", seed=seed * 1000003 + 2 * i)
        phi = random_state(PAIR, "haar_pure", seed=seed * 1000003 + 2 * i + 1)
        chk = decoupling_check(mu, phi)
        scatter.append([chk.epsilon, chk.lhs, chk.rhs])
        if not chk.passed:
            violations += 1
    results = {"aux_dim": aux, "violations": violations, "scatter": scatter}
    return results, violations == 0, count


def _cmd_bounds(scen, seed, samples):
    state = _parse_state(scen["state"], "state")
    budget = _get_int(scen, "budget", 60)
    max_ext = _get_int(scen, "max_ext_dim", 8)
    if budget < 0:
        raise ScenarioError(f"budget must be >= 0, got {budget}")
    if max_ext < 1:
        raise ScenarioError(f"max_ext_dim must be >= 1, got {max_ext}")
    # round r extends the purifying factor to dimension at most r + 1
    work = budget * _dim_cost(state.total_dim * min(max_ext, budget))
    _check_budget(f"a search budget of {budget} at max_ext_dim {max_ext}", work,
                  BOUNDS_ROUND_BUDGET)
    hb = hashing_bounds(state)
    mi = mutual_information(state)
    sq = squashed_upper(state, max_ext_dim=max_ext, search_budget=budget, seed=seed)
    results = {
        "hashing": {"lower": hb.lower, "upper": hb.upper},
        "mutual_information": mi,
        "squashed_upper": sq.value,
        "extension_dim": sq.extension_dim,
    }
    passed = hb.lower <= hb.upper + 1e-9 and -1e-12 <= sq.value <= 0.5 * mi + 1e-9
    return results, passed, None


def _cmd_superadd(scen, seed, samples):
    count = 5 if samples is None else samples
    if count < 1:
        raise ScenarioError(f"samples must be >= 1, got {count}")
    _check_budget(f"{count} samples", count, SUPERADD_SAMPLE_BUDGET)
    eps = _get_float(scen, "eps", 0.3)
    mix = _get_float(scen, "mix", 2e-4)
    psi = singlet()
    rows = []
    passed = True
    for k in range(count):
        chi = random_state(PAIR, "haar_pure", seed=seed + k)
        mu = QState(
            PAIR.power(2),
            (1 - mix) * tensor(psi, psi).matrix + mix * tensor(chi, chi).matrix,
        )
        try:
            combined, budget = compose_superadditive(
                identity_protocol(PAIR), identity_protocol(PAIR), mu, psi, eps=eps
            )
            ok = combined < eps
            rows.append({"combined": combined, "budget": budget, "ok": ok})
            passed = passed and ok
        except (BudgetError, BoundViolationError) as exc:
            rows.append({"error": str(exc), "ok": False})
            passed = False
    return {"eps": eps, "mix": mix, "instances": rows}, passed, count


def _cmd_distill(scen, seed, samples):
    f_initial = _to_float(scen["f_initial"], "f_initial")
    f_target = _to_float(scen["f_target"], "f_target")
    max_rounds = _get_int(scen, "max_rounds", 200)
    outcome = distill_to(f_target, f_initial, max_rounds=max_rounds)
    results = {
        "rounds": [
            {
                "fidelity_before": r.fidelity_before,
                "fidelity_after": r.fidelity_after,
                "success_probability": r.success_probability,
            }
            for r in outcome.rounds
        ],
        "round_count": len(outcome.rounds),
        "copies_consumed": outcome.copies_consumed,
        "final_fidelity": outcome.final_fidelity,
    }
    points = _get_int(scen, "sweep_points", 0)
    if points:
        lo = _get_float(scen, "sweep_lo", 0.55)
        hi = _get_float(scen, "sweep_hi", 0.95)
        if points < 2 or not 0.25 < lo < hi <= 1.0:
            raise ScenarioError(
                f"sweep needs points >= 2 and 0.25 < lo < hi <= 1, got "
                f"{points}, {lo}, {hi}"
            )
        _check_budget(f"a sweep of {points} points", points, SWEEP_POINT_BUDGET)
        grid = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
        results["sweep"] = recurrence_sweep(grid)
    mc = _get_int(scen, "mc_samples", 0)
    if mc:
        results["expected_copies_mc"] = expected_copies_mc(outcome, mc, seed=seed)
    return results, outcome.final_fidelity >= f_target, None


def _cmd_synth_catalyst(scen, seed, samples):
    rho = _parse_state(scen["rho"], "rho")
    sigma = _parse_state(scen["sigma"], "sigma")
    n = _get_int(scen, "n", 2)
    copies = _get_int(scen, "copies", 3)
    f_resource = _get_float(scen, "f_resource", 0.95)
    if n < 2:
        raise ScenarioError(f"n must be >= 2, got {n}")
    if copies < 1:
        raise ScenarioError(f"copies must be >= 1, got {copies}")
    lam = _build_protocol(scen.get("protocol", "synth"), rho, sigma, n)
    asm, (_, at_tau) = _build_catalyst(lam, rho, n)
    tau_eps, synth_dist = synthesize_tau_eps(asm.tau, f_resource)
    # the certificate alone: the product of the outputs is never built, and
    # the run at tau is the one the build's checks made
    _, _, cert = _reuse(asm.embedding, tau_eps, rho, copies, asm.tau, sigma, False, at_tau)
    results = {
        "n": n,
        "copies": copies,
        "f_resource": f_resource,
        "synthesis_distance": synth_dist,
        "epsilon_initial": cert.epsilon_initial,
        "delta_single_shot": cert.delta_single_shot,
        "fixed_point_residual": cert.fixed_point_residual,
        "per_marginal_errors": list(cert.per_marginal_errors),
        "catalyst_drifts": list(cert.catalyst_drifts),
    }
    eps = cert.epsilon_initial
    bound = eps + cert.delta_single_shot + 1e-9
    passed = all(d <= eps + 1e-9 for d in cert.catalyst_drifts) and all(
        e <= bound for e in cert.per_marginal_errors
    )
    return results, passed, None


def _cmd_pure_rate(scen, seed, samples):
    sv_s = SchmidtVector.of(_parse_spectrum(scen["source"], "source"))
    sv_t = SchmidtVector.of(_parse_spectrum(scen["target"], "target"))
    plain = majorizes(sv_t, sv_s)

    def report(rep):
        return {
            "convertible": rep.convertible,
            "violated_index": rep.violated_index,
            "partial_sums_target": list(rep.partial_sums_target),
            "partial_sums_source": list(rep.partial_sums_source),
        }

    results = {"plain": report(plain)}
    catalytic = None
    if "catalyst" in scen:
        cat = SchmidtVector.of(_parse_spectrum(scen["catalyst"], "catalyst"))
        catalytic = catalytic_convertible(sv_s, sv_t, cat)
        results["catalytic"] = report(catalytic)
    try:
        rate = pure_target_rate(canonical_pure(sv_s), sv_t)
        results["rate"] = {"lower": rate.lower, "upper": rate.upper}
    except DivergingRateError:
        results["rate"] = None
    passed = True
    if "expect_plain" in scen:
        passed = passed and plain.convertible == _get_bool(scen, "expect_plain")
    if "expect_catalytic" in scen:
        if catalytic is None:
            raise ScenarioError("expect_catalytic needs a catalyst key")
        passed = passed and catalytic.convertible == _get_bool(scen, "expect_catalytic")
    return results, passed, None


_RUNNERS = {
    "catalyze": _cmd_catalyze,
    "reduce": _cmd_reduce,
    "verify-lemma1": _cmd_lemma1,
    "bounds": _cmd_bounds,
    "superadd": _cmd_superadd,
    "distill": _cmd_distill,
    "synth-catalyst": _cmd_synth_catalyst,
    "pure-rate": _cmd_pure_rate,
}


# ---------------------------------------------------------------------------
# report assembly


def run(
    scenario: Mapping[str, str],
    *,
    command: str | None = None,
    seed: int | None = None,
    samples: int | None = None,
) -> dict:
    """Execute a parsed scenario and return the report dictionary."""
    scen = dict(scenario)
    cmd = command or scen.get("command")
    if not cmd:
        raise ScenarioError("scenario does not name a command")
    if cmd not in _COMMANDS:
        raise ScenarioError(f"unknown command {cmd!r}")
    if "command" in scen and scen["command"] != cmd:
        raise ScenarioError(f"scenario command {scen['command']!r} does not match {cmd!r}")
    required, optional = _COMMANDS[cmd]
    unknown = sorted(set(scen) - required - optional - _COMMON_KEYS)
    if unknown:
        raise ScenarioError(f"unknown keys for {cmd}: {', '.join(unknown)}")
    missing = sorted(required - set(scen))
    if missing:
        raise ScenarioError(f"missing keys for {cmd}: {', '.join(missing)}")
    if seed is None:
        seed = _get_int(scen, "seed", 0)
    if samples is None and "samples" in scen:
        samples = _to_int(scen["samples"], "samples")
    results, passed, used = _RUNNERS[cmd](scen, seed, samples)
    return {
        "command": cmd,
        "scenario": scen,
        "seed": seed,
        "samples": used if used is not None else samples,
        "versions": {
            "catent": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "results": results,
        "passed": passed,
    }


def emit_plotdata(report: Mapping, kind: str) -> str:
    """Render one report series as CSV with a stable column order."""
    results = report.get("results") or {}
    if kind == "distill":
        rows = results.get("sweep")
        if not rows:
            raise MissingSeriesError("report has no distillation sweep series")
        cols = ("F_in", "F_out", "p", "expected_copies")
        lines = [",".join(cols)]
        lines += [",".join(repr(float(r[c])) for c in cols) for r in rows]
    elif kind == "decoupling":
        rows = results.get("scatter")
        if not rows:
            raise MissingSeriesError("report has no decoupling scatter series")
        lines = ["eps,lhs,rhs"]
        lines += [",".join(repr(float(x)) for x in r) for r in rows]
    else:
        raise MissingSeriesError(f"unknown plot kind {kind!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _env(name: str) -> str | None:
    value = os.environ.get(ENV_PREFIX + name)
    return value if value else None


def _env_int(name: str) -> int | None:
    value = _env(name)
    return None if value is None else _to_int(value, ENV_PREFIX + name)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="catent", description="scenario runner for catalytic conversions"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", help="scenario file path")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--samples", type=int, help="sample count override")
        p.add_argument("--out", help="report file path (default stdout)")
    p = sub.add_parser("plotdata")
    p.add_argument("--report", help="report JSON path")
    p.add_argument("--kind", help="series kind: distill or decoupling")
    p.add_argument("--out", help="CSV file path (default stdout)")
    args = parser.parse_args(argv)

    try:
        if args.command == "plotdata":
            path = args.report or _env("REPORT")
            kind = args.kind or _env("KIND")
            if not path or not kind:
                raise ScenarioError("plotdata needs --report and --kind")
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            text = emit_plotdata(report, kind)
            passed = True
            out = args.out or _env("OUT")
        else:
            path = args.scenario or _env("SCENARIO")
            if not path:
                raise ScenarioError("no scenario given (--scenario or CATENT_SCENARIO)")
            with open(path, "r", encoding="utf-8") as fh:
                scenario = parse_scenario(fh.read())
            seed = args.seed if args.seed is not None else _env_int("SEED")
            samples = args.samples if args.samples is not None else _env_int("SAMPLES")
            report = run(scenario, command=args.command, seed=seed, samples=samples)
            text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
            passed = bool(report["passed"])
            out = args.out or _env("OUT") or scenario.get("out")
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if passed else 1
    except (
        ScenarioError,
        DocumentError,
        MissingSeriesError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"catent: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"catent: failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
