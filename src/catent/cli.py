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

Each command's keys, with their parsers, defaults and lower bounds, are
declared once, in ``_COMMANDS``; every key is parsed once, before the
command runs.  Flags ``--scenario``, ``--seed``, ``--samples``, ``--out``
fall back to environment variables with the ``CATENT_`` prefix, then to
the scenario key of the same name, then to the table's defaults.
``samples`` is a key of ``verify-lemma1`` and ``superadd`` only: no other
command takes it, and none other reads ``CATENT_SAMPLES``.
Reports are JSON with sorted keys and no timestamps, so one scenario
plus one seed gives byte-identical output.  Exit status: 0 when every
asserted invariant passed, 1 for a computed failure or domain error, 2
for unusable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
from typing import Mapping, Sequence

import numpy as np

from . import __version__, _io
from .catfactory import (
    EXACTNESS_TOL,
    build_catalyst,
    iterate_reuse,
    verify_catalysis,
    verify_marginal_reduction,
)
from .distill import (
    PAIR_LAYOUT,
    distill_to,
    expected_copies_mc,
    recurrence_sweep,
    synthesize_tau_eps,
    werner,
)
from .errors import (
    BoundViolationError,
    BudgetError,
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

_JP = {
    "jp-source": (0.4, 0.4, 0.1, 0.1),
    "jp-target": (0.5, 0.25, 0.25),
    "jp-catalyst": (0.6, 0.4),
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


_REQUIRED = object()  # the default of a key a scenario must give


def _int(value: str, what: str, lo: int | None = None) -> int:
    try:
        out = int(value)
    except ValueError:
        raise ScenarioError(f"{what} must be an integer, got {value!r}") from None
    if lo is not None and out < lo:
        raise ScenarioError(f"{what} must be >= {lo}, got {out}")
    return out


def _count(lo: int):
    """``_int`` with the lower bound ``lo``."""
    return functools.partial(_int, lo=lo)


def _float(value: str, what: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ScenarioError(f"{what} must be finite, got {value!r}")
    return out


def _bool(value: str, what: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ScenarioError(f"{what} must be true or false, got {value!r}")
    return value.lower() == "true"


def _text(value: str, what: str) -> str:
    return value


def _parse_spectrum(spec: str, what: str) -> tuple[float, ...]:
    if spec in _JP:
        return _JP[spec]
    try:
        vals = tuple(float(x) for x in spec.split(","))
    except ValueError:
        raise ScenarioError(f"{what} must be a spectrum or jp-* name, got {spec!r}") from None
    if not all(0 <= v < math.inf for v in vals):
        raise ScenarioError(f"{what} must list finite nonnegative weights, got {spec!r}")
    return vals


def _parse_state(spec: str, what: str) -> QState:
    name, _, arg = spec.partition(":")
    name, arg = name.strip(), arg.strip()
    if name == "singlet":
        return singlet()
    if name == "werner":
        return werner(_float(arg, f"{what} fidelity")).state
    if name == "haar":
        return random_state(PAIR_LAYOUT, "haar_pure", seed=_int(arg or "0", f"{what} seed", 0))
    if name == "ginibre":
        return random_state(PAIR_LAYOUT, "ginibre_mixed", seed=_int(arg or "0", f"{what} seed", 0))
    if name == "pure":
        return canonical_pure(SchmidtVector.of(_parse_spectrum(arg, what)))
    if name in _JP:
        return canonical_pure(SchmidtVector.of(_JP[name]))
    if name == "file":
        return load_state(arg)
    raise ScenarioError(f"unknown state family for {what}: {spec!r}")


def _build_protocol(spec: str, rho: QState, sigma: QState, n: int) -> LoccProtocol:
    # refuses n past a limit before any n-copy spectrum is built
    layout = rho.layout.power(n)
    if spec == "identity":
        return identity_protocol(layout)
    if spec == "synth":
        if not (is_pure(rho) and is_pure(sigma)):
            raise ScenarioError("synth protocol needs pure rho and sigma")
        s, t = (
            functools.reduce(SchmidtVector.tensor, [schmidt_decompose(x)] * n) for x in (rho, sigma)
        )
        return synthesize_pure_protocol(s, t, layout=layout)
    if spec.startswith("file:"):
        return load_protocol(spec[5:].strip())
    raise ScenarioError(f"unknown protocol {spec!r}")


# ---------------------------------------------------------------------------
# command runners: each takes the scenario's parsed values (with the seed
# and the sample count resolved) and returns (results, passed)


def _cmd_catalyze(p):
    rho, n = p["rho"], p["n"]
    sigma = rho if p["sigma"] is None else p["sigma"]
    lam = _build_protocol(p["protocol"], rho, sigma, n)
    asm = build_catalyst(lam, rho, n)
    # certified from the run the build's own checks made
    cert = verify_catalysis(asm.embedding, asm.tau, rho, sigma, _run=asm._run)
    results = {
        "n": n,
        "catalyst_dim": asm.tau.total_dim,
        "certificate": cert._asdict(),
        "copy_errors": [trace_norm_dist(g, sigma) for g in asm.gamma_marginals],
    }
    passed = cert.catalyst_drift < EXACTNESS_TOL
    if p["max_epsilon"] is not None:
        passed = passed and cert.epsilon_achieved <= p["max_epsilon"]
    return results, passed


def _cmd_reduce(p):
    rho, sigma, n, m = p["rho"], p["sigma"], p["n"], p["m"]
    if m > n:
        raise ScenarioError(f"need 1 <= m <= n, got m={m}, n={n}")
    base = _build_protocol(p["protocol"], rho, sigma, n)
    if m < n:  # the first m copies of the protocol's own output
        f = len(rho.layout)
        keep = (base.keep or range(n * f))[: m * f]
        base = LoccProtocol(base.input_layout, base.steps, keep=keep)
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
    passed = p["max_error"] is None or eps <= p["max_error"]
    return results, passed


def _cmd_lemma1(p):
    count, aux, seed = p["samples"], p["aux_dim"], p["seed"]
    layout = SystemLayout([*PAIR_LAYOUT, (0, aux)])
    work = count * _dim_cost(layout.total_dim)
    _check_budget(f"{count} samples at aux_dim {aux}", work, LEMMA1_SAMPLE_BUDGET)
    scatter = []
    violations = 0
    for i in range(count):
        mu = random_state(layout, "ginibre_mixed", seed=seed * 1000003 + 2 * i)
        phi = random_state(PAIR_LAYOUT, "haar_pure", seed=seed * 1000003 + 2 * i + 1)
        chk = decoupling_check(mu, phi)
        scatter.append([chk.epsilon, chk.lhs, chk.rhs])
        if not chk.passed:
            violations += 1
    results = {"aux_dim": aux, "violations": violations, "scatter": scatter}
    return results, violations == 0


def _cmd_bounds(p):
    state, budget, max_ext = p["state"], p["budget"], p["max_ext_dim"]
    # round r extends the purifying factor to dimension at most r + 1
    work = budget * _dim_cost(state.total_dim * min(max_ext, budget))
    _check_budget(f"a search budget of {budget} at max_ext_dim {max_ext}", work,
                  BOUNDS_ROUND_BUDGET)
    hb = hashing_bounds(state)
    mi = mutual_information(state)
    sq = squashed_upper(state, max_ext_dim=max_ext, search_budget=budget, seed=p["seed"])
    results = {
        "hashing": hb._asdict(),
        "mutual_information": mi,
        "squashed_upper": sq.value,
        "extension_dim": sq.extension_dim,
    }
    passed = hb.lower <= hb.upper + 1e-9 and -1e-12 <= sq.value <= 0.5 * mi + 1e-9
    return results, passed


def _cmd_superadd(p):
    count = p["samples"]
    _check_budget(f"{count} samples", count, SUPERADD_SAMPLE_BUDGET)
    eps, mix = p["eps"], p["mix"]
    psi = singlet()
    rows = []
    passed = True
    for k in range(count):
        chi = random_state(PAIR_LAYOUT, "haar_pure", seed=p["seed"] + k)
        mu = QState(
            PAIR_LAYOUT.power(2),
            (1 - mix) * tensor(psi, psi).matrix + mix * tensor(chi, chi).matrix,
        )
        try:
            combined, budget = compose_superadditive(
                identity_protocol(PAIR_LAYOUT), identity_protocol(PAIR_LAYOUT), mu, psi, eps=eps
            )
            ok = combined < eps
            rows.append({"combined": combined, "budget": budget, "ok": ok})
            passed = passed and ok
        except (BudgetError, BoundViolationError) as exc:
            rows.append({"error": str(exc), "ok": False})
            passed = False
    return {"eps": eps, "mix": mix, "instances": rows}, passed


def _cmd_distill(p):
    f_target = p["f_target"]
    outcome = distill_to(f_target, p["f_initial"], max_rounds=p["max_rounds"])
    results = {
        "rounds": [r._asdict() for r in outcome.rounds],
        "round_count": len(outcome.rounds),
        "copies_consumed": outcome.copies_consumed,
        "final_fidelity": outcome.final_fidelity,
    }
    points, lo, hi = p["sweep_points"], p["sweep_lo"], p["sweep_hi"]
    if points:
        if points < 2 or not 0.25 < lo < hi <= 1.0:
            raise ScenarioError(
                f"sweep needs points >= 2 and 0.25 < lo < hi <= 1, got "
                f"{points}, {lo}, {hi}"
            )
        _check_budget(f"a sweep of {points} points", points, SWEEP_POINT_BUDGET)
        grid = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
        results["sweep"] = recurrence_sweep(grid)
    if p["mc_samples"]:
        results["expected_copies_mc"] = expected_copies_mc(outcome, p["mc_samples"], seed=p["seed"])
    return results, outcome.final_fidelity >= f_target


def _cmd_synth_catalyst(p):
    rho, sigma, n, copies = p["rho"], p["sigma"], p["n"], p["copies"]
    lam = _build_protocol(p["protocol"], rho, sigma, n)
    asm = build_catalyst(lam, rho, n)
    tau_eps, synth_dist = synthesize_tau_eps(asm.tau, p["f_resource"])
    # the run at tau is the one the build's checks made
    _, cert = iterate_reuse(asm.embedding, tau_eps, rho, copies, tau=asm.tau, sigma=sigma,
                            _run=asm._run)
    results = {
        "n": n,
        "copies": copies,
        "f_resource": p["f_resource"],
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
    return results, passed


def _cmd_pure_rate(p):
    if p["expect_catalytic"] is not None and p["catalyst"] is None:
        raise ScenarioError("expect_catalytic needs a catalyst key")
    sv_s, sv_t = SchmidtVector.of(p["source"]), SchmidtVector.of(p["target"])
    plain = majorizes(sv_t, sv_s)
    results = {"plain": plain._asdict()}
    passed = p["expect_plain"] is None or plain.convertible == p["expect_plain"]
    if p["catalyst"] is not None:
        catalytic = catalytic_convertible(sv_s, sv_t, SchmidtVector.of(p["catalyst"]))
        results["catalytic"] = catalytic._asdict()
        if p["expect_catalytic"] is not None:
            passed = passed and catalytic.convertible == p["expect_catalytic"]
    try:
        rate = pure_target_rate(sv_s, sv_t)
        results["rate"] = rate._asdict()
    except DivergingRateError:
        results["rate"] = None
    return results, passed


# command -> (runner, {key: (parser, default)}), the one record of a command's
# keys.  A parser takes the value and the key's name; a key whose default is
# _REQUIRED must be given.  Every command also takes the keys of _COMMON.
_COMMON = {"command": (_text, None), "seed": (_count(0), 0), "out": (_text, None)}
_COMMANDS = {
    "catalyze": (_cmd_catalyze, {
        "rho": (_parse_state, _REQUIRED), "n": (_count(2), _REQUIRED),
        "sigma": (_parse_state, None), "protocol": (_text, "identity"),
        "max_epsilon": (_float, None),
    }),
    "reduce": (_cmd_reduce, {
        "rho": (_parse_state, _REQUIRED), "sigma": (_parse_state, _REQUIRED),
        "n": (_count(1), _REQUIRED), "m": (_count(1), _REQUIRED),
        "protocol": (_text, "identity"), "max_error": (_float, None),
    }),
    "verify-lemma1": (_cmd_lemma1, {"aux_dim": (_count(1), 2), "samples": (_count(1), 200)}),
    "bounds": (_cmd_bounds, {
        "state": (_parse_state, _REQUIRED), "budget": (_count(0), 60),
        "max_ext_dim": (_count(1), 8),
    }),
    "superadd": (_cmd_superadd, {
        "eps": (_float, 0.3), "mix": (_float, 2e-4), "samples": (_count(1), 5),
    }),
    "distill": (_cmd_distill, {
        "f_initial": (_float, _REQUIRED), "f_target": (_float, _REQUIRED),
        "max_rounds": (_count(1), 200), "sweep_points": (_count(0), 0),
        "sweep_lo": (_float, 0.55), "sweep_hi": (_float, 0.95), "mc_samples": (_count(0), 0),
    }),
    "synth-catalyst": (_cmd_synth_catalyst, {
        "rho": (_parse_state, _REQUIRED), "sigma": (_parse_state, _REQUIRED),
        "n": (_count(2), 2), "copies": (_count(1), 3), "f_resource": (_float, 0.95),
        "protocol": (_text, "synth"),
    }),
    "pure-rate": (_cmd_pure_rate, {
        "source": (_parse_spectrum, _REQUIRED), "target": (_parse_spectrum, _REQUIRED),
        "catalyst": (_parse_spectrum, None), "expect_plain": (_bool, None),
        "expect_catalytic": (_bool, None),
    }),
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
    """Execute a parsed scenario and return the report dictionary.

    ``seed`` and ``samples``, when given, are handled as the scenario keys they
    override: parsed, bounded, and refused by a command without the key.
    """
    scen = dict(scenario)
    cmd = command or scen.get("command")
    if not cmd:
        raise ScenarioError("scenario does not name a command")
    if cmd not in _COMMANDS:
        raise ScenarioError(f"unknown command {cmd!r}")
    if "command" in scen and scen["command"] != cmd:
        raise ScenarioError(f"scenario command {scen['command']!r} does not match {cmd!r}")
    runner, keys = _COMMANDS[cmd]
    table = {**_COMMON, **keys}
    overrides = {"seed": seed, "samples": samples}
    given = {**scen, **{k: str(v) for k, v in overrides.items() if v is not None}}
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ScenarioError(f"unknown keys for {cmd}: {', '.join(unknown)}")
    missing = sorted(k for k, (_, d) in keys.items() if d is _REQUIRED and k not in scen)
    if missing:
        raise ScenarioError(f"missing keys for {cmd}: {', '.join(missing)}")
    values = {k: parse(given[k], k) if k in given else d for k, (parse, d) in table.items()}
    results, passed = runner(values)
    return {
        "command": cmd,
        "scenario": scen,
        "seed": values["seed"],
        "samples": values.get("samples"),
        "versions": {
            "catent": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "results": results,
        "passed": passed,
    }


# plot kind -> (the report's results key, the series' name, its CSV columns)
_PLOTS = {
    "distill": ("sweep", "distillation sweep", ("F_in", "F_out", "p", "expected_copies")),
    "decoupling": ("scatter", "decoupling scatter", ("eps", "lhs", "rhs")),
}


def emit_plotdata(report: Mapping, kind: str) -> str:
    """Render one report series as CSV with a stable column order.

    A report not shaped as its command writes it raises DocumentError.
    """
    if kind not in _PLOTS:
        raise MissingSeriesError(f"unknown plot kind {kind!r}")
    key, name, cols = _PLOTS[kind]
    with _io.parsing("report"):
        rows = (report.get("results") or {}).get(key)
    if not rows:
        raise MissingSeriesError(f"report has no {name} series")
    with _io.parsing("report"):
        # a sweep row maps each column to its value; a scatter row lists them in order
        if kind == "distill":
            rows = [[r[c] for c in cols] for r in rows]
        table = np.asarray(rows, dtype=float)
        if table.ndim != 2 or table.shape[1] != len(cols):
            raise DocumentError(f"malformed report document: {name} rows of shape {table.shape}")
    lines = [",".join(cols)] + [",".join(map(repr, r)) for r in table.tolist()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _env(name: str) -> str | None:
    value = os.environ.get(ENV_PREFIX + name)
    return value if value else None


def _env_int(name: str) -> int | None:
    value = _env(name)
    return None if value is None else _int(value, ENV_PREFIX + name)


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
            text = emit_plotdata(_io.read_document(path), kind)
            passed = True
            out = args.out or _env("OUT")
        else:
            path = args.scenario or _env("SCENARIO")
            if not path:
                raise ScenarioError("no scenario given (--scenario or CATENT_SCENARIO)")
            with open(path, "r", encoding="utf-8") as fh:
                scenario = parse_scenario(fh.read())
            seed = args.seed if args.seed is not None else _env_int("SEED")
            samples = args.samples
            if samples is None and "samples" in _COMMANDS[args.command][1]:
                samples = _env_int("SAMPLES")
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
