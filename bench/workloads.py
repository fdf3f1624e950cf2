"""Benchmark workloads: seeded inputs, the calls that run them, and checks.

Every operation drives catent through ``catent.cli.run`` on a generated
scenario, or through one library call where no command reaches a layer
at the needed size.  The catent functions are looked up on their module
at call time, so the traced run's wrappers see them.  Each operation
returns a JSON-ready report; ``check`` lists what is wrong with it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from catent import catfactory, cli, distill, locc, purecat, qstate

PAIR = qstate.SystemLayout([(0, 2), (1, 2)])
EXACT = 1e-9  # tolerance of every exactness invariant below
MC_REL_TOL = 0.25  # Monte Carlo mean vs the exact expected copies, 200 samples


@dataclass
class Op:
    name: str  # unique within the workload; keys the reference corpus
    phase: str  # end-to-end group the operation's time is added to
    call: Callable[[], dict]
    check: Callable[[dict], list[str]]
    instances: int = 1  # random instances the operation checks


# ---------------------------------------------------------------------------
# checks that hold on every seed


def _catalyze(rep):
    res = rep["results"]
    cert = res["certificate"]
    out = []
    if not cert["catalyst_drift"] < EXACT:
        out.append(f"catalyst drift {cert['catalyst_drift']!r}")
    # the output is the average of the per-copy marginals: convexity bounds it
    mean_err = sum(res["copy_errors"]) / len(res["copy_errors"])
    if not cert["epsilon_achieved"] <= mean_err + EXACT:
        out.append(f"epsilon {cert['epsilon_achieved']!r} above the copy mean {mean_err!r}")
    return out


def _synth_catalyst(rep):
    res = rep["results"]
    eps = res["epsilon_initial"]
    out = []
    if not res["fixed_point_residual"] < EXACT:
        out.append(f"fixed-point residual {res['fixed_point_residual']!r}")
    if any(d > eps + EXACT for d in res["catalyst_drifts"]):
        out.append("a catalyst drift exceeds the initial catalyst error")
    return out


def _reduce(rep):
    res = rep["results"]
    if res["rate"] != res["m"] / res["n"]:
        return [f"rate {res['rate']!r} is not m/n"]
    return []


def _lemma1(rep):
    res = rep["results"]
    out = []
    if res["violations"] != 0:
        out.append(f"{res['violations']} decoupling violations")
    if len(res["scatter"]) != rep["samples"]:
        out.append("scatter length differs from the sample count")
    return out


def _superadd(rep):
    rows = rep["results"]["instances"]
    if len(rows) != rep["samples"] or not all(r["ok"] for r in rows):
        return ["a composition instance failed"]
    return []


def _bounds(rep):
    res = rep["results"]
    if not res["hashing"]["lower"] <= res["hashing"]["upper"] + EXACT:
        return ["hashing lower bound above upper bound"]
    return []


def _distill(rep):
    res = rep["results"]
    exact, mc = res["copies_consumed"], res["expected_copies_mc"]
    if abs(mc - exact) > MC_REL_TOL * exact:
        return [f"Monte Carlo copies {mc!r} far from the exact {exact!r}"]
    return []


def _pure_rate(rep):
    rate = rep["results"]["rate"]
    if rate is None or abs(rate["lower"] - rate["upper"]) > EXACT:
        return [f"pure-source rate interval {rate!r} is not a point"]
    return []


_CLI_CHECKS = {
    "catalyze": _catalyze,
    "synth-catalyst": _synth_catalyst,
    "reduce": _reduce,
    "verify-lemma1": _lemma1,
    "superadd": _superadd,
    "bounds": _bounds,
    "distill": _distill,
    "pure-rate": _pure_rate,
}


def _check_cli(rep: dict) -> list[str]:
    out = [] if rep["passed"] is True else ["report says passed: false"]
    return out + _CLI_CHECKS[rep["command"]](rep)


def _cli_op(name, phase, scenario, seed, instances=1) -> Op:
    scen = {k: str(v) for k, v in scenario.items()}
    return Op(name, phase, lambda: cli.run(scen, seed=seed), _check_cli, instances)


# ---------------------------------------------------------------------------
# input helpers


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _power(sv, n):
    out = sv
    for _ in range(n - 1):
        out = out.tensor(sv)
    return out


def _noisy(base, keep: float):
    """``base`` followed by depolarizing party 0's first qubit."""
    dep = locc.Channel.depolarizing(qstate.SystemLayout([(0, 2)]), keep)
    extra = locc.local_channel(base.input_layout, 0, (0,), dep.kraus)
    return locc.LoccProtocol(base.input_layout, base.steps + (extra,))


def _spectrum(r: random.Random, length: int) -> list[float]:
    w = [r.expovariate(1.0) for _ in range(length)]
    total = sum(w)
    return sorted((x / total for x in w), reverse=True)


def _margin(target, source) -> float:
    """Smallest prefix-sum lead of target over source (>= 0: convertible)."""
    d = max(len(target), len(source))
    t, s = (np.cumsum(np.sort(np.pad(v, (0, d - len(v))) / np.sum(v))[::-1])
            for v in (np.asarray(target), np.asarray(source)))
    return float(np.min(t[:-1] - s[:-1]))


# ---------------------------------------------------------------------------
# factory


def _reuse_report(src, tgt, f_resource: float) -> dict:
    rho = purecat.canonical_pure(src)
    lam = purecat.synthesize_pure_protocol(_power(src, 2), _power(tgt, 2), layout=PAIR.power(2))
    asm = catfactory.build_catalyst(lam, rho, 2)
    tau_eps, _ = distill.synthesize_tau_eps(asm.tau, f_resource)
    _, cert = catfactory.iterate_reuse(asm.embedding, tau_eps, rho, 5)
    return {
        "epsilon_initial": cert.epsilon_initial,
        "delta_single_shot": cert.delta_single_shot,
        "fixed_point_residual": cert.fixed_point_residual,
        "catalyst_drifts": list(cert.catalyst_drifts),
        "per_marginal_errors": list(cert.per_marginal_errors),
    }


def _check_reuse(rep: dict) -> list[str]:
    eps = rep["epsilon_initial"]
    bound = eps + rep["delta_single_shot"] + EXACT
    out = []
    if not rep["fixed_point_residual"] < EXACT:
        out.append(f"fixed-point residual {rep['fixed_point_residual']!r}")
    if any(d > eps + EXACT for d in rep["catalyst_drifts"]):
        out.append("a catalyst drift exceeds the initial catalyst error")
    if any(e > bound for e in rep["per_marginal_errors"]):
        out.append("a per-copy error exceeds epsilon + delta")
    return out


def _synthesis_report(src, tgt, n: int) -> dict:
    """Synthesize the n-copy conversion and run every outcome on the source.

    In the Schmidt basis a bipartite pure state is a matrix M of
    amplitudes; party 0's Kraus operator K and party 1's correction C
    map it to K M C^T.  Every outcome must leave sqrt(p) times the
    target's amplitudes, and the outcome probabilities must sum to 1.
    """
    s, t = _power(src, n), _power(tgt, n)
    proto = purecat.synthesize_pure_protocol(s, t)
    (step,) = proto.steps
    cases = step.case_map()
    m0 = np.diag(np.sqrt(np.asarray(s.probs)))
    want = np.sqrt(np.asarray(t.probs))
    total, worst = 0.0, 0.0
    outcomes = step.instrument.outcomes
    for lo in range(0, len(outcomes), 2048):
        chunk = outcomes[lo : lo + 2048]
        k = np.stack([ch.kraus[0] for _, ch in chunk])
        c = np.stack([cases[lab][0].kraus[0] for lab, _ in chunk])
        m = k @ m0 @ c.transpose(0, 2, 1)
        p = np.einsum("mab,mab->m", m, m.conj()).real
        total += float(p.sum())
        live = p > 1e-12
        dev = m[live] / np.sqrt(p[live])[:, None, None] - np.diag(want)
        if dev.size:
            worst = max(worst, float(np.max(np.abs(dev))))
    return {"probability_total": total, "max_amplitude_error": worst}


def _check_synthesis(rep: dict) -> list[str]:
    out = []
    if abs(rep["probability_total"] - 1.0) > EXACT:
        out.append(f"outcome probabilities sum to {rep['probability_total']!r}")
    if not rep["max_amplitude_error"] < EXACT:
        out.append(f"an outcome misses the target by {rep['max_amplitude_error']!r}")
    return out


def factory(seed: int, workdir: str) -> list[Op]:
    r = random.Random(f"factory:{seed}")
    fid = _fmt(r.uniform(0.70, 0.95))
    haar, gin = r.randrange(10**6), r.randrange(10**6)
    p1 = float(_fmt(r.uniform(0.70, 0.85)))
    keep = float(_fmt(r.uniform(0.85, 0.95)))
    f_res = _fmt(r.uniform(0.90, 0.97))
    run_seed = r.randrange(10**6)
    # A uniform source keeps the synthesized n-copy output independent of
    # how the conversion is decomposed: every outcome lands on the target.
    rho, sigma = "pure:0.5,0.5", f"pure:{_fmt(p1)},{_fmt(1 - p1)}"
    src = qstate.SchmidtVector.of((0.5, 0.5))
    tgt = qstate.SchmidtVector.of((p1, float(_fmt(1 - p1))))

    os.makedirs(workdir, exist_ok=True)
    ops: list[Op] = []
    for n in (2, 3):
        noisy_id = os.path.join(workdir, f"noisy_identity_n{n}.json")
        noisy_synth = os.path.join(workdir, f"noisy_synth_n{n}.json")
        locc.save_protocol(_noisy(locc.identity_protocol(PAIR.power(n)), keep), noisy_id)
        base = purecat.synthesize_pure_protocol(
            _power(src, n), _power(tgt, n), layout=PAIR.power(n)
        )
        locc.save_protocol(_noisy(base, keep), noisy_synth)
        cases = {
            "werner_identity": {"rho": f"werner:{fid}", "max_epsilon": EXACT},
            "haar_identity": {"rho": f"haar:{haar}", "max_epsilon": EXACT},
            # n=3 synth is not exact (see NOTES.md), so only n=2 asserts it
            "synth": {"rho": rho, "sigma": sigma, "protocol": "synth",
                      **({"max_epsilon": EXACT} if n == 2 else {})},
            "ginibre_noisy_identity": {"rho": f"ginibre:{gin}", "protocol": f"file:{noisy_id}"},
            "synth_depolarizing": {"rho": rho, "sigma": sigma, "protocol": f"file:{noisy_synth}"},
        }
        for case, scen in cases.items():
            ops.append(
                _cli_op(f"catalyze.{case}.n{n}", "catalyze",
                        {"command": "catalyze", "n": n, **scen}, run_seed)
            )
    for n in (2, 3):
        ops.append(
            _cli_op(f"synth_catalyst.n{n}", "synth_catalyst",
                    {"command": "synth-catalyst", "rho": rho, "sigma": sigma, "n": n,
                     "copies": 3, "f_resource": f_res}, run_seed)
        )
    ops.append(
        _cli_op("reduce.synth.n3m2", "reduce",
                {"command": "reduce", "rho": rho, "sigma": sigma, "protocol": "synth",
                 "n": 3, "m": 2}, run_seed)
    )
    ops.append(Op("reuse.fixed_point.n2", "reuse",
                  lambda: _reuse_report(src, tgt, float(f_res)), _check_reuse))
    ops.append(Op("synthesis.n4", "synthesis",
                  lambda: _synthesis_report(src, tgt, 4), _check_synthesis))
    return ops


# ---------------------------------------------------------------------------
# ensemble


def ensemble(seed: int, workdir: str) -> list[Op]:
    r = random.Random(f"ensemble:{seed}")
    ops: list[Op] = []
    for aux in (2, 8):
        for k in range(2):
            ops.append(
                _cli_op(f"lemma1.aux{aux}.{k}", "lemma1",
                        {"command": "verify-lemma1", "aux_dim": aux, "samples": 1000},
                        r.randrange(10**6), instances=1000)
            )
    for k in range(4):
        scen = {"command": "superadd", "samples": 50,
                "eps": _fmt(r.uniform(0.30, 0.35)), "mix": f"{r.uniform(1e-4, 2e-4):.6e}"}
        ops.append(_cli_op(f"superadd.{k}", "superadd", scen, r.randrange(10**6), instances=50))
    return ops


# ---------------------------------------------------------------------------
# search


def _pure_rate_case(r: random.Random) -> dict:
    """A seeded spectrum pair with catalyst, clear of the decision boundary.

    The expected verdicts come from the benchmark's own prefix-sum test,
    so the report's ``passed`` checks catent's majorization gate.
    """
    while True:
        n_src, n_tgt = r.choice((3, 4)), r.choice((2, 3, 4))
        source = [float(_fmt(x)) for x in _spectrum(r, n_src)]
        target = [float(_fmt(x)) for x in _spectrum(r, n_tgt)]
        catalyst = [float(_fmt(x)) for x in _spectrum(r, 2)]
        if min(target) < 0.01 or min(catalyst) < 0.01:
            continue
        plain = _margin(target, source)
        cat = _margin(np.outer(target, catalyst).ravel(), np.outer(source, catalyst).ravel())
        if min(abs(plain), abs(cat)) > 1e-6:
            break
    return {
        "command": "pure-rate",
        "source": ",".join(_fmt(x) for x in source),
        "target": ",".join(_fmt(x) for x in target),
        "catalyst": ",".join(_fmt(x) for x in catalyst),
        "expect_plain": "true" if plain > 0 else "false",
        "expect_catalytic": "true" if cat > 0 else "false",
    }


def search(seed: int, workdir: str) -> list[Op]:
    r = random.Random(f"search:{seed}")
    ops: list[Op] = []
    for k in range(2):
        states = {
            "werner": f"werner:{_fmt(r.uniform(0.60, 0.95))}",
            "ginibre": f"ginibre:{r.randrange(10**6)}",
            "haar": f"haar:{r.randrange(10**6)}",
        }
        for kind, state in states.items():
            ops.append(
                _cli_op(f"bounds.{kind}.{k}", "bounds",
                        {"command": "bounds", "state": state, "budget": 300},
                        r.randrange(10**6))
            )
    ops.append(
        _cli_op("distill.0.75-0.99", "distill",
                {"command": "distill", "f_initial": "0.75", "f_target": "0.99",
                 "sweep_points": 40, "sweep_lo": _fmt(r.uniform(0.55, 0.60)),
                 "sweep_hi": _fmt(r.uniform(0.90, 0.95)), "mc_samples": 200},
                r.randrange(10**6))
    )
    for k in range(100):
        ops.append(_cli_op(f"pure_rate.{k}", "pure_rate", _pure_rate_case(r), 0))
    return ops


WORKLOADS: dict[str, Callable[[int, str], list[Op]]] = {
    "factory": factory,
    "ensemble": ensemble,
    "search": search,
}
