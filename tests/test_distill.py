import math

import numpy as np
import pytest

from catent import distill
from catent.distill import (
    PAIR_LAYOUT,
    DistillRun,
    distill_to,
    expected_copies_mc,
    recurrence_step,
    recurrence_sweep,
    simulate_recurrence_step,
    singlet_fidelity,
    synthesize_tau_eps,
    twirl_to_werner,
    werner,
)
from catent.errors import BudgetError, LayoutMismatchError
from catent.qstate import QState, random_state, singlet, tensor, trace_norm_dist

PSI_M = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Werner family


def test_werner_bell_spectrum():
    for f in (0.3, 0.5, 0.9, 1.0):
        w = werner(f)
        eigs = np.sort(np.linalg.eigvalsh(w.state.matrix))[::-1]
        want = np.sort([f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3])[::-1]
        assert np.max(np.abs(eigs - want)) < 1e-12
        assert abs(singlet_fidelity(w.state) - f) < 1e-12


def test_werner_domain():
    with pytest.raises(ValueError):
        werner(0.25)
    with pytest.raises(ValueError):
        werner(1.0 + 1e-6)


def test_twirl_preserves_singlet_fidelity():
    s = random_state(PAIR_LAYOUT, "ginibre_mixed", seed=3)
    f = singlet_fidelity(s)
    if f <= 0.25:  # twirl target outside the Werner domain; rotate toward psi-
        s = QState(PAIR_LAYOUT, 0.5 * s.matrix + 0.5 * singlet().matrix)
        f = singlet_fidelity(s)
    w = twirl_to_werner(s)
    assert abs(w.fidelity - f) < 1e-12
    again = twirl_to_werner(w.state)
    assert np.max(np.abs(again.state.matrix - w.state.matrix)) < 1e-12


def test_singlet_fidelity_layout_check():
    with pytest.raises(LayoutMismatchError):
        singlet_fidelity(random_state(PAIR_LAYOUT.power(2), "ginibre_mixed", seed=0))


# ---------------------------------------------------------------------------
# recurrence map


def test_recurrence_frozen_value():
    f_out, p = recurrence_step(0.8)
    assert abs(f_out - 0.838150289017341) < 1e-12
    assert abs(f_out - 0.8382) < 1e-3
    assert abs(p - 0.7688888888888889) < 1e-12


def test_recurrence_fixed_points():
    assert recurrence_step(1.0) == (1.0, 1.0)
    f_out, _ = recurrence_step(0.25 + 1e-9)
    assert abs(f_out - 0.25) < 1e-7


def test_recurrence_improves_above_half():
    for f in np.linspace(0.51, 0.99, 25):
        f_out, p = recurrence_step(float(f))
        assert f_out > f
        assert 0.0 < p <= 1.0


def test_recurrence_domain():
    for bad in (0.25, 0.0, 1.1, -0.3):
        with pytest.raises(ValueError):
            recurrence_step(bad)


def test_closed_form_matches_simulation_grid():
    for f in np.linspace(0.26, 1.0, 50):
        fc, pc = recurrence_step(float(f))
        fs, ps = simulate_recurrence_step(float(f))
        assert abs(fc - fs) < 1e-10
        assert abs(pc - ps) < 1e-10


# ---------------------------------------------------------------------------
# distillation runs


def test_distill_to_frozen_run():
    run = distill_to(0.9, 0.8)
    assert len(run.rounds) == 3
    assert abs(run.copies_consumed - 15.237039080745603) < 1e-9
    assert run.final_fidelity >= 0.9
    for r in run.rounds:
        assert r.fidelity_after > r.fidelity_before


def test_distill_round_count_matches_map_iteration():
    # oracle: iterate the closed form directly
    f = 0.72
    target = 0.95
    count = 0
    while f < target:
        f = recurrence_step(f)[0]
        count += 1
    run = distill_to(target, 0.72)
    assert len(run.rounds) == count


def test_distill_terminates_from_barely_distillable():
    run = distill_to(0.99, 0.51)
    assert run.final_fidelity >= 0.99
    assert run.copies_consumed > 1.0


def test_distill_errors():
    with pytest.raises(ValueError, match="1/2"):
        distill_to(0.9, 0.5)
    with pytest.raises(ValueError):
        distill_to(0.6, 0.8)
    with pytest.raises(ValueError):
        distill_to(1.0, 0.8)


def test_unit_target_is_refused_before_any_round():
    # past the check, a BudgetError came after 200 rounds
    with pytest.raises(ValueError, match="target 1.0 must be < 1") as err:
        distill_to(1.0, 0.8)
    assert type(err.value) is ValueError


def test_expected_copies_monte_carlo():
    run = distill_to(0.9, 0.8)
    mc = expected_copies_mc(run, samples=4000, seed=7)
    assert abs(mc - run.copies_consumed) / run.copies_consumed < 0.1
    with pytest.raises(ValueError, match="samples must be >= 1"):
        expected_copies_mc(run, samples=0)


def test_copies_consumed_is_the_product_of_the_round_costs():
    # multiplied left to right from 1.0, as distill_to multiplied it
    run = distill_to(0.99, 0.75)
    want = 1.0
    for r in run.rounds:
        want *= 2.0 / r.success_probability
    assert run.copies_consumed == want == 8782.608608379338


def test_expected_copies_mc_budget_checked_before_drawing(monkeypatch):
    # a run with no rounds costs exactly one copy per sample; with a budget of
    # one copy, one sample is at the budget
    monkeypatch.setattr(distill, "MC_COPY_BUDGET", 1.0)
    at_budget = DistillRun(rounds=())
    assert at_budget.copies_consumed == 1.0
    assert expected_copies_mc(at_budget, samples=1) == 1.0
    with pytest.raises(BudgetError, match="budget"):
        expected_copies_mc(at_budget, samples=2)


def test_recurrence_sweep_rows():
    rows = recurrence_sweep([0.6, 0.8])
    assert [r["F_in"] for r in rows] == [0.6, 0.8]
    assert set(rows[0]) == {"F_in", "F_out", "p", "expected_copies"}
    assert abs(rows[1]["F_out"] - 0.838150289017341) < 1e-12


# ---------------------------------------------------------------------------
# noisy catalyst synthesis


def test_tau_eps_exact_resource():
    tau = singlet()
    out, eps = synthesize_tau_eps(tau, 1.0)
    assert eps < 1e-12
    assert np.max(np.abs(out.matrix - tau.matrix)) < 1e-12


def test_tau_eps_singlet_closed_form():
    # oracle: teleporting one qubit of psi- applies depolarizing with
    # keep probability (4F-1)/3, so the distance is (1-p) * || psi- - I/4 ||_1
    tau = singlet()
    for f in (0.6, 0.8, 0.9):
        keep = (4.0 * f - 1.0) / 3.0
        want = (1.0 - keep) * 1.5
        _, eps = synthesize_tau_eps(tau, f)
        assert abs(eps - want) < 1e-12


def test_tau_eps_monotone_in_resource():
    tau = tensor(singlet(), singlet())
    grid = [synthesize_tau_eps(tau, f)[1] for f in np.linspace(0.3, 1.0, 12)]
    assert all(a >= b - 1e-12 for a, b in zip(grid, grid[1:]))
    assert grid[-1] < 1e-12


def test_tau_eps_multi_factor_oracle():
    # independent route: build the two-qubit product channel explicitly
    tau = tensor(singlet(), singlet())  # factors [A B A B]
    f = 0.85
    keep = (4.0 * f - 1.0) / 3.0
    ks = [math.sqrt(keep) * np.eye(2, dtype=complex)]
    w = (1.0 - keep) / 2.0
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = math.sqrt(w)
            ks.append(e)
    acc = np.zeros((16, 16), dtype=complex)
    for k1 in ks:
        for k2 in ks:
            big = np.kron(np.kron(np.eye(2), k1), np.kron(np.eye(2), k2))
            acc += big @ tau.matrix @ big.conj().T
    out, eps = synthesize_tau_eps(tau, f)
    assert np.max(np.abs(out.matrix - acc)) < 1e-12
    assert abs(eps - trace_norm_dist(out, tau)) < 1e-15
