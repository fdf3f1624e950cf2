"""Two-qubit recurrence distillation and the noisy-teleport catalyst builder.

The Werner family is parameterized by singlet fidelity F with Bell-basis
spectrum (F, (1-F)/3, (1-F)/3, (1-F)/3).  A recurrence round consumes two
pairs and, on success, returns one pair of strictly higher fidelity for
any F in (1/2, 1).  The closed-form update and an independent brute-force
two-copy channel simulation are both exposed so they can be compared.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BudgetError, DimensionCapError, LayoutMismatchError
from .locc import _embed_operator, apply_to_factors, teleport_channel
from .qstate import DIM_CAP, QState, SystemLayout, trace_norm_dist

__all__ = [
    "PAIR_LAYOUT",
    "WernerState",
    "werner",
    "singlet_fidelity",
    "twirl_to_werner",
    "recurrence_step",
    "simulate_recurrence_step",
    "DistillRound",
    "DistillRun",
    "distill_to",
    "expected_copies_mc",
    "MC_COPY_BUDGET",
    "recurrence_sweep",
    "synthesize_tau_eps",
]

PAIR_LAYOUT = SystemLayout([(0, 2), (1, 2)])

# Most simulated copies one expected_copies_mc call may cost: the draw loop
# simulates about 1e6 copies/s (2-core box), so this is about 30 s of work.
MC_COPY_BUDGET = 3e7

# The singlet Bell vector with the first party's qubit most significant
_PSI_M = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _check_f(fidelity: float) -> float:
    f = float(fidelity)
    if not 0.25 < f <= 1.0 + 1e-12:
        raise ValueError(f"singlet fidelity must be in (1/4, 1], got {fidelity}")
    return min(f, 1.0)


@dataclass(frozen=True)
class WernerState:
    """Two-qubit Bell-diagonal state with weight F on the singlet."""

    fidelity: float
    state: QState

    def __post_init__(self):
        _check_f(self.fidelity)


def werner(fidelity: float) -> WernerState:
    f = _check_f(fidelity)
    proj = np.outer(_PSI_M, _PSI_M.conj())
    m = f * proj + (1.0 - f) / 3.0 * (np.eye(4, dtype=complex) - proj)
    return WernerState(f, QState(PAIR_LAYOUT, m))


def singlet_fidelity(state: QState) -> float:
    if state.layout.dims != (2, 2):
        raise LayoutMismatchError(f"need a two-qubit state, got dims {state.layout.dims}")
    return float((_PSI_M.conj() @ state.matrix @ _PSI_M).real)


def twirl_to_werner(state: QState) -> WernerState:
    """Project onto the Werner family; the singlet fidelity is preserved."""
    return werner(singlet_fidelity(state))


def recurrence_step(fidelity: float) -> tuple[float, float]:
    """Closed-form (F_out, success probability) of one recurrence round."""
    f = _check_f(fidelity)
    q = (1.0 - f) / 3.0
    p = f * f + 2.0 * f * q + 5.0 * q * q
    return (f * f + q * q) / p, p


def simulate_recurrence_step(fidelity: float) -> tuple[float, float]:
    """Brute-force density-matrix run of one recurrence round.

    Two Werner pairs on qubits [A1 B1 A2 B2]; both pairs are rotated so the
    dominant Bell component is the even one, both parties apply a CNOT from
    pair 1 onto pair 2, pair 2 is measured in the computational basis, and
    only equal outcomes are kept.  Written directly against numpy so it
    shares no code with the closed form.
    """
    f = _check_f(fidelity)
    w = werner(f).state.matrix
    rho = np.kron(w, w)
    u = functools.reduce(np.kron, (_I2, _SY, _I2, _SY))
    rho = u @ rho @ u.conj().T
    qubits = SystemLayout([(0, 2)] * 4)
    ca = _embed_operator(qubits, (0, 2), _CNOT)
    cb = _embed_operator(qubits, (1, 3), _CNOT)
    rho = ca @ rho @ ca.conj().T
    rho = cb @ rho @ cb.conj().T
    kept = np.zeros((16, 16), dtype=complex)
    prob = 0.0
    for a in (0, 1):
        ka = np.zeros((2, 2), dtype=complex)
        ka[a, a] = 1.0
        proj = functools.reduce(np.kron, (_I2, _I2, ka, ka))
        branch = proj @ rho @ proj
        prob += float(branch.trace().real)
        kept += branch
    t = kept.reshape((2,) * 8)
    red = np.einsum("abcdefcd->abef", t).reshape(4, 4) / prob
    back = np.kron(_I2, _SY.conj().T)
    red = back @ red @ back.conj().T
    return float((_PSI_M.conj() @ red @ _PSI_M).real), float(prob)


class DistillRound(NamedTuple):
    fidelity_before: float
    fidelity_after: float
    success_probability: float


@dataclass(frozen=True)
class DistillRun:
    rounds: tuple[DistillRound, ...]

    @property
    def copies_consumed(self) -> float:
        """Expected input copies: the product of 2/p over the rounds."""
        return math.prod((2.0 / r.success_probability for r in self.rounds), start=1.0)

    @property
    def final_fidelity(self) -> float:
        return self.rounds[-1].fidelity_after if self.rounds else math.nan


def distill_to(f_target: float, f_initial: float, max_rounds: int = 200) -> DistillRun:
    """Iterate recurrence rounds until the target fidelity is reached.

    Expected copies use the 2/p product bookkeeping: each round consumes two
    inputs of the previous level and succeeds with probability p.  Raises
    BudgetError when the target needs more than ``max_rounds`` rounds.
    """
    if not f_initial > 0.5:
        raise ValueError(
            f"recurrence distillation needs initial fidelity > 1/2, got {f_initial}; "
            "at or below 1/2 the map does not improve the state"
        )
    if not f_initial < f_target:
        raise ValueError(f"target {f_target} must exceed the initial fidelity {f_initial}")
    if not f_target < 1.0:
        raise ValueError(f"target {f_target} must be < 1 (unit fidelity needs infinitely many rounds)")
    rounds: list[DistillRound] = []
    f = float(f_initial)
    while f < f_target:
        if len(rounds) >= max_rounds:
            raise BudgetError(f"no convergence within {max_rounds} rounds")
        f_next, p = recurrence_step(f)
        rounds.append(DistillRound(f, f_next, p))
        f = f_next
    return DistillRun(rounds=tuple(rounds))


def expected_copies_mc(run: DistillRun, samples: int, seed: int = 0) -> float:
    """Monte Carlo cross-check of the expected-copies bookkeeping.

    Raises BudgetError before the first draw when ``samples`` times the
    expected copies per sample exceeds ``MC_COPY_BUDGET``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    work = samples * run.copies_consumed
    if work > MC_COPY_BUDGET:
        raise BudgetError(
            f"Monte Carlo needs about {work:.3g} simulated copies "
            f"({samples} samples x {run.copies_consumed:.3g}); the budget is {MC_COPY_BUDGET:.3g}"
        )
    rng = np.random.default_rng(seed)
    probs = [r.success_probability for r in run.rounds]

    def cost(level: int) -> float:
        if level == 0:
            return 1.0
        total = 0.0
        while True:
            total += cost(level - 1) + cost(level - 1)
            if rng.random() < probs[level - 1]:
                return total

    return float(np.mean([cost(len(probs)) for _ in range(samples)]))


def recurrence_sweep(f_values: Sequence[float]) -> list[dict[str, float]]:
    rows = []
    for f in f_values:
        f_out, p = recurrence_step(f)
        rows.append(
            {
                "F_in": float(f),
                "F_out": float(f_out),
                "p": float(p),
                "expected_copies": float(2.0 / p),
            }
        )
    return rows


def synthesize_tau_eps(tau: QState, f_resource: float) -> tuple[QState, float]:
    """Approximate a catalyst by teleporting its second-party factors
    through noisy resource pairs of the given fidelity.

    Factors owned by party 1 each pass through the effective depolarizing
    channel of teleportation; everything else is untouched (prepared
    locally).  Returns the approximation and its trace distance to tau.
    """
    f = _check_f(f_resource)
    if tau.total_dim > DIM_CAP:
        raise DimensionCapError(f"catalyst dim {tau.total_dim} exceeds {DIM_CAP}")
    state = tau
    for i, factor in enumerate(tau.layout):
        if factor.party == 1:
            ch = teleport_channel(f, factor.dim, party=1)
            state = apply_to_factors(ch, state, (i,))
    return state, trace_norm_dist(state, tau)
