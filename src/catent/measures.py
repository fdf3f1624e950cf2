"""Entanglement measures and quantitative bound verifiers.

Everything here is finite-dimensional and certificate-oriented: functions
either compute a bound that is valid by construction (any extension gives
an upper bound on squashed entanglement) or measure a quantity and check
it against an inequality that must hold unconditionally.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BoundViolationError,
    BudgetError,
    DimensionCapError,
    DivergingRateError,
    LayoutMismatchError,
    NotPureError,
)
from .locc import LoccProtocol, run_protocol, tensor_protocols
from .qstate import (
    DIM_CAP,
    EIG_CUTOFF,
    QState,
    SystemLayout,
    _check_bipartition,
    _entropy_from_probs,
    _purification_vector,
    _reduce_matrix,
    entanglement_entropy,
    is_pure,
    n_copies,
    partial_trace,
    permute_factors,
    tensor,
    trace_norm_dist,
    von_neumann_entropy,
)

__all__ = [
    "EdBounds",
    "SquashedBound",
    "RateBoundReport",
    "DecouplingCheck",
    "hashing_bounds",
    "mutual_information",
    "cqmi",
    "squashed_upper",
    "rate_bound_report",
    "decoupling_check",
    "compose_superadditive",
]


# ---------------------------------------------------------------------------
# hashing sandwich


class EdBounds(NamedTuple):
    """Two-sided distillable-entanglement sandwich.

    lower is the coherent information S(A) - S(AB), reported raw (it can be
    negative); upper is the marginal entropy S(A).
    """

    lower: float
    upper: float


def hashing_bounds(rho: QState, parties_a: Sequence[int] = (0,)) -> EdBounds:
    a, _ = _check_bipartition(rho.layout, parties_a)
    s_a = von_neumann_entropy(partial_trace(rho, a))
    s_ab = von_neumann_entropy(rho)
    return EdBounds(lower=s_a - s_ab, upper=s_a)


def mutual_information(rho: QState, parties_a: Sequence[int] = (0,)) -> float:
    a, b = _check_bipartition(rho.layout, parties_a)
    s_a = von_neumann_entropy(partial_trace(rho, a))
    s_b = von_neumann_entropy(partial_trace(rho, b))
    return s_a + s_b - von_neumann_entropy(rho)


def cqmi(rho_abe: QState) -> float:
    """I(A;B|E) = S(AE) + S(BE) - S(ABE) - S(E) with parties 0=A, 1=B, 2=E."""
    layout = rho_abe.layout
    if set(layout.parties) != {0, 1, 2}:
        raise LayoutMismatchError(
            f"need parties (0, 1, 2) = (A, B, E), got {layout.parties}"
        )
    return _cqmi(rho_abe.matrix, layout)


def _cqmi(matrix: np.ndarray, layout: SystemLayout) -> float:
    """I(A;B|E) of a raw matrix on an (A, B, E) layout; no validation.

    The matrix and each marginal are symmetrized as ``_validate_density``
    does before their ``eigvalsh``, so they give the bits a ``QState`` would.
    """

    def s(m: np.ndarray) -> float:
        return _entropy_from_probs(np.linalg.eigvalsh((m + m.conj().T) / 2.0))

    m = (matrix + matrix.conj().T) / 2.0
    a, b, e = (layout.party_factors(p) for p in (0, 1, 2))
    s_ae, s_be, s_e = (s(_reduce_matrix(m, layout.dims, sorted(k))) for k in (a + e, b + e, e))
    return s_ae + s_be - s(m) - s_e


# ---------------------------------------------------------------------------
# squashed entanglement upper bounds


class SquashedBound(NamedTuple):
    value: float
    extension_dim: int
    extension_state: QState


def _flag_extension(parts: Sequence[tuple[float, np.ndarray]]) -> np.ndarray:
    """sum_i w_i m_i (x) |i><i|, each m_i symmetrized: E flags the part."""
    dim_e, d = len(parts), len(parts[0][1])
    acc = np.zeros((d, dim_e, d, dim_e), dtype=complex)
    for i, (w, m) in enumerate(parts):
        acc[:, i, :, i] = w * ((m + m.conj().T) / 2.0)
    return acc.reshape(d * dim_e, d * dim_e)


def _extension_factor(psi: np.ndarray, w: np.ndarray, out_dim: int) -> np.ndarray:
    """Raw Z with Z Z^dag = sum_k (I (x) W_k)|psi><psi|(I (x) W_k)^dag; no validation.

    W_k is the k-th block of ``out_dim`` rows of ``w``, ``psi`` a (d_AB, ref_dim)
    coefficient matrix, and column k of Z is (I (x) W_k)|psi>.
    """
    d_ab = len(psi)
    return (psi @ w.T).reshape(d_ab, -1, out_dim).transpose(0, 2, 1).reshape(d_ab * out_dim, -1)


def _factor_entropy(x: np.ndarray) -> float:
    """S(X X^dag) from the smaller of X X^dag and X^dag X: one nonzero spectrum."""
    g = x.conj().T @ x if x.shape[1] < x.shape[0] else x @ x.conj().T
    return _entropy_from_probs(np.linalg.eigvalsh(g))


def _factor_cqmi(z: np.ndarray, layout: SystemLayout) -> float:
    """``_cqmi`` of Z Z^dag from the factor Z, whose rows are on ``layout``.

    A marginal's factor is Z with the traced factors and Z's columns moved
    into its columns, grouped by party: a party may hold interleaved factors.
    """
    dims = layout.dims
    t = z.reshape(dims + (-1,))

    def s(keep: tuple[int, ...]) -> float:
        rest = [i for i in range(t.ndim) if i not in keep]
        d_keep = math.prod(dims[i] for i in keep)
        return _factor_entropy(t.transpose(list(keep) + rest).reshape(d_keep, -1))

    a, b, e = (layout.party_factors(p) for p in (0, 1, 2))
    return s(a + e) + s(b + e) - _factor_entropy(z) - s(e)


def squashed_upper(
    rho: QState,
    max_ext_dim: int = 8,
    search_budget: int = 200,
    seed: int = 0,
    decomposition: Sequence[tuple[float, QState]] | None = None,
) -> SquashedBound:
    """Best upper bound on squashed entanglement found over searched extensions.

    Every candidate is an exact extension (AB-marginal equals the input by
    construction), so the minimum over candidates is always a valid upper
    bound; the search has no convergence requirement.  Deterministic
    candidates (trivial, eigenvector flags, a user decomposition, the bare
    purification) are evaluated first, in that order, under a strict ``<``.
    ``search_budget`` counts the random channel candidates and refinement
    steps on the purifying factor; a round replaces the best only when it
    is lower by more than ``EIG_CUTOFF``, the entropies' resolution, so
    exact ties keep the earlier, smaller extension.  Candidates are scored
    raw, with no validation: the deterministic ones as dense matrices, a
    round from the factor Z of its extension Z Z^dag (``_factor_cqmi``),
    whose Z Z^dag is formed only when the round becomes the best.  Only
    the returned extension and the flag extension of a user
    ``decomposition``, which is outside input, are validated, so a
    negative weight raises ``StateInvariantError``.  ``DimensionCapError``
    is raised before any candidate if the widest extension a candidate
    could build exceeds ``DIM_CAP``: ``rho.total_dim`` times the rank (the
    eigenvector flags), the decomposition's length, or
    ``min(max_ext_dim, search_budget)`` (the rounds).
    """
    layout = rho.layout
    if set(layout.parties) != {0, 1}:
        raise LayoutMismatchError(f"need a bipartite (0, 1) state, got {layout.parties}")
    if max_ext_dim < 1:
        raise ValueError(f"max_ext_dim must be >= 1, got {max_ext_dim}")
    if search_budget < 0:
        raise BudgetError(f"search_budget must be >= 0, got {search_budget}")
    vals, vecs = np.linalg.eigh(rho.matrix)
    # a flag extension has one flag per eigenvector or decomposition member,
    # and round r extends the purifying factor to an output dimension of at
    # most min(max_ext_dim, r + 1): check the widest before any candidate
    rank = int(np.count_nonzero(vals > EIG_CUTOFF))
    width = max(rank, len(decomposition or ()), min(max_ext_dim, search_budget))
    if rho.total_dim * width > DIM_CAP:
        raise DimensionCapError(
            f"extension dimension {rho.total_dim * width} ({rho.total_dim} x {width}) "
            f"exceeds cap {DIM_CAP}"
        )

    @functools.cache  # one layout per dimension of E, not one per round
    def ext_layout(dim_e: int) -> SystemLayout:
        return layout + SystemLayout([(2, dim_e)])

    candidates = [(rho.matrix, 1)]  # (extension matrix, dimension of E)
    eig_parts = [(float(v), np.outer(u, u.conj())) for v, u in zip(vals, vecs.T)
                 if v > EIG_CUTOFF]
    if len(eig_parts) > 1:
        candidates.append((_flag_extension(eig_parts), len(eig_parts)))

    if decomposition is not None:
        recon = np.zeros_like(rho.matrix)
        for w, st in decomposition:
            if st.layout.dims != layout.dims:
                raise LayoutMismatchError("decomposition member has wrong dims")
            recon = recon + w * st.matrix
        if not np.max(np.abs(recon - rho.matrix)) <= 1e-8:
            raise ValueError("decomposition does not reconstruct the input state")
        flags = _flag_extension([(w, st.matrix) for w, st in decomposition])
        dim_e = len(decomposition)
        candidates.append((QState(ext_layout(dim_e), flags).matrix, dim_e))

    # the purification's (d_AB, ref_dim) coefficients, normalized as ``purify`` does
    psi = _purification_vector(rho)
    psi = psi / float(np.linalg.norm(psi))
    ref_dim = psi.shape[1]
    if ref_dim <= max_ext_dim:
        v = psi.reshape(-1)
        candidates.append((np.outer(v, v.conj()), ref_dim))

    best_val = math.inf
    for m, dim_e in candidates:
        val = 0.5 * _cqmi(m, ext_layout(dim_e))
        if val < best_val:
            best_val, best = val, (m, dim_e)

    # random processing of the purifying factor: any channel on the
    # reference yields another valid extension
    rng = np.random.default_rng(seed)
    # Rounds are a single deterministic sequence: round r makes the same
    # proposal for every budget >= r, so enlarging the budget can only
    # lower the returned minimum.  Every third round perturbs the best
    # stack found so far with a decaying step (derivative-free refinement).
    best_stack = None
    n_random = n_refine = 0
    for r in range(search_budget):
        refine = r % 3 == 2 and best_stack is not None
        if refine:
            out_dim, shape = best[1], best_stack.shape
        else:
            out_dim = 1 + (n_random % max_ext_dim)
            n_random += 1
            # ceil(ref_dim / out_dim) Kraus blocks: a stack tall enough for QR
            shape = (out_dim * max(1, -(-ref_dim // out_dim)), ref_dim)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if refine:
            g = best_stack + 0.3 * 0.85**n_refine * g
            n_refine += 1
        w = np.linalg.qr(g)[0]  # (rows, ref_dim): an isometry
        z = _extension_factor(psi, w, out_dim)
        val = 0.5 * _factor_cqmi(z, ext_layout(out_dim))
        if val < best_val - EIG_CUTOFF:
            best_val, best, best_stack = val, (z @ z.conj().T, out_dim), w

    m, dim_e = best
    return SquashedBound(
        value=max(0.0, float(best_val)),
        extension_dim=dim_e,
        extension_state=QState(ext_layout(dim_e), m),
    )


# ---------------------------------------------------------------------------
# rate bound report


@dataclass(frozen=True)
class RateBoundReport:
    esq_rho_upper: float
    esq_sigma_lower_proxy: float
    ratio_upper: float
    certified: bool
    notes: tuple[str, ...]


def rate_bound_report(
    rho: QState,
    sigma: QState,
    search_budget: int = 200,
    seed: int = 0,
) -> RateBoundReport:
    """Upper bound on the marginal-conversion rate rho -> sigma.

    The numerator is a searched upper bound on the source's squashed
    entanglement.  For a pure target the denominator is its entanglement
    entropy, which is the exact squashed entanglement, and the ratio is a
    certified bound.  For a mixed target no finite search can lower-bound
    an infimum over extensions, so the coherent information is used as a
    heuristic proxy and the result is flagged as uncertified.
    """
    up = squashed_upper(rho, search_budget=search_budget, seed=seed).value
    notes: list[str] = []
    if is_pure(sigma):
        denom = entanglement_entropy(sigma)
        certified = True
        notes.append("pure target: denominator is the exact squashed entanglement")
    else:
        denom = hashing_bounds(sigma).lower
        certified = False
        notes.append(
            "mixed target: denominator is the coherent information, an "
            "uncertified heuristic proxy"
        )
    if denom <= 1e-12:
        raise DivergingRateError(
            f"target lower proxy {denom!r} is not positive; the rate bound diverges"
        )
    return RateBoundReport(
        esq_rho_upper=float(up),
        esq_sigma_lower_proxy=float(denom),
        ratio_upper=float(up / denom),
        certified=certified,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# decoupling near pure outputs


class DecouplingCheck(NamedTuple):
    lhs: float
    rhs: float
    passed: bool
    epsilon: float


def _decoupling_bound(eps: float) -> float:
    """eps + 6 sqrt(eps/2): the farthest mu_SC is from phi (x) mu_C when mu_S is eps from phi."""
    return eps + 6.0 * math.sqrt(eps / 2.0)


def decoupling_check(mu_sc: QState, phi: QState) -> DecouplingCheck:
    """Check ||mu_SC - phi (x) mu_C||_1 < eps + 6 sqrt(eps/2), eps = ||mu_S - phi||_1.

    The S block is the leading factor prefix of mu_sc matching phi's layout.
    This inequality holds for every state, so a failure indicates a bug.
    """
    if not is_pure(phi):
        raise NotPureError("decoupling reference state must be pure")
    ns = len(phi.layout)
    if len(mu_sc.layout) <= ns or mu_sc.layout.subset(range(ns)) != phi.layout:
        raise LayoutMismatchError(
            f"joint layout {mu_sc.layout!r} does not start with {phi.layout!r}"
        )
    s_idx = list(range(ns))
    c_idx = list(range(ns, len(mu_sc.layout)))
    mu_s = partial_trace(mu_sc, s_idx)
    mu_c = partial_trace(mu_sc, c_idx)
    eps = trace_norm_dist(mu_s, phi)
    lhs = trace_norm_dist(mu_sc, tensor(phi, mu_c))
    rhs = _decoupling_bound(eps)
    passed = bool(lhs < rhs or lhs <= 1e-12)
    return DecouplingCheck(lhs=lhs, rhs=rhs, passed=passed, epsilon=eps)


# ---------------------------------------------------------------------------
# superadditive composition


def _side_split(mu12: QState, lambda1: LoccProtocol, lambda2: LoccProtocol, n: int) -> int:
    f12 = len(mu12.layout)
    f1, r1 = divmod(len(lambda1.input_layout), n)
    f2, r2 = divmod(len(lambda2.input_layout), n)
    if r1 or r2 or f1 + f2 != f12 or f1 == 0 or f2 == 0:
        raise LayoutMismatchError(
            f"protocol inputs ({len(lambda1.input_layout)}, {len(lambda2.input_layout)}) "
            f"do not split {f12} joint factors into n={n} copies"
        )
    if lambda1.input_layout != mu12.layout.subset(range(f1)).power(n):
        raise LayoutMismatchError("first protocol does not match the leading factor block")
    if lambda2.input_layout != mu12.layout.subset(range(f1, f12)).power(n):
        raise LayoutMismatchError("second protocol does not match the trailing factor block")
    return f1


def _copies_of(layout: SystemLayout, unit: SystemLayout) -> int:
    m, r = divmod(len(layout), len(unit))
    if r or layout != unit.power(m):
        raise LayoutMismatchError(f"{layout!r} is not a copy power of {unit!r}")
    return m


def compose_superadditive(
    lambda1: LoccProtocol,
    lambda2: LoccProtocol,
    mu12: QState,
    phi: QState,
    eps: float,
    n: int = 1,
) -> tuple[float, float]:
    """Run two protocols side by side on a shared source and check the joint error.

    Each side must individually convert its marginal's n copies to copies of
    the pure state phi within eps^2/100 in trace norm (verified here, and a
    violation is an error).  The combined protocol is then required to land
    within eps of the joint pure target, which is the content of the
    superadditivity argument this function instantiates.
    """
    if not 0.0 < eps <= 2.0:
        raise ValueError(f"eps must be in (0, 2], got {eps}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not is_pure(phi):
        raise NotPureError("composition target must be pure")
    f1 = _side_split(mu12, lambda1, lambda2, n)
    f12 = len(mu12.layout)

    mu1 = partial_trace(mu12, range(f1))
    mu2 = partial_trace(mu12, range(f1, f12))
    budget = eps * eps / 100.0

    m1 = _copies_of(lambda1.output_layout(), phi.layout)
    m2 = _copies_of(lambda2.output_layout(), phi.layout)

    errors = []
    for side, (lam, mu, m) in enumerate(((lambda1, mu1, m1), (lambda2, mu2, m2)), start=1):
        e = trace_norm_dist(run_protocol(lam, n_copies(mu, n)), n_copies(phi, m))
        if not e < budget:
            raise BudgetError(
                f"side {side} error {e:.6g} is not below the budget "
                f"eps^2/100 = {budget:.6g}"
            )
        errors.append(e)

    big = n_copies(mu12, n)
    if n > 1:
        order = [c * f12 + j for c in range(n) for j in range(f1)]
        order += [c * f12 + j for c in range(n) for j in range(f1, f12)]
        big = permute_factors(big, order)
    both = tensor_protocols(lambda1, lambda2)
    combined = trace_norm_dist(run_protocol(both, big), n_copies(phi, m1 + m2))
    if not combined < eps:
        raise BoundViolationError(
            f"combined error {combined:.6g} >= eps = {eps:.6g} despite per-side "
            f"errors {errors}"
        )
    return float(combined), float(budget)
