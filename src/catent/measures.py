"""Entanglement measures and quantitative bound verifiers.

Everything here is finite-dimensional and certificate-oriented: functions
either compute a bound that is valid by construction (any extension gives
an upper bound on squashed entanglement) or measure a quantity and check
it against an inequality that must hold unconditionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BoundViolationError,
    BudgetError,
    DivergingRateError,
    LayoutMismatchError,
    NotPureError,
)
from .locc import Channel, LoccProtocol, apply, run_protocol, tensor_protocols
from .qstate import (
    EIG_CUTOFF,
    QState,
    SystemLayout,
    basis_state,
    entanglement_entropy,
    is_pure,
    n_copies,
    partial_trace,
    permute_factors,
    purify,
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


def _party_factors(layout: SystemLayout, parties) -> list[int]:
    ps = set(parties)
    return [i for i, f in enumerate(layout) if f.party in ps]


def _split_bipartite(layout: SystemLayout, parties_a: Sequence[int]) -> tuple[list[int], list[int]]:
    pa = set(int(p) for p in parties_a)
    all_p = set(layout.parties)
    if not pa or not pa < all_p:
        raise LayoutMismatchError(
            f"parties_a={sorted(pa)} must be a nonempty proper subset of {layout.parties}"
        )
    a = _party_factors(layout, pa)
    b = [i for i in range(len(layout)) if i not in set(a)]
    return a, b


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
    a, _ = _split_bipartite(rho.layout, parties_a)
    s_a = von_neumann_entropy(partial_trace(rho, a))
    s_ab = von_neumann_entropy(rho)
    return EdBounds(lower=s_a - s_ab, upper=s_a)


def mutual_information(rho: QState, parties_a: Sequence[int] = (0,)) -> float:
    a, b = _split_bipartite(rho.layout, parties_a)
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
    a = _party_factors(layout, (0,))
    b = _party_factors(layout, (1,))
    e = _party_factors(layout, (2,))
    s_ae = von_neumann_entropy(partial_trace(rho_abe, a + e))
    s_be = von_neumann_entropy(partial_trace(rho_abe, b + e))
    s_abe = von_neumann_entropy(rho_abe)
    s_e = von_neumann_entropy(partial_trace(rho_abe, e))
    return s_ae + s_be - s_abe - s_e


# ---------------------------------------------------------------------------
# squashed entanglement upper bounds


class SquashedBound(NamedTuple):
    value: float
    extension_dim: int
    extension_state: QState


def _flag_extension(parts: Sequence[tuple[float, QState]], layout: SystemLayout) -> QState:
    dim_e = len(parts)
    d = layout.total_dim
    acc = np.zeros((d * dim_e,) * 2, dtype=complex)
    for i, (w, st) in enumerate(parts):
        flag = np.zeros((dim_e, dim_e), dtype=complex)
        flag[i, i] = 1.0
        acc += w * np.kron(st.matrix, flag)
    ext_layout = layout + SystemLayout([(2, dim_e)])
    return QState(ext_layout, acc)


def _eval_extension(ext: QState) -> float:
    return 0.5 * cqmi(ext)


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
    purification) are always evaluated; ``search_budget`` counts the random
    channel candidates and refinement steps on the purifying factor.
    """
    layout = rho.layout
    if set(layout.parties) != {0, 1}:
        raise LayoutMismatchError(f"need a bipartite (0, 1) state, got {layout.parties}")
    if max_ext_dim < 1:
        raise ValueError(f"max_ext_dim must be >= 1, got {max_ext_dim}")
    if search_budget < 0:
        raise BudgetError(f"search_budget must be >= 0, got {search_budget}")

    candidates: list[QState] = []

    trivial = tensor(rho, basis_state(SystemLayout([(2, 1)]), (0,)))
    candidates.append(trivial)

    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > EIG_CUTOFF
    eig_parts = [
        (float(v), QState(layout, np.outer(vecs[:, i], vecs[:, i].conj())))
        for i, v in enumerate(vals)
        if keep[i]
    ]
    if len(eig_parts) > 1:
        candidates.append(_flag_extension(eig_parts, layout))

    if decomposition is not None:
        recon = np.zeros_like(rho.matrix)
        for w, st in decomposition:
            if st.layout.dims != layout.dims:
                raise LayoutMismatchError("decomposition member has wrong dims")
            recon = recon + w * st.matrix
        if np.max(np.abs(recon - rho.matrix)) > 1e-8:
            raise ValueError("decomposition does not reconstruct the input state")
        candidates.append(_flag_extension(list(decomposition), layout))

    psi = purify(rho)
    ref_dim = psi.layout[-1].dim
    if ref_dim <= max_ext_dim:
        candidates.append(psi)

    best_val = math.inf
    best = None
    for ext in candidates:
        v = _eval_extension(ext)
        if v < best_val:
            best_val, best = v, ext

    # random processing of the purifying factor: any channel on the
    # reference yields another valid extension
    rng = np.random.default_rng(seed)
    id_ab = Channel.identity(layout)
    ref_layout = SystemLayout([(2, ref_dim)])

    def channel_from_stack(w: np.ndarray, out_dim: int, n_kraus: int) -> Channel:
        ks = tuple(w[i * out_dim : (i + 1) * out_dim, :] for i in range(n_kraus))
        return Channel(ks, ref_layout, SystemLayout([(2, out_dim)]))

    def isometrize(g: np.ndarray) -> np.ndarray:
        q, _ = np.linalg.qr(g)
        return q[:, :ref_dim]

    # Rounds are a single deterministic sequence: round r makes the same
    # proposal for every budget >= r, so enlarging the budget can only
    # lower the returned minimum.  Every third round perturbs the best
    # stack found so far with a decaying step (derivative-free refinement).
    best_stack = None
    best_shape = None
    n_random = 0
    n_refine = 0
    for r in range(search_budget):
        if r % 3 == 2 and best_stack is not None:
            out_dim, n_kraus = best_shape
            step = 0.3 * 0.85**n_refine
            n_refine += 1
            g = best_stack + step * (
                rng.standard_normal(best_stack.shape)
                + 1j * rng.standard_normal(best_stack.shape)
            )
        else:
            out_dim = 1 + (n_random % max_ext_dim)
            n_kraus = max(1, -(-ref_dim // out_dim))  # ceil: stack tall enough for QR
            n_random += 1
            g = rng.standard_normal((out_dim * n_kraus, ref_dim)) + 1j * rng.standard_normal(
                (out_dim * n_kraus, ref_dim)
            )
        w = isometrize(g)
        ext = apply(id_ab.tensor(channel_from_stack(w, out_dim, n_kraus)), psi)
        v = _eval_extension(ext)
        if v < best_val - 1e-15:
            best_val, best = v, ext
            best_stack, best_shape = w, (out_dim, n_kraus)

    assert best is not None
    ext_dim = best.layout[-1].dim if best.layout[-1].party == 2 else 1
    return SquashedBound(
        value=max(0.0, float(best_val)),
        extension_dim=int(ext_dim),
        extension_state=best,
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
    rhs = eps + 6.0 * math.sqrt(eps / 2.0)
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
