"""Block catalysts with a cycled register: construction and certification.

``build_catalyst`` packages any protocol mapping n copies of a state to
itself-shaped output into a one-copy catalytic channel.  The catalyst
holds n-1 system slots plus a classical register cycling through n
phases: while the register is below its top value the fresh input is
rotated into the slot pool and the pool's tail slot is handed back;
at the top value the n-copy protocol fires on the full pool.  The
catalyst marginal is reproduced exactly by this bookkeeping, and the
handed-back copy averages the n-copy protocol's per-copy marginals.

``iterate_reuse`` drives a catalytic channel sequentially with a
possibly imperfect catalyst and certifies non-accumulation: because
trace distance is monotone under channels, every catalyst drift and
per-copy error stays within the initial catalyst error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _io
from .errors import (
    BoundViolationError,
    DimensionCapError,
    LayoutMismatchError,
    NotPureError,
)
from .locc import (  # noqa: F401  (apply is re-exported as catfactory.apply)
    LoccProtocol,
    _run_matrix,
    apply,
    controlled_on_register,
    embed_protocol,
    local_channel,
    perm_unitary,
    protocol_from_dict,
    protocol_to_dict,
    run_protocol,
)
from .qstate import (
    DIM_CAP,
    QState,
    SystemLayout,
    is_pure,
    n_copies,
    permute_factors,
    state_from_dict,
    state_to_dict,
    tensor,
    tensor_all,
    trace_norm_dist,
)

EXACTNESS_TOL = 1e-9
ASSEMBLY_FORMAT = "catent-assembly-v1"


@dataclass(frozen=True, eq=False)
class CatalystAssembly:
    """Catalyst state, its embedding protocol, and per-copy marginals.

    ``tau`` lives on n-1 copies of the source layout plus a dimension-n
    register (last factor, held by party 0).  Conditioned on register
    value r it holds r source copies followed by the n-copy output
    reduced to its first n-1-r copies; each phase has weight 1/n.
    ``gamma_marginals[k]`` is the n-copy output reduced to copy k.
    """

    n: int
    tau: QState
    embedding: LoccProtocol
    gamma_marginals: tuple[QState, ...]

    def expected_output(self) -> QState:
        """Average of the per-copy marginals: the exact one-copy output."""
        acc = sum(g.matrix for g in self.gamma_marginals) / self.n
        return QState(self.gamma_marginals[0].layout, acc)


class CatalysisCertificate(NamedTuple):
    epsilon_achieved: float  # output marginal to target, trace norm
    catalyst_drift: float  # catalyst marginal to tau, trace norm
    correlation: float  # joint to product of its marginals, trace norm


class ReductionCertificate(NamedTuple):
    n: int
    m: int
    per_marginal_errors: tuple[float, ...]
    rate_slack: float  # m / n
    catalyst_drifts: tuple[float, ...] = ()
    epsilon_initial: float = 0.0
    delta_single_shot: float = 0.0
    fixed_point_residual: float = 0.0


def _block_cycle(
    joint: SystemLayout, unit: SystemLayout, n: int, src_block: Sequence[int]
) -> LoccProtocol:
    """Move copy-block src_block[t] into block t, one unitary per party."""
    f = len(unit)
    src = {t * f + i: src_block[t] * f + i for t in range(n) for i in range(f)}
    steps = []
    for party in unit.parties:
        pos = [q for q in range(n * f) if joint[q].party == party]
        at = {q: a for a, q in enumerate(pos)}
        u = perm_unitary([joint[q].dim for q in pos], [at[src[q]] for q in pos])
        steps.append(local_channel(joint, party, tuple(pos), (u,)))
    return LoccProtocol(joint, steps)


def build_catalyst(lambda_n: LoccProtocol, rho: QState, n: int) -> CatalystAssembly:
    """Package an n-copy protocol as a one-copy catalytic channel.

    The embedding acts on one fresh copy plus the catalyst.  Register
    value r < n-1: cycle the fresh copy into the slot pool, hand back
    the pool's tail slot, advance the register.  Register value n-1:
    run the n-copy protocol on pool plus fresh copy, hand back its last
    output copy, reset the register.  Both identities this construction
    promises (catalyst marginal reproduced exactly, output marginal
    equal to the per-copy average) are checked before returning.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2 copies, got {n}")
    # any total_dim >= 2 to the power DIM_CAP.bit_length() exceeds the cap,
    # so clamping the exponent there keeps the test exact without a huge integer
    joint_dim = rho.total_dim ** min(n, DIM_CAP.bit_length()) * n
    if joint_dim > DIM_CAP:
        raise DimensionCapError(
            f"{n} copies of dimension {rho.total_dim} and an {n}-phase register "
            f"exceed cap {DIM_CAP}"
        )
    f = len(rho.layout)
    if lambda_n.input_layout != rho.layout.power(n):
        raise LayoutMismatchError(
            f"protocol input {lambda_n.input_layout!r} is not {n} copies of {rho.layout!r}"
        )
    if lambda_n.discard or lambda_n.relabel is not None or lambda_n.classical_factors:
        raise LayoutMismatchError("the n-copy protocol must keep all factors in place")

    gamma = run_protocol(lambda_n, n_copies(rho, n))
    gamma_marginals = tuple(gamma.marginal(range(k * f, (k + 1) * f)) for k in range(n))

    register = SystemLayout([(0, n)])
    cat_layout = rho.layout.power(n - 1) + register
    rho_pows = [np.eye(1, dtype=complex)]
    for _ in range(n - 1):
        rho_pows.append(np.kron(rho_pows[-1], rho.matrix))
    gamma_firsts = [np.eye(1, dtype=complex)] + [
        gamma.marginal(range(i * f)).matrix for i in range(1, n)
    ]
    d_cat = cat_layout.total_dim
    tau_m = np.zeros((d_cat, d_cat), dtype=complex)
    for r in range(n):
        reg = np.zeros((n, n), dtype=complex)
        reg[r, r] = 1.0 / n
        tau_m += np.kron(np.kron(rho_pows[r], gamma_firsts[n - 1 - r]), reg)
    tau = QState(cat_layout, tau_m)

    joint = rho.layout + cat_layout
    # register value k-1: the handed-back block 0 takes the pool's tail, block
    # k takes the fresh copy, and the blocks after k move up by one
    branches = [
        _block_cycle(joint, rho.layout, n, [n - 1, *range(1, k), 0, *range(k, n - 1)])
        for k in range(1, n)
    ]
    fmap = [i if j == n - 1 else (j + 1) * f + i for j in range(n) for i in range(f)]
    branches.append(embed_protocol(lambda_n, joint, fmap))
    embedding = controlled_on_register(
        n * f, branches, tuple((r + 1) % n for r in range(n))
    )

    assembly = CatalystAssembly(n, tau, embedding, gamma_marginals)
    mu = run_protocol(embedding, tensor(rho, tau))
    drift = trace_norm_dist(mu.marginal(range(f, n * f + 1)), tau)
    out_err = trace_norm_dist(mu.marginal(range(f)), assembly.expected_output())
    if drift > EXACTNESS_TOL or out_err > EXACTNESS_TOL:
        raise RuntimeError(
            f"catalyst construction failed its exactness checks "
            f"(drift {drift:.2e}, output {out_err:.2e})"
        )
    return assembly


def verify_catalysis(
    lam: LoccProtocol, tau: QState, rho: QState, sigma: QState
) -> CatalysisCertificate:
    """Certify one catalytic application of ``lam`` to rho tensor tau."""
    if lam.input_layout != rho.layout + tau.layout:
        raise LayoutMismatchError(
            f"protocol input {lam.input_layout!r} is not system + catalyst"
        )
    mu = run_protocol(lam, tensor(rho, tau))
    f = len(rho.layout)
    if len(mu.layout) != f + len(tau.layout):
        raise LayoutMismatchError("protocol must keep the system+catalyst split")
    mu_s = mu.marginal(range(f))
    mu_c = mu.marginal(range(f, len(mu.layout)))
    return CatalysisCertificate(
        trace_norm_dist(mu_s, sigma),
        trace_norm_dist(mu_c, tau),
        trace_norm_dist(mu, tensor(mu_s, mu_c)),
    )


# ---------------------------------------------------------------------------
# catalyst reuse


def _herm_dist(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    d = (d + d.conj().T) / 2
    return float(np.abs(np.linalg.eigvalsh(d)).sum())


def _induced_step(
    lam: LoccProtocol, rho_m: np.ndarray, x: np.ndarray, ds: int, dc: int
) -> np.ndarray:
    """One catalyst update: feed rho beside x, run lam, trace out the system.

    Linear in x, so x need not be a state.
    """
    y = _run_matrix(lam, np.kron(rho_m, x)).reshape(ds, dc, ds, dc)
    return np.einsum("tetf->ef", y)


def _fixed_point(
    lam: LoccProtocol, rho: QState, dc: int, start: np.ndarray
) -> tuple[np.ndarray, float]:
    """Ergodic fixed point of the induced catalyst update, seeded at start.

    Plain iteration can stall when a register cycles (unit-modulus
    spectrum), so each round averages a block of iterates and restarts
    from the mean; the mean of a full cycle is invariant, which makes
    the restart contract.  The residual is returned, never enforced.
    """
    ds = rho.total_dim
    rho_m = rho.matrix

    def advance(x: np.ndarray) -> np.ndarray:
        return _induced_step(lam, rho_m, x, ds, dc)

    x = np.asarray(start, dtype=complex)
    res = _herm_dist(advance(x), x)
    for _ in range(64):
        if res < 1e-13:
            break
        acc = np.zeros_like(x)
        v = x
        for _ in range(128):
            v = advance(v)
            acc += v
        x = acc / 128
        x = (x + x.conj().T) / 2
        x /= x.trace().real
        res = _herm_dist(advance(x), x)
    return x, res


def iterate_reuse(
    lam: LoccProtocol,
    tau_eps: QState,
    rho: QState,
    copies: int,
    *,
    tau: QState | None = None,
    sigma: QState | None = None,
    track_joint: bool = False,
) -> tuple[QState, ReductionCertificate]:
    """Drive a catalytic channel ``copies`` times, reusing the catalyst.

    Returns the converted copies and a certificate.  Earlier copies are
    tracked through their marginals only; that is exact for every
    certified quantity because the channel touches one fresh copy at a
    time, and the returned state is then the product of those
    marginals.  ``track_joint`` keeps the full joint instead (subject
    to the dimension cap) so cross-copy correlations survive.

    ``tau`` is the exact reusable catalyst; left unset it is computed
    as the ergodic fixed point of the induced catalyst update seeded at
    ``tau_eps``, with the achieved ``fixed_point_residual`` reported,
    not enforced.  ``sigma`` defaults to the output marginal at the
    exact catalyst, which makes ``delta_single_shot`` zero.
    """
    outputs, joint, cert = _reuse(lam, tau_eps, rho, copies, tau, sigma, track_joint)
    return (tensor_all(outputs) if joint is None else joint), cert


def _reuse(
    lam: LoccProtocol,
    tau_eps: QState,
    rho: QState,
    copies: int,
    tau: QState | None,
    sigma: QState | None,
    track_joint: bool,
) -> tuple[list[QState], QState | None, ReductionCertificate]:
    """``iterate_reuse`` short of the product of its per-copy outputs.

    Returns those outputs, the joint state ``iterate_reuse`` returns under
    ``track_joint`` (else None) and the certificate; every check and cap
    of ``iterate_reuse`` is here.
    """
    copies = int(copies)
    if copies < 1:
        raise ValueError(f"need at least one copy, got {copies}")
    if lam.input_layout != rho.layout + tau_eps.layout:
        raise LayoutMismatchError("protocol input must be one copy plus the catalyst")
    if lam.discard or lam.relabel is not None:
        raise LayoutMismatchError("protocol must keep the system+catalyst split")
    f = len(rho.layout)
    ds, dc = rho.total_dim, tau_eps.total_dim
    if ds * dc > DIM_CAP:
        raise DimensionCapError(f"joint dimension {ds * dc} exceeds cap {DIM_CAP}")
    # the returned state spans every copy.  Any ds >= 2 to the power
    # DIM_CAP.bit_length() exceeds the cap, so clamping the exponent there
    # keeps the test exact without building a huge integer.
    out_dim = ds ** min(copies, DIM_CAP.bit_length())
    if out_dim > DIM_CAP:
        raise DimensionCapError(
            f"{copies} output copies of dimension {ds} exceed cap {DIM_CAP}"
        )
    if track_joint and out_dim * dc > DIM_CAP:
        raise DimensionCapError(
            f"joint tracking of {copies} copies needs dimension "
            f"{out_dim * dc} > cap {DIM_CAP}"
        )
    cat_idx = tuple(range(f, f + len(tau_eps.layout)))

    if tau is None:
        tau_m, residual = _fixed_point(lam, rho, dc, tau_eps.matrix)
        tau = QState(tau_eps.layout, tau_m)
    else:
        if tau.layout != tau_eps.layout:
            raise LayoutMismatchError("tau and tau_eps layouts differ")
        residual = _herm_dist(
            _induced_step(lam, rho.matrix, tau.matrix, ds, dc), tau.matrix
        )
    s_star = run_protocol(lam, tensor(rho, tau)).marginal(range(f))
    if sigma is None:
        sigma = s_star
    delta = trace_norm_dist(s_star, sigma)
    eps0 = trace_norm_dist(tau_eps, tau)

    errors: list[float] = []
    drifts: list[float] = []
    outputs: list[QState] = []
    cat = tau_eps
    joint = tau_eps if track_joint else None
    for _ in range(copies):
        mu = run_protocol(lam, tensor(rho, cat))
        out_i = mu.marginal(range(f))
        cat = mu.marginal(cat_idx)
        errors.append(trace_norm_dist(out_i, sigma))
        drifts.append(trace_norm_dist(cat, tau))
        outputs.append(out_i)
        if track_joint:
            joint = tensor(rho, joint)
            sel = tuple(range(f)) + tuple(
                range(len(joint.layout) - len(cat_idx), len(joint.layout))
            )
            joint = run_protocol(embed_protocol(lam, joint.layout, sel), joint)

    if track_joint:
        body = joint.marginal(range(copies * f))
        # fresh copies were prepended; restore chronological block order
        order = [(copies - 1 - b) * f + t for b in range(copies) for t in range(f)]
        joint = permute_factors(body, order)

    cert = ReductionCertificate(
        n=copies,
        m=copies,
        per_marginal_errors=tuple(errors),
        rate_slack=1.0,
        catalyst_drifts=tuple(drifts),
        epsilon_initial=eps0,
        delta_single_shot=delta,
        fixed_point_residual=float(residual),
    )
    return outputs, joint, cert


def verify_marginal_reduction(
    lam: LoccProtocol, rho: QState, sigma: QState, n: int, m: int
) -> ReductionCertificate:
    """Certify an n-to-m conversion copy by copy.

    The protocol consumes n copies of rho and must emit m copies on
    sigma's layout (surplus factors discarded inside the protocol).
    The certificate lists each kept copy's distance to sigma and the
    achieved rate m/n.
    """
    n = int(n)
    m = int(m)
    if m < 1:
        raise ValueError(f"need at least one kept copy, got m={m}")
    if m > n:
        raise ValueError(f"cannot keep m={m} copies out of n={n}")
    if lam.input_layout != rho.layout.power(n):
        raise LayoutMismatchError(
            f"protocol input {lam.input_layout!r} is not {n} copies of {rho.layout!r}"
        )
    if lam.output_layout() != sigma.layout.power(m):
        raise LayoutMismatchError(
            f"protocol output {lam.output_layout()!r} is not {m} copies of {sigma.layout!r}"
        )
    out = run_protocol(lam, n_copies(rho, n))
    fs = len(sigma.layout)
    errs = tuple(
        trace_norm_dist(out.marginal(range(j * fs, (j + 1) * fs)), sigma)
        for j in range(m)
    )
    return ReductionCertificate(n, m, errs, m / n)


def decoupled_catalysis_check(
    lam: LoccProtocol, tau: QState, rho: QState, phi_pure: QState
) -> CatalysisCertificate:
    """Catalysis certificate plus the pure-target decoupling assertion.

    For a pure target the joint output must be nearly product: with
    e = epsilon_achieved, correlation may not exceed e + 6*sqrt(e/2).
    """
    if not is_pure(phi_pure):
        raise NotPureError("decoupling check needs a pure target")
    cert = verify_catalysis(lam, tau, rho, phi_pure)
    e = cert.epsilon_achieved
    bound = e + 6.0 * math.sqrt(e / 2.0)
    if cert.correlation > bound + 1e-12:
        raise BoundViolationError(
            f"correlation {cert.correlation:.6g} exceeds decoupling bound {bound:.6g}"
        )
    return cert


# ---------------------------------------------------------------------------
# serialization


def assembly_to_dict(assembly: CatalystAssembly) -> dict:
    return {
        "format": ASSEMBLY_FORMAT,
        "n": assembly.n,
        "tau": state_to_dict(assembly.tau),
        "embedding": protocol_to_dict(assembly.embedding),
        "gamma_marginals": [state_to_dict(g) for g in assembly.gamma_marginals],
    }


def assembly_from_dict(doc: dict) -> CatalystAssembly:
    _io.check_format(doc, ASSEMBLY_FORMAT, "assembly")
    with _io.parsing("assembly"):
        n = int(doc["n"])
        tau, embedding = doc["tau"], doc["embedding"]
        marginals = list(doc["gamma_marginals"])
    return CatalystAssembly(
        n,
        state_from_dict(tau),
        protocol_from_dict(embedding),
        tuple(state_from_dict(g) for g in marginals),
    )
