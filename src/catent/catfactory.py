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
possibly imperfect catalyst, returns the per-copy outputs and certifies
non-accumulation: because trace distance is monotone under channels,
every catalyst drift and per-copy error stays within the initial
catalyst error.  ``reuse_joint`` returns the joint of those copies,
cross-copy correlations included.

Every protocol run here is one raw step, ``_catalytic_step``; only the
states a function returns are validated.  No run repeats within a call:
the fixed point returns the first iterate the update leaves in place,
and an assembly keeps the run its exactness checks read, so
``verify_catalysis`` and the reuse of the same catalyst start from it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import LayoutMismatchError
from .locc import (  # noqa: F401  (apply is re-exported as catfactory.apply)
    LoccProtocol,
    _run_matrix,
    apply,
    controlled_on_register,
    embed_protocol,
    permute_protocol,
)
from .qstate import QState, SystemLayout, _herm_dist, _reduce_matrix

EXACTNESS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CatalystAssembly:
    """Catalyst state, its embedding protocol, and per-copy marginals.

    ``tau`` lives on n-1 copies of the source layout plus a dimension-n
    register (last factor, held by party 0).  Conditioned on register
    value r it holds r source copies followed by the n-copy output
    reduced to its first n-1-r copies; each phase has weight 1/n.
    ``gamma_marginals[k]`` is the n-copy output reduced to copy k, so
    ``n`` is their count.  ``_run`` is the embedding's raw run on rho
    tensor tau that ``build_catalyst`` checked, ``(mu, [mu_S, mu_C])``.
    """

    tau: QState
    embedding: LoccProtocol
    gamma_marginals: tuple[QState, ...]
    _run: tuple[np.ndarray, list[np.ndarray]] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.gamma_marginals)

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
    catalyst_drifts: tuple[float, ...] = ()
    epsilon_initial: float = 0.0
    delta_single_shot: float = 0.0
    fixed_point_residual: float = 0.0

    @property
    def rate_slack(self) -> float:
        return self.m / self.n


def _catalytic_step(
    lam: LoccProtocol, operands: Sequence[np.ndarray], parts: Sequence[Sequence[int]]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run ``lam`` on the product of raw ``operands``, e.g. rho and a catalyst.

    Returns the output and its marginals on the factor groups ``parts`` of
    ``lam.output_layout()``, unvalidated.  Linear in each operand, so an
    operand need not be a state.
    """
    mu = _run_matrix(lam, functools.reduce(np.kron, operands))
    dims = lam.output_layout().dims
    return mu, [_reduce_matrix(mu, dims, p) for p in parts]


def build_catalyst(lambda_n: LoccProtocol, rho: QState, n: int) -> CatalystAssembly:
    """Package an n-copy protocol as a one-copy catalytic channel.

    The embedding acts on one fresh copy plus the catalyst.  Register
    value r < n-1: cycle the fresh copy into the slot pool, hand back
    the pool's tail slot, advance the register.  Register value n-1:
    run the n-copy protocol on pool plus fresh copy, hand back its last
    output copy, reset the register.  Both identities this construction
    promises (catalyst marginal reproduced exactly, output marginal
    equal to the per-copy average) are checked before returning, on the
    embedding's run on rho tensor tau that the assembly keeps as ``_run``.
    """
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"need n >= 2 copies, got {n}")
    copies = rho.layout.power(n)
    # the fresh copy and the catalyst, refused here before the n-copy run
    joint = copies + SystemLayout([(0, n)])
    f = len(rho.layout)
    if lambda_n.input_layout != copies:
        raise LayoutMismatchError(
            f"protocol input {lambda_n.input_layout!r} is not {n} copies of {rho.layout!r}"
        )
    if lambda_n.keep is not None:
        raise LayoutMismatchError("the n-copy protocol must keep all factors in place")

    # the n-copy output's per-copy marginals, then those of its first i copies
    blocks = [range(k * f, (k + 1) * f) for k in range(n)] + [range(i * f) for i in range(1, n)]
    _, parts = _catalytic_step(lambda_n, [rho.matrix] * n, blocks)
    gamma_marginals = tuple(QState(rho.layout, g) for g in parts[:n])

    cat_layout = rho.layout.power(n - 1) + SystemLayout([(0, n)])
    # register value r: r fresh copies, then the n-copy output's first n-1-r
    one = np.eye(1, dtype=complex)
    firsts = [one] + parts[n:]
    tau_m = sum(
        np.kron(np.kron(functools.reduce(np.kron, [rho.matrix] * r, one), firsts[n - 1 - r]),
                np.diag(np.eye(n)[r] / n))
        for r in range(n)
    )
    tau = QState(cat_layout, tau_m)

    def cycle(src: Sequence[int]) -> LoccProtocol:
        # copy block t takes block src[t]; the register stays
        return permute_protocol(joint, [b * f + i for b in src for i in range(f)] + [n * f])

    # register value k-1: the handed-back block 0 takes the pool's tail, block
    # k takes the fresh copy, and the blocks after k move up by one
    branches = [cycle([n - 1, *range(1, k), 0, *range(k, n - 1)]) for k in range(1, n)]
    fmap = [i if j == n - 1 else (j + 1) * f + i for j in range(n) for i in range(f)]
    branches.append(embed_protocol(lambda_n, joint, fmap))
    embedding = controlled_on_register(n * f, branches, tuple((r + 1) % n for r in range(n)))

    run = _catalytic_step(embedding, (rho.matrix, tau.matrix), (range(f), range(f, len(joint))))
    assembly = CatalystAssembly(tau, embedding, gamma_marginals, run)
    mu_s, mu_c = run[1]
    drift = _herm_dist(mu_c, tau.matrix)
    eps = _herm_dist(mu_s, assembly.expected_output().matrix)
    if drift > EXACTNESS_TOL or eps > EXACTNESS_TOL:
        raise RuntimeError(
            f"catalyst construction failed its exactness checks "
            f"(drift {drift:.2e}, output {eps:.2e})"
        )
    return assembly


def verify_catalysis(
    lam: LoccProtocol,
    tau: QState,
    rho: QState,
    sigma: QState,
    *,
    _run: tuple[np.ndarray, Sequence[np.ndarray]] | None = None,
) -> CatalysisCertificate:
    """Certify one catalytic application of ``lam`` to rho tensor tau.

    ``_run`` is lam's raw run on rho tensor tau, ``(mu, [mu_S, mu_C])``, as
    an assembly from ``build_catalyst`` keeps it; the certificate is read
    from it instead of running lam again.  Every layout check still runs.
    """
    if lam.input_layout != rho.layout + tau.layout:
        raise LayoutMismatchError(f"protocol input {lam.input_layout!r} is not system + catalyst")
    f = len(rho.layout)
    dims = lam.output_layout().dims
    if len(dims) != f + len(tau.layout):
        raise LayoutMismatchError("protocol must keep the system+catalyst split")
    for part, want in ((dims[:f], sigma), (dims[f:], tau)):
        if part != want.layout.dims:
            raise LayoutMismatchError(f"dims {part} vs {want.layout.dims}")
    if _run is None:
        _run = _catalytic_step(lam, (rho.matrix, tau.matrix), (range(f), range(f, len(dims))))
    mu, (mu_s, mu_c) = _run
    return CatalysisCertificate(
        _herm_dist(mu_s, sigma.matrix),
        _herm_dist(mu_c, tau.matrix),
        _herm_dist(mu, np.kron(mu_s, mu_c)),
    )


# ---------------------------------------------------------------------------
# catalyst reuse


def _fixed_point(lam: LoccProtocol, rho: QState, start: np.ndarray) -> np.ndarray:
    """Fixed point of the induced catalyst update T, seeded at start.

    Each iterate v is tested as T(v) is made, and the first one with
    ||T(v) - v||_1 < 1e-13 is returned, so no run repeats.  A register
    that keeps cycling (unit-modulus spectrum) never passes that test:
    after a block of iterates the next round restarts from their mean,
    which a full cycle leaves invariant, so the restarts contract.  The
    block is the most whole cycles of the register (the catalyst's last
    factor) that fit in 128 iterates, or one cycle if it is longer, so
    each mean averages the cycle out.  After 64 rounds the last mean is
    returned.  The caller reports the residual, never enforces it.
    """
    cat = (range(len(rho.layout), len(lam.input_layout)),)
    r = lam.input_layout[-1].dim
    block = r * max(1, 128 // r)
    x = np.asarray(start, dtype=complex)
    for _ in range(64):
        acc = np.zeros_like(x)
        v = x
        for _ in range(block):
            nxt = _catalytic_step(lam, (rho.matrix, v), cat)[1][0]
            if _herm_dist(nxt, v) < 1e-13:
                return v
            acc += nxt
            v = nxt
        x = acc / block
        x = (x + x.conj().T) / 2
        x /= x.trace().real
    return x


def _reuse_checks(lam: LoccProtocol, tau_eps: QState, rho: QState, copies: int):
    """The checks of both reuse drivers; returns ``copies`` and their layout."""
    copies = operator.index(copies)
    if lam.input_layout != rho.layout + tau_eps.layout:
        raise LayoutMismatchError("protocol input must be one copy plus the catalyst")
    if lam.keep is not None:
        raise LayoutMismatchError("protocol must keep the system+catalyst split")
    # no product of the copies is built, but they stay within the limits it would have
    return copies, rho.layout.power(copies)


def iterate_reuse(
    lam: LoccProtocol,
    tau_eps: QState,
    rho: QState,
    copies: int,
    *,
    tau: QState | None = None,
    sigma: QState | None = None,
    _run: tuple[np.ndarray, Sequence[np.ndarray]] | None = None,
) -> tuple[tuple[QState, ...], ReductionCertificate]:
    """Drive a catalytic channel ``copies`` times, reusing the catalyst.

    Returns the per-copy output states and a certificate.  Earlier copies
    are tracked through their marginals only; that is exact for every
    certified quantity because the channel touches one fresh copy at a
    time.  ``reuse_joint`` keeps the cross-copy correlations instead.

    ``tau`` is the exact reusable catalyst; left unset it is computed
    as a fixed point of the induced catalyst update seeded at
    ``tau_eps``: the first iterate the update leaves in place to 1e-13
    in trace norm, or, for a register that keeps cycling, the mean of
    a block of iterates (see ``_fixed_point``).  The achieved
    ``fixed_point_residual`` is reported, not enforced.  ``sigma``
    defaults to the output marginal at the exact catalyst, which makes
    ``delta_single_shot`` zero.  ``_run`` is lam's raw run on rho tensor
    ``tau``, as an assembly keeps it; it is run here otherwise.

    No product of the copies is built, but ``copies`` past the limits of
    that product's layout is refused by ``SystemLayout.power`` before the
    first step.
    """
    copies, _ = _reuse_checks(lam, tau_eps, rho, copies)
    f = len(rho.layout)
    split = (range(f), range(f, len(lam.input_layout)))  # system, catalyst

    if tau is None:
        tau = QState(tau_eps.layout, _fixed_point(lam, rho, tau_eps.matrix))
    elif tau.layout != tau_eps.layout:
        raise LayoutMismatchError("tau and tau_eps layouts differ")
    if _run is None:
        _run = _catalytic_step(lam, (rho.matrix, tau.matrix), split)
    s_star, tau_next = _run[1]
    if sigma is not None and sigma.layout.dims != rho.layout.dims:
        raise LayoutMismatchError(f"dims {rho.layout.dims} vs {sigma.layout.dims}")
    sigma_m = s_star if sigma is None else sigma.matrix

    errors, drifts, outputs = [], [], []
    cat = tau_eps.matrix
    for _ in range(copies):
        _, (out_i, cat) = _catalytic_step(lam, (rho.matrix, cat), split)
        errors.append(_herm_dist(out_i, sigma_m))
        drifts.append(_herm_dist(cat, tau.matrix))
        outputs.append(QState(rho.layout, out_i))

    return tuple(outputs), ReductionCertificate(
        n=copies,
        m=copies,
        per_marginal_errors=tuple(errors),
        catalyst_drifts=tuple(drifts),
        epsilon_initial=_herm_dist(tau_eps.matrix, tau.matrix),
        delta_single_shot=_herm_dist(s_star, sigma_m),
        fixed_point_residual=_herm_dist(tau_next, tau.matrix),
    )


def reuse_joint(lam: LoccProtocol, tau_eps: QState, rho: QState, copies: int) -> QState:
    """The joint state of ``copies`` outputs of the channel reused on ``tau_eps``.

    Unlike ``iterate_reuse`` it keeps every cross-copy correlation, so the
    joint of the catalyst and all copies so far must stay within the cap.
    """
    copies, out_layout = _reuse_checks(lam, tau_eps, rho, copies)
    # the joint keeps the catalyst in front and appends each fresh copy, so
    # its copies stay in chronological order; refused here before the first step
    full = tau_eps.layout + out_layout
    f, c = len(rho.layout), len(tau_eps.layout)
    joint = tau_eps.matrix
    for k in range(c + f, len(full) + 1, f):
        step = embed_protocol(lam, full.subset(range(k)), [*range(k - f, k), *range(c)])
        joint, _ = _catalytic_step(step, (joint, rho.matrix), ())
    return QState(out_layout, _reduce_matrix(joint, full.dims, range(c, len(full))))


def verify_marginal_reduction(
    lam: LoccProtocol, rho: QState, sigma: QState, n: int, m: int
) -> ReductionCertificate:
    """Certify an n-to-m conversion copy by copy.

    The protocol consumes n copies of rho and must emit m copies on
    sigma's layout (its ``keep`` traces out the surplus factors).
    The certificate lists each kept copy's distance to sigma and the
    achieved rate m/n.
    """
    n, m = operator.index(n), operator.index(m)
    copies_in, copies_out = rho.layout.power(n), sigma.layout.power(m)  # refuse counts < 1
    if m > n:
        raise ValueError(f"cannot keep m={m} copies out of n={n}")
    if lam.input_layout != copies_in:
        raise LayoutMismatchError(
            f"protocol input {lam.input_layout!r} is not {n} copies of {rho.layout!r}"
        )
    if lam.output_layout() != copies_out:
        raise LayoutMismatchError(
            f"protocol output {lam.output_layout()!r} is not {m} copies of {sigma.layout!r}"
        )
    fs = len(sigma.layout)
    blocks = [range(j * fs, (j + 1) * fs) for j in range(m)]
    _, outs = _catalytic_step(lam, [rho.matrix] * n, blocks)
    return ReductionCertificate(n, m, tuple(_herm_dist(o, sigma.matrix) for o in outs))

