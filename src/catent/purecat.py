"""Pure-state LOCC convertibility and explicit protocol synthesis.

Convertibility between bipartite pure states is decided by partial-sum
domination of their Schmidt probability vectors; a catalyst enters by
tensoring both sides with its spectrum.  When a conversion is possible,
an explicit one-round protocol (one measurement by the first party, a
permutation correction by the second) is synthesized from a chain of
two-outcome mixing steps.  The chain's branches are rows of an index
array; the outcomes' Kraus operators and corrections are filled into two
read-only stacks; the instrument and the step keep them, checked and run
as stacks, and its channels and correction steps are views of them.  Every
entry is real, so the stacks are float64: half the bytes of complex ones.
The chain refuses, before it doubles its branches, to list more entries
than one ``DIM_CAP`` x ``DIM_CAP`` matrix holds.  The build holds the
cyclic garbage collector off: its objects form no reference cycles.  A
pure source's conversion rate is read from its spectrum; no state is
built.
"""

from __future__ import annotations

import gc
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionCapError, DivergingRateError, NotConvertibleError
from .locc import Instrument, LocalInstrument, LoccProtocol
from .measures import hashing_bounds
from .qstate import DIM_CAP, QState, SchmidtVector, SystemLayout, pure_state

__all__ = [
    "MajorizationReport",
    "majorizes",
    "catalytic_convertible",
    "canonical_pure",
    "synthesize_pure_protocol",
    "PureRate",
    "pure_target_rate",
]

SUM_TOL = 1e-12


class MajorizationReport(NamedTuple):
    convertible: bool
    violated_index: int | None
    partial_sums_target: tuple[float, ...]
    partial_sums_source: tuple[float, ...]


def _padded_pair(a: SchmidtVector, b: SchmidtVector) -> tuple[np.ndarray, np.ndarray]:
    d = max(len(a), len(b))
    return (
        np.asarray(a.padded(d).probs, dtype=float),
        np.asarray(b.padded(d).probs, dtype=float),
    )


def majorizes(target: SchmidtVector, source: SchmidtVector) -> MajorizationReport:
    """Partial-sum domination decision: convertible iff every target prefix
    sum reaches the corresponding source prefix sum.

    violated_index is the first (1-based) prefix length where domination
    fails, or None.
    """
    t, s = _padded_pair(target, source)
    ct = np.cumsum(t)
    cs = np.cumsum(s)
    bad = np.where(ct < cs - SUM_TOL)[0]
    idx = int(bad[0]) + 1 if bad.size else None
    return MajorizationReport(
        convertible=bad.size == 0,
        violated_index=idx,
        partial_sums_target=tuple(float(x) for x in ct),
        partial_sums_source=tuple(float(x) for x in cs),
    )


def catalytic_convertible(
    source: SchmidtVector, target: SchmidtVector, catalyst: SchmidtVector
) -> MajorizationReport:
    """Domination check after tensoring both spectra with the catalyst."""
    return majorizes(target.tensor(catalyst), source.tensor(catalyst))


def canonical_pure(probs: SchmidtVector) -> QState:
    """The diagonal-amplitude pure state with the given Schmidt spectrum.

    Its layout is built before the amplitudes, so a spectrum past
    ``DIM_CAP`` (a d x d state) raises ``DimensionCapError`` there.
    """
    d = len(probs)
    layout = SystemLayout([(0, d), (1, d)])
    amps = np.zeros(d * d, dtype=complex)
    for i, p in enumerate(probs):
        amps[i * d + i] = math.sqrt(p)
    return pure_state(layout, amps)


def _mixing_chain(target: np.ndarray, source: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write source = sum_m w_m P_m target with w_m >= 0 summing to 1.

    Repeatedly applies a two-coordinate mixing step moving the current
    vector (starting at target) toward source; each step fixes at least
    one coordinate, so the loop runs at most len - 1 times.  Returns the
    permutations as rows sigma of an (M, d) index array, with
    (P x)[i] = x[sigma[i]], and their weights as an (M,) array.

    Each step splits every term into a keep and a swap branch, listed
    interleaved (keep, swap, keep, swap, ...).  No two branches reach the
    same permutation, so nothing needs merging: each step fixes one of its
    two coordinates for good, so the chosen transpositions form a forest,
    and products over different subsets of a forest's edges have
    different orbits (the subsets' connected components).
    """
    d = len(target)
    w = target.astype(float).copy()
    sigmas = np.arange(d, dtype=np.intp)[None, :]
    weights = np.ones(1)
    for _ in range(d):
        over = np.where(w > source + SUM_TOL)[0]
        if over.size == 0:
            break
        # the outcomes' d x d operators may hold no more entries than one
        # cap-sized matrix: refuse before the doubling passes that
        if 2 * len(sigmas) * d * d > DIM_CAP**2:
            raise DimensionCapError(
                f"synthesis of {2 * len(sigmas)} outcomes of dimension {d} exceeds "
                f"the {DIM_CAP}^2 entries of one cap-sized matrix"
            )
        j = int(over[-1])
        under = np.where((np.arange(d) > j) & (w < source - SUM_TOL))[0]
        if under.size == 0:  # pragma: no cover - only if domination was violated
            raise NotConvertibleError("mixing chain failed: spectra not dominated")
        k = int(under[0])
        delta = min(w[j] - source[j], source[k] - w[k])
        frac = delta / (w[j] - w[k])
        swap = np.arange(d)
        swap[j], swap[k] = k, j
        # the swap branch composes the transposition after sigma
        branches = np.empty((2 * len(sigmas), d), dtype=np.intp)
        branches[0::2], branches[1::2] = sigmas, sigmas[:, swap]
        split = np.empty(2 * len(weights))
        split[0::2], split[1::2] = weights * (1.0 - frac), weights * frac
        sigmas, weights = branches, split
        w[j] -= delta
        w[k] += delta
    if np.max(np.abs(w - source)) > 1e-9:  # pragma: no cover - internal consistency
        raise NotConvertibleError("mixing chain did not converge")
    live = weights > 1e-15
    return sigmas[live], weights[live]


def synthesize_pure_protocol(
    source: SchmidtVector,
    target: SchmidtVector,
    layout: SystemLayout | None = None,
) -> LoccProtocol:
    """Explicit one-round protocol converting the canonical source state to
    the canonical target state.

    The first party measures with operators built from a permutation-mixture
    decomposition of the source spectrum; each outcome is corrected by a
    permutation unitary on the second party's side.  By default the protocol
    lives on the two-factor canonical layout; a custom bipartite layout with
    equal total dimensions per party may be supplied (the canonical basis is
    then each party's joint computational basis).

    Every branch of the mixing chain becomes one outcome, so a length-d
    spectrum can give up to 2^(d-1) outcomes (32768 at d=16).  The
    decomposition is part of the reference behaviour: on noisy inputs the
    channel, not only the conversion, depends on it, and the frozen
    benchmark reports record it.  The whole build, 65536 views at d=16,
    runs with Python's cyclic garbage collector held off, and the caller's
    setting is restored on return or on an error.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        report = majorizes(target, source)
        if not report.convertible:
            raise NotConvertibleError(
                f"target does not dominate source (first violation at prefix "
                f"{report.violated_index})"
            )
        t, s = _padded_pair(target, source)
        d = len(t)

        if layout is None:
            layout = SystemLayout([(0, d), (1, d)])
        if layout.parties != (0, 1):
            raise ValueError("layout must contain exactly parties 0 and 1")
        a_factors = layout.party_factors(0)
        b_factors = layout.party_factors(1)
        da = layout.subset(a_factors).total_dim
        db = layout.subset(b_factors).total_dim
        if da != db or da < d:
            raise ValueError(
                f"party dimensions ({da}, {db}) cannot hold a length-{d} spectrum"
            )
        if da > d:
            t = np.pad(t, (0, da - d))
            s = np.pad(s, (0, da - d))
            d = da

        sigmas, wts = _mixing_chain(t, s)
        ts = t[sigmas]

        # completeness identity: the mixture of permuted targets is the source
        recon = (wts[:, None] * ts).sum(axis=0)
        if np.max(np.abs(recon - s)) > 1e-10:  # pragma: no cover - internal consistency
            raise NotConvertibleError("permutation mixture does not reproduce the source")

        # outcome m sends basis vector i to sigma_m(i) on both sides.  Its
        # amplitude is sqrt(wt * t[sigma_m(i)] / s[i]) in exactly this order
        # (another order moves the last bit on non-dyadic spectra); where the
        # source has no weight any isometric completion works, here sqrt(wt).
        live = s > SUM_TOL
        amps = np.where(
            live,
            np.sqrt(wts[:, None] * ts / np.where(live, s, 1.0)),
            np.sqrt(wts)[:, None],
        )
        rows = np.arange(len(wts))[:, None]
        cols = np.arange(d)[None, :]
        # every entry is real, so float64 stacks hold the same values in half
        # the bytes of complex ones (268 MB -> 134 MB for both at d=16)
        kraus = np.zeros((len(wts), 1, d, d))
        kraus[rows, 0, sigmas, cols] = amps
        corrs = np.zeros((len(wts), 1, d, d))
        corrs[rows, 0, sigmas, cols] = 1.0
        kraus.setflags(write=False)
        corrs.setflags(write=False)

        # every outcome and correction is a view of these two stacks, which
        # the instrument and the step keep; they are checked and run as stacks
        labels = [f"m{m}" for m in range(len(wts))]
        instrument = Instrument._from_stack(labels, kraus, layout.subset(a_factors))
        step = LocalInstrument(0, a_factors, instrument, (), (1, b_factors, corrs))
        return LoccProtocol(layout, (step,))
    finally:
        if enabled:
            gc.enable()


class PureRate(NamedTuple):
    lower: float
    upper: float


def pure_target_rate(rho: QState | SchmidtVector, phi: SchmidtVector) -> PureRate:
    """Asymptotic conversion-rate interval toward a pure target.

    The distillable entanglement of the source, sandwiched by the hashing
    bounds, is divided by the target's entanglement entropy.  For a pure
    source the interval collapses to the exact reversible rate; a source
    given as a ``SchmidtVector`` is that pure state, and both bounds are
    its spectrum's entropy, with no state built.  A product target makes
    the rate diverge, which is reported as an error rather than a number.
    """
    s_phi = phi.entropy()
    if s_phi < 1e-12:
        raise DivergingRateError(
            "target carries no entanglement; the conversion rate diverges"
        )
    if isinstance(rho, SchmidtVector):
        lower = upper = rho.entropy()
    else:
        lower, upper = hashing_bounds(rho)
    return PureRate(lower=lower / s_phi, upper=upper / s_phi)
