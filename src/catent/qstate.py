"""Dense multipartite density-matrix toolkit.

Conventions
-----------
* A state lives on a :class:`SystemLayout`: an ordered tuple of tensor
  factors, each tagged with an owning party id and a local dimension.
  Factor 0 is the most significant index, i.e. a product state is
  ``kron(factor0, factor1, ...)``.
* All entropies are base 2.
* Everything is dense ``complex128``.  The practical cap is
  ``DIM_CAP = 4096`` for the total dimension, and a layout holds at most
  ``MAX_FACTORS = 32`` factors (the executor gives each factor two numpy
  axes, and numpy stops at 64).  ``SystemLayout`` refuses either limit
  where it is built, so every state, protocol and product is refused
  before it allocates.

Numerical tolerances
--------------------
Hermiticity and trace are enforced at 1e-10.  States failing positivity
by less than 1e-9 (smallest eigenvalue in ``[-1e-9, -1e-10)``) are
clipped to the PSD cone and renormalized with a :class:`StateClipWarning`;
anything worse is rejected.  Eigenvalues below 1e-12 contribute nothing
to entropies.

Each state keeps the spectrum its validation found as ``QState.spectrum``
(ascending; after a clip, the eigenvalues of the stored matrix), and
``von_neumann_entropy`` and ``is_pure`` read it.  ``tensor`` (so also
``tensor_all`` and ``n_copies``) and ``permute_factors`` derive their
output's spectrum from their inputs, the sorted products for a Kronecker
product and the same multiset for a factor permutation, in place of an
eigendecomposition.  The hermiticity, trace and positivity checks still
run on the output with the same tolerances, and a derived spectrum whose
smallest eigenvalue is below ``-PSD_TOL / 2`` is recomputed, so a product
near a tolerance takes the full path.  ``tensor_all`` builds its product
in one Kronecker chain and checks only that output.  A matrix whose
measured asymmetry is exactly 0 is stored as it is: its symmetrization
has the same values, and differs at most in the sign of a zero entry.
``partial_trace`` and protocol outputs are always fully validated: a
partial trace can scale negative dust by the traced dimension, so its
spectrum cannot be derived.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _io
from .errors import (
    DimensionCapError,
    LayoutMismatchError,
    NotPureError,
    StateInvariantError,
)

DIM_CAP = 4096
MAX_FACTORS = 32
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
PSD_CLIP_TOL = 1e-9
EIG_CUTOFF = 1e-12
PURITY_TOL = 1e-9

STATE_FORMAT = "catent-state-v1"


class StateClipWarning(UserWarning):
    """A state was projected back onto the PSD cone."""


class Factor(NamedTuple):
    party: int
    dim: int


class SystemLayout:
    """Ordered list of ``(party, dim)`` tensor factors.

    Raises ``DimensionCapError`` for more than ``MAX_FACTORS`` factors,
    reading no further than one past it, or a total dimension past
    ``DIM_CAP``: the one check of both limits.
    """

    __slots__ = ("factors", "total_dim")

    def __init__(self, factors: Iterable[tuple[int, int] | Factor]):
        fs = tuple(Factor(operator.index(p), operator.index(d))
                   for p, d in itertools.islice(factors, MAX_FACTORS + 1))
        if not fs:
            raise ValueError("layout needs at least one factor")
        if len(fs) > MAX_FACTORS:
            raise DimensionCapError(f"layout has more than {MAX_FACTORS} factors")
        for f in fs:
            if f.dim < 1:
                raise ValueError(f"factor dimension must be >= 1, got {f.dim}")
            if f.party < 0:
                raise ValueError(f"party id must be >= 0, got {f.party}")
        # exact integer product: a fixed-width one wraps past 2**63
        total = math.prod(f.dim for f in fs)
        if total > DIM_CAP:
            raise DimensionCapError(f"layout dimension {total} exceeds cap {DIM_CAP}")
        self.factors = fs
        self.total_dim: int = total

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def parties(self) -> tuple[int, ...]:
        return tuple(sorted({f.party for f in self.factors}))

    def party_factors(self, party: int) -> tuple[int, ...]:
        """Indices of the factors owned by ``party``, in layout order."""
        return tuple(i for i, f in enumerate(self.factors) if f.party == party)

    def subset(self, indices: Sequence[int]) -> "SystemLayout":
        """The factors at ``indices``, in that order.

        The one check of a list of factor indices: ``LayoutMismatchError`` for
        an index out of range (negative too) or repeated.
        """
        idx, n = tuple(indices), len(self.factors)
        for i in idx:
            if not 0 <= i < n:
                raise LayoutMismatchError(f"factor index {i} out of range for {self!r}")
        if len(set(idx)) != len(idx):
            raise LayoutMismatchError(f"repeated factor indices {idx}")
        return SystemLayout(self.factors[i] for i in idx)

    def power(self, n: int) -> "SystemLayout":
        """``n`` copies; refused before the factors are repeated, for any ``n``."""
        if n < 1:
            raise ValueError(f"tensor power needs n >= 1, got {n}")
        # any dimension >= 2 to the power DIM_CAP.bit_length() is past the cap
        if self.total_dim ** min(n, DIM_CAP.bit_length()) > DIM_CAP:
            raise DimensionCapError(
                f"{n} copies of dimension {self.total_dim} exceed cap {DIM_CAP}"
            )
        if n * len(self) > MAX_FACTORS:
            raise DimensionCapError(
                f"{n} copies of a {len(self)}-factor layout exceed {MAX_FACTORS} factors"
            )
        return SystemLayout(self.factors * n)

    def __add__(self, other: "SystemLayout") -> "SystemLayout":
        return SystemLayout(self.factors + other.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __getitem__(self, i: int) -> Factor:
        return self.factors[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, SystemLayout) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.party}:{f.dim}" for f in self.factors)
        return f"SystemLayout({inner})"


def _validate_density(
    matrix: np.ndarray, dim: int, spectrum: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Checked read-only copy of ``matrix`` and its ascending spectrum.

    ``spectrum`` is the spectrum of ``matrix`` known exactly from the
    states it was built from.  It stands in for the eigendecomposition
    unless its smallest eigenvalue is below ``-PSD_TOL / 2``; that margin
    is far wider than eigvalsh's error at any dimension under ``DIM_CAP``,
    so the PSD verdict is the one a full decomposition would give.
    Rejecting tests read ``not ok``, so NaN fails them; a non-finite entry is named.
    """
    m = np.ascontiguousarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise StateInvariantError(f"matrix shape {m.shape} does not match layout dim {dim}")
    with np.errstate(invalid="ignore"):  # inf - inf; a non-finite entry is named below
        herm_err = float(np.max(np.abs(m - m.conj().T)))
    if not herm_err <= HERM_TOL:
        for i, j in np.argwhere(~np.isfinite(m))[:1]:
            raise StateInvariantError(f"matrix entry ({i}, {j}) is not finite: {m[i, j]}")
        raise StateInvariantError(f"matrix is not hermitian (max asymmetry {herm_err:.3e})")
    if herm_err:
        m = (m + m.conj().T) / 2.0
    elif np.may_share_memory(m, matrix):
        # exactly hermitian, so symmetrizing changes no value; but the caller's array
        m = m.copy()
    tr = float(m.trace().real)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise StateInvariantError(f"trace is {tr!r}, not 1 within {TRACE_TOL}")
    eigs = spectrum
    if eigs is None or eigs[0] < -PSD_TOL / 2:
        eigs = np.linalg.eigvalsh(m)
    min_eig = float(eigs[0])
    if not min_eig >= -PSD_CLIP_TOL:
        raise StateInvariantError(f"matrix is not PSD (min eigenvalue {min_eig:.3e})")
    if min_eig < -PSD_TOL:
        # small negative dust from long channel compositions: project and renormalize
        warnings.warn(
            f"clipping negative eigenvalue {min_eig:.3e} to the PSD cone",
            StateClipWarning,
            stacklevel=3,
        )
        vals, vecs = np.linalg.eigh(m)
        vals = np.clip(vals, 0.0, None)
        vals /= vals.sum()
        m = (vecs * vals) @ vecs.conj().T
        m = (m + m.conj().T) / 2.0
        eigs = vals
    m.setflags(write=False)
    eigs.setflags(write=False)
    return m, eigs


class QState:
    """Immutable density matrix on a :class:`SystemLayout`.

    ``spectrum`` holds the eigenvalues of ``matrix``, ascending and
    read-only, as its validation found them.
    """

    __slots__ = ("layout", "matrix", "spectrum")

    def __init__(
        self, layout: SystemLayout, matrix: np.ndarray, *, _spectrum: np.ndarray | None = None
    ):
        if not isinstance(layout, SystemLayout):
            layout = SystemLayout(layout)
        self.layout = layout
        self.matrix, self.spectrum = _validate_density(matrix, layout.total_dim, _spectrum)

    @property
    def total_dim(self) -> int:
        return self.layout.total_dim

    def marginal(self, keep: Sequence[int]) -> "QState":
        return partial_trace(self, keep)

    def __repr__(self) -> str:
        return f"QState({self.layout!r}, dim={self.total_dim})"


# ---------------------------------------------------------------------------
# construction helpers


def pure_state(layout: SystemLayout, amplitudes: Sequence[complex]) -> QState:
    """Rank-one state |v><v| from an amplitude vector (normalized internally).

    Raises StateInvariantError when the vector norm is not within 1e-8
    of 1, to catch silently wrong inputs while allowing float dust.  A
    layout past a limit was refused where it was built, so the density
    matrix is never formed past ``DIM_CAP``.
    """
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if v.size != layout.total_dim:
        raise LayoutMismatchError(f"vector length {v.size} != layout dim {layout.total_dim}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= 1e-8:
        raise StateInvariantError(f"amplitude vector has norm {norm!r}")
    v = v / norm
    return QState(layout, np.outer(v, v.conj()))


def basis_state(layout: SystemLayout, indices: Sequence[int]) -> QState:
    """Computational basis state |i_0 i_1 ...><...| on the layout."""
    if len(indices) != len(layout):
        raise LayoutMismatchError("need one basis index per factor")
    for i, (b, f) in enumerate(zip(indices, layout)):
        if not 0 <= b < f.dim:
            raise LayoutMismatchError(f"basis index {b} out of range for factor {i} of dim {f.dim}")
    flat = int(np.ravel_multi_index(tuple(indices), layout.dims))
    v = np.zeros(layout.total_dim, dtype=complex)
    v[flat] = 1.0
    return QState(layout, np.outer(v, v.conj()))


def maximally_mixed(layout: SystemLayout) -> QState:
    d = layout.total_dim
    return QState(layout, np.eye(d, dtype=complex) / d)


def singlet() -> QState:
    """Two-qubit singlet (|01> - |10>)/sqrt(2) on layout [(0,2),(1,2)]."""
    v = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    return pure_state(SystemLayout([(0, 2), (1, 2)]), v)


def maximally_entangled(dim: int) -> QState:
    """sum_i |ii>/sqrt(d) on layout [(0,d),(1,d)], which is built first, as the cap check."""
    layout = SystemLayout([(0, dim), (1, dim)])
    v = np.zeros(dim * dim, dtype=complex)
    v[:: dim + 1] = 1.0 / math.sqrt(dim)
    return pure_state(layout, v)


def random_state(layout: SystemLayout, ensemble: str = "haar_pure", seed: int = 0) -> QState:
    """Seeded random state.

    ensemble = 'haar_pure': Haar-random pure state (normalized complex
    Gaussian vector).  ensemble = 'ginibre_mixed': full-rank mixed state
    G G^dag / tr from a square complex Ginibre matrix.
    """
    d = layout.total_dim
    rng = np.random.default_rng(seed)
    if ensemble == "haar_pure":
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return pure_state(layout, v / np.linalg.norm(v))
    if ensemble == "ginibre_mixed":
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        return QState(layout, m / m.trace())
    raise ValueError(f"unknown ensemble {ensemble!r}")


# ---------------------------------------------------------------------------
# tensor algebra


def tensor(a: QState, b: QState) -> QState:
    """a ⊗ b; raises DimensionCapError before allocating past a layout limit."""
    return tensor_all((a, b))


def tensor_all(states: Sequence[QState]) -> QState:
    """The product of ``states`` in order, built in one pass and validated once.

    The product layout is built first, so a product past ``DIM_CAP`` or
    ``MAX_FACTORS`` is refused before anything is allocated.  The matrix is one
    Kronecker chain and the spectrum the sorted products, each bit for bit
    what chained ``tensor`` calls give, unless a partial product's derived
    spectrum dips below ``-PSD_TOL / 2``: the chain recomputes that one by
    eigendecomposition, so its later spectra differ in the last bits.
    """
    if not states:
        raise ValueError("need at least one state")
    if len(states) == 1:
        return states[0]
    layout = SystemLayout(f for s in states for f in s.layout)
    spectrum = states[0].spectrum
    for s in states[1:]:
        spectrum = np.sort(np.outer(spectrum, s.spectrum), axis=None)
    matrix = functools.reduce(np.kron, (s.matrix for s in states))
    return QState(layout, matrix, _spectrum=spectrum)


def n_copies(state: QState, n: int) -> QState:
    return tensor_all([state] * n)


def partial_trace(state: QState, keep: Sequence[int]) -> QState:
    """Reduce to the factors in ``keep`` (set semantics, original order kept)."""
    keep = sorted(set(map(operator.index, keep)))
    layout = state.layout.subset(keep)
    if len(layout) == len(state.layout):
        return state
    return QState(layout, _reduce_matrix(state.matrix, state.layout.dims, keep))


def permute_factors(state: QState, order: Sequence[int]) -> QState:
    """Relabel factors so new factor t is old factor order[t] (bookkeeping only)."""
    n = len(state.layout)
    order = tuple(map(operator.index, order))
    if sorted(order) != list(range(n)):
        raise LayoutMismatchError(f"order {order} is not a permutation of 0..{n - 1}")
    return QState(
        state.layout.subset(order),
        _reduce_matrix(state.matrix, state.layout.dims, order),
        _spectrum=state.spectrum,
    )


def _reduce_matrix(matrix: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Raw partial trace onto the factors ``keep``, in that order; no validation."""
    dims = tuple(dims)
    n = len(dims)
    drop = [i for i in range(n) if i not in keep]
    t = matrix.reshape(dims + dims)
    perm = list(keep) + drop + [i + n for i in keep] + [i + n for i in drop]
    t = t.transpose(perm)
    dk = int(np.prod([dims[i] for i in keep]))
    dd = int(np.prod([dims[i] for i in drop]))
    return np.einsum("abcb->ac", t.reshape(dk, dd, dk, dd))


# ---------------------------------------------------------------------------
# metrics and entropies


def trace_norm_dist(a: QState, b: QState) -> float:
    """Trace norm ||a - b||_1 (sum of singular values), in [0, 2]."""
    if a.layout.dims != b.layout.dims:
        raise LayoutMismatchError(f"dims {a.layout.dims} vs {b.layout.dims}")
    return _herm_dist(a.matrix, b.matrix)


def _herm_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Trace norm ||a - b||_1 of two raw matrices, hermitian up to rounding."""
    d = a - b
    d = (d + d.conj().T) / 2
    return float(np.abs(np.linalg.eigvalsh(d)).sum())


def fidelity(a: QState, b: QState) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(a) b sqrt(a)), computed as ||sqrt(a) sqrt(b)||_1."""
    if a.layout.dims != b.layout.dims:
        raise LayoutMismatchError(f"dims {a.layout.dims} vs {b.layout.dims}")
    sa = _psd_sqrt(a.matrix)
    sb = _psd_sqrt(b.matrix)
    sv = np.linalg.svd(sa @ sb, compute_uv=False)
    return float(min(1.0, sv.sum()))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _entropy_from_probs(probs: np.ndarray) -> float:
    p = probs[probs > EIG_CUTOFF]
    return float(max(0.0, -(p * np.log2(p)).sum()))


def von_neumann_entropy(state: QState) -> float:
    """S(rho) = -tr rho log2 rho, eigenvalues below 1e-12 dropped."""
    return _entropy_from_probs(state.spectrum)


def is_pure(state: QState) -> bool:
    return float(state.spectrum[-1]) >= 1.0 - PURITY_TOL


def _check_bipartition(
    layout: SystemLayout, parties_a: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Factor indices of the two sides of a party cut, each in layout order."""
    pa = set(map(operator.index, parties_a))
    if not pa or not pa < set(layout.parties):
        raise LayoutMismatchError(
            f"parties_a={tuple(sorted(pa))} must be a nonempty proper subset of parties "
            f"{layout.parties}"
        )
    side_a = [i for i, f in enumerate(layout) if f.party in pa]
    return side_a, [i for i, f in enumerate(layout) if f.party not in pa]


def _schmidt_probs(state: QState, parties_a: Sequence[int]) -> np.ndarray:
    """Squared Schmidt coefficients of a (tolerance-)pure state across a party cut."""
    side_a, side_b = _check_bipartition(state.layout, parties_a)
    vals, vecs = np.linalg.eigh(state.matrix)
    if float(vals[-1]) < 1.0 - PURITY_TOL:
        raise NotPureError(f"state is not pure (largest eigenvalue {vals[-1]:.12f})")
    v = np.ascontiguousarray(vecs[:, -1])
    dims = state.layout.dims
    t = v.reshape(dims).transpose(side_a + side_b)
    da = int(np.prod([dims[i] for i in side_a]))
    sv = np.linalg.svd(t.reshape(da, -1), compute_uv=False)
    probs = np.clip(sv**2, 0.0, None)
    return probs / probs.sum()


def entanglement_entropy(state: QState, parties_a: Sequence[int] = (0,)) -> float:
    """Entropy of entanglement of a pure state across the given party cut."""
    return _entropy_from_probs(_schmidt_probs(state, parties_a))


@dataclass(frozen=True)
class SchmidtVector:
    """Descending Schmidt probability vector (sums to 1 within 1e-12)."""

    probs: tuple[float, ...]

    def __post_init__(self):
        p = self.probs
        if not p:
            raise ValueError("empty Schmidt vector")
        if not all(x >= 0.0 for x in p):
            raise ValueError("Schmidt probabilities must be nonnegative")
        if not all(p[i] >= p[i + 1] for i in range(len(p) - 1)):
            raise ValueError("Schmidt probabilities must be descending")
        total = math.fsum(p)  # exact, so whatever ``of`` normalized passes at any length
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"Schmidt probabilities sum to {total!r}")

    @classmethod
    def of(cls, probs: Iterable[float]) -> "SchmidtVector":
        """Sort descending, clip float dust, renormalize exactly."""
        arr = np.asarray(list(probs), dtype=float)
        if arr.size == 0:
            raise ValueError("empty Schmidt vector")
        for i in np.flatnonzero(~np.isfinite(arr))[:1]:
            raise ValueError(f"Schmidt probability {i} is not finite: {arr[i]}")
        if arr.min() < -1e-12:
            raise ValueError(f"negative Schmidt probability {arr.min()!r}")
        arr = np.clip(arr, 0.0, None)
        with np.errstate(over="ignore"):  # a sum past the float range is refused below
            total = arr.sum()
        if not math.isfinite(total) or total <= 0.0:
            raise ValueError("Schmidt probabilities must have positive finite sum")
        arr = np.sort(arr / total)[::-1]
        return cls(tuple(float(x) for x in arr))

    def entropy(self) -> float:
        return _entropy_from_probs(np.asarray(self.probs))

    def padded(self, length: int) -> "SchmidtVector":
        if length < len(self.probs):
            raise ValueError(f"cannot pad length {len(self.probs)} down to {length}")
        return SchmidtVector(self.probs + (0.0,) * (length - len(self.probs)))

    def tensor(self, other: "SchmidtVector") -> "SchmidtVector":
        """The product spectrum; DimensionCapError past ``DIM_CAP`` entries (a state past it)."""
        if (length := len(self) * len(other)) > DIM_CAP:
            raise DimensionCapError(f"spectrum product length {length} exceeds cap {DIM_CAP}")
        prod = np.outer(np.asarray(self.probs), np.asarray(other.probs)).ravel()
        return SchmidtVector.of(prod)

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)


def schmidt_decompose(state: QState, parties_a: Sequence[int] = (0,)) -> SchmidtVector:
    """Schmidt probabilities of a pure state across a party cut, descending."""
    return SchmidtVector.of(_schmidt_probs(state, parties_a))


def _purification_vector(state: QState) -> np.ndarray:
    """Row-major (dim, rank) coefficients of the purification, unnormalized."""
    vals, vecs = np.linalg.eigh(state.matrix)
    sel = vals > EIG_CUTOFF
    return np.ascontiguousarray(vecs[:, sel] * np.sqrt(vals[sel] / vals[sel].sum()))


def purify(state: QState) -> QState:
    """Standard purification; the reference factor gets a fresh party id.

    The reference dimension is the eigenvalue rank of the input at the
    1e-12 cutoff, so pure inputs get a trivial dim-1 reference.
    """
    v = _purification_vector(state)
    ref_party = max(state.layout.parties) + 1
    layout = state.layout + SystemLayout([(ref_party, v.shape[1])])
    return pure_state(layout, v.reshape(-1))


# ---------------------------------------------------------------------------
# serialization (bit-exact round-trip)


def state_to_dict(state: QState) -> dict:
    return {
        "format": STATE_FORMAT,
        "factors": [[f.party, f.dim] for f in state.layout],
        "matrix": _io.encode_matrix(state.matrix),
    }


def state_from_dict(doc: dict) -> QState:
    _io.check_format(doc, STATE_FORMAT, "state")
    with _io.parsing("state"):
        layout = SystemLayout(map(_io.integers, doc["factors"]))
        matrix = _io.decode_matrix(doc["matrix"])
    return QState(layout, matrix)


def save_state(state: QState, path) -> None:
    _io.write_document(state_to_dict(state), path)


def load_state(path) -> QState:
    return state_from_dict(_io.read_document(path))
