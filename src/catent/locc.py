"""Channels, instruments and LOCC protocols on multipartite layouts.

A protocol is an ordered list of steps on a fixed layout:

* ``LocalChannel``: a trace-preserving channel applied by one party to
  factors it owns.
* ``LocalInstrument``: a local instrument whose outcome label is
  broadcast; one case of continuation steps per outcome, in outcome
  order, models the other party reacting to the message.
* ``RegisterControlled``: classically reads a register factor, runs the
  branch for its value, then writes the branch's register update back.
  The read decoheres the register; that is all that makes it classical,
  and a protocol declares no list of registers.

Locality is enforced structurally: the constructors refuse any step
whose operators touch factors the acting party does not own.  Classical
communication is therefore free by construction and never tracked as a
quantum resource.

``run_protocol`` executes a protocol step by step on the density matrix
reshaped to one tensor axis per factor: each local Kraus set is
contracted on the axes it touches, instrument outcomes run their
continuations and are summed, and register branches run on the
register's diagonal blocks.  No full-dimension operator is built.
One terminal map ends the protocol and is applied last, as one partial
trace: ``keep``, where output factor t is input factor ``keep[t]`` and
factors not listed are traced out.

Every Kraus set is stored once, as a read-only stack the public
``kraus`` tuples view: (K, rows, cols) for a channel, outcome-major and
zero-padded (M, K, rows, cols) for an instrument.  Constructed sets are
complex128; the pure-conversion synthesis hands in float64 stacks.  One
kernel, ``_contract``, runs them all, as outcomes that each apply a
Kraus set A on some factors and a correction B on others.  A
measure-and-correct step is handed its corrections as one (M, J, d, d)
stack by the synthesis, never inferred from cases; its cases are views
of the stack's rows, and it runs as one call.  Any other Kraus set is
one outcome with no correction, and a step built from cases runs outcome
by outcome, the general path and the oracle.  Outcomes run in
``_batches``; one outcome too wide for ``_BATCH_ELEMS`` runs as its
(k, j) operator pairs, each a one-operator outcome.  Validation reads
the stacks: an instrument checks its total K^dag K against I in operator
norm, which bounds every outcome's.  A protocol's steps are checked in
one walk of the tree, each where the walk meets it; a correction stack
is checked as one, in slices within ``_BATCH_ELEMS``.  A failed check
names a non-finite entry.  ``_remap_steps`` remaps the cases of a step
built from cases, and hands a step with a correction stack that stack,
from which it makes its cases.

``flatten`` composes a protocol into a single :class:`Channel` (Kraus
form).  It is the Kraus-form export and the reference oracle the
executor is tested against; its Kraus count grows as the product of the
step counts and is bounded by ``KRAUS_CAP``.  ``flatten`` and ``apply``
stay public because the benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _io
from .errors import DimensionCapError, DocumentError, LayoutMismatchError, LocalityError
from .qstate import DIM_CAP, QState, SystemLayout, _reduce_matrix

TP_TOL = 1e-9
KRAUS_CAP = 65536
# the kernel and the batched checks: stacked entries per batch
_BATCH_ELEMS = 1 << 20

PROTOCOL_FORMAT = "catent-protocol-v2"


def _batches(n: int, item_elems: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into consecutive ``(lo, hi)`` runs for the kernel and batched checks.

    A run holds at most ``_BATCH_ELEMS`` matrix entries, or one item if
    that alone is larger, where ``item_elems`` is what one item allocates
    in the check.
    """
    size = max(1, _BATCH_ELEMS // max(item_elems, 1))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _completeness(stack: np.ndarray, din: int) -> np.ndarray:
    """Stacked ``sum_k k^dag k`` of an (M, K, r, din) stack.

    Set m is read as A_m, its K*r rows, so its completeness is
    A_m^dag A_m: one batched matmul, and one set allocates twice its own
    size (A_m and its conjugate) plus ``din**2``, never one ``din**2`` per
    operator.  Real stacks stay real.  Non-finite entries give NaN, and
    overflow inf, unwarned.
    """
    a = stack.reshape(len(stack), -1, din)
    with np.errstate(invalid="ignore", over="ignore"):
        return a.conj().transpose(0, 2, 1) @ a


def _refuse_non_finite(stack: np.ndarray, names: Sequence[str]) -> None:
    """Name the first non-finite entry of an (M, K, r, c) stack, item m being ``names[m]``."""
    for m, k, i, j in np.argwhere(~np.isfinite(stack))[:1]:
        raise ValueError(f"{names[m]}: Kraus operator {k} has a non-finite entry at ({i}, {j})")


def _join(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """One read-only (M, K, r, c) stack of M (k, r, c) stacks, each padded with zero operators."""
    dtype = np.result_type(*{s.dtype for s in stacks})
    out = np.zeros((len(stacks), max(map(len, stacks)), *stacks[0].shape[1:]), dtype)
    for m, s in enumerate(stacks):
        out[m, : len(s)] = s
    out.setflags(write=False)
    return out


def _keep_kraus(obj, kraus: Iterable) -> None:
    """Store a Kraus set on ``obj`` as one read-only (K, rows, cols) stack.

    ``obj.kraus`` becomes the tuple of the stack's items, views that share
    its memory, and ``obj._stack`` the stack the kernel reads.
    """
    kraus = tuple(kraus)
    try:
        stack = np.array(kraus or np.zeros((0, 0, 0)), dtype=complex)
    except ValueError:
        shapes = sorted({np.shape(k) for k in kraus})
        if len(shapes) < 2:
            raise
        raise LayoutMismatchError(f"Kraus operators of one set differ in shape: {shapes}") from None
    stack.setflags(write=False)
    object.__setattr__(obj, "_stack", stack)
    object.__setattr__(obj, "kraus", tuple(stack))


def _check_kraus_shape(
    shape: tuple, input_layout: SystemLayout, output_layout: SystemLayout
) -> None:
    """A channel's Kraus operators map its input layout to its output layout."""
    want = (output_layout.total_dim, input_layout.total_dim)
    if shape != want:
        raise LayoutMismatchError(f"Kraus shape {shape} does not match {want}")


def _check_product(count: int, op_elems: int) -> None:
    """Refuse, before it is formed, a Kraus set of ``count`` operators of ``op_elems`` entries
    each past ``KRAUS_CAP`` operators or the entries of one cap-sized matrix."""
    if count > KRAUS_CAP or count * op_elems > DIM_CAP**2:
        raise DimensionCapError(f"{count} Kraus operators of {op_elems} entries exceed "
                                f"{KRAUS_CAP} operators or {DIM_CAP}^2 entries")


def _views(cls, stack: np.ndarray, **fields) -> list:
    """One ``cls`` object per item of a read-only (M, K, rows, cols) stack.

    Made without ``__init__``, so nothing is copied or flagged per object:
    object m keeps ``stack[m]`` and its items as ``kraus``, and the shared
    ``fields``, each field set on all objects in one pass through its slot
    descriptor.  A channel's Kraus shape is checked here, once.  The stack
    may be float64 as well as complex128: a wide instrument whose operators
    are all real (the pure-conversion synthesis) then holds half the bytes,
    and the kernel applies it to complex states as they are.  Any other
    dtype is refused.
    """
    if stack.flags.writeable or stack.ndim != 4 or stack.dtype not in (np.float64, complex):
        raise ValueError(
            "views need a read-only float64 or complex128 (M, K, rows, cols) stack"
        )
    if "input_layout" in fields:
        _check_kraus_shape(stack.shape[2:], fields["input_layout"], fields["output_layout"])
    objs = [object.__new__(cls) for _ in range(len(stack))]
    for name, value in fields.items():
        list(map(getattr(cls, name).__set__, objs, repeat(value)))
    list(map(cls._stack.__set__, objs, stack))
    ops = iter(stack.reshape(-1, *stack.shape[2:]))
    list(map(cls.kraus.__set__, objs, zip(*[ops] * stack.shape[1])))  # K in a tuple
    return objs


# ---------------------------------------------------------------------------
# channels


@dataclass(frozen=True, eq=False, slots=True)
class Channel:
    """CP map in Kraus form between two layouts.

    ``kraus`` holds views of one read-only (K, dout, din) stack.
    """

    kraus: tuple[np.ndarray, ...]
    input_layout: SystemLayout
    output_layout: SystemLayout
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _keep_kraus(self, self.kraus)
        if not len(self._stack):
            raise ValueError("channel needs at least one Kraus operator")
        _check_kraus_shape(self._stack.shape[1:], self.input_layout, self.output_layout)

    # -- constructors

    @classmethod
    def identity(cls, layout: SystemLayout) -> "Channel":
        return cls((np.eye(layout.total_dim, dtype=complex),), layout, layout)

    @classmethod
    def from_unitary(cls, u: np.ndarray, layout: SystemLayout) -> "Channel":
        # one square operator is trace-preserving exactly when it is unitary
        ch = cls((u,), layout, layout)
        if not ch.is_trace_preserving():
            raise ValueError("operator is not unitary on the layout")
        return ch

    @classmethod
    def depolarizing(cls, layout: SystemLayout, keep_prob: float) -> "Channel":
        """rho -> keep_prob * rho + (1 - keep_prob) * I/d on the whole layout.

        Refused before allocating when d^2 passes ``DIM_CAP`` (d > 64): the
        d^2 matrix units would hold more entries than one cap-sized matrix.
        """
        if not 0.0 <= keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in [0, 1], got {keep_prob}")
        d = layout.total_dim
        _check_product(d * d, d * d)  # the matrix units
        w = (1.0 - keep_prob) / d
        # sqrt(keep_prob) I, then sqrt(w) E_ij for every matrix unit, i major
        ks = []
        if keep_prob > 1e-15:
            ks.append(math.sqrt(keep_prob) * np.eye(d, dtype=complex)[None])
        if w > 1e-15:
            ks.append(math.sqrt(w) * np.eye(d * d, dtype=complex).reshape(-1, d, d))
        return cls(np.concatenate(ks), layout, layout)

    # -- algebra

    def completeness(self) -> np.ndarray:
        return _completeness(self._stack[None], self.input_layout.total_dim)[0]

    def is_trace_preserving(self) -> bool:
        d = self.input_layout.total_dim
        return bool(np.max(np.abs(self.completeness() - np.eye(d))) <= TP_TOL)

    def then(self, other: "Channel") -> "Channel":
        """Composition other(self(rho))."""
        if other.input_layout.dims != self.output_layout.dims:
            raise LayoutMismatchError("channel composition dims do not chain")
        (k1, _, c1), (k2, r2, _) = self._stack.shape, other._stack.shape
        _check_product(k1 * k2, r2 * c1)
        ks = other._stack[:, None] @ self._stack[None]
        return Channel(ks.reshape(-1, *ks.shape[2:]), self.input_layout, other.output_layout)

    def tensor(self, other: "Channel") -> "Channel":
        """self (x) other: operator i * len(other.kraus) + j is kron(self's i, other's j)."""
        (ka, ra, ca), (kb, rb, cb) = self._stack.shape, other._stack.shape
        ins, outs = self.input_layout + other.input_layout, self.output_layout + other.output_layout
        _check_product(ka * kb, ra * rb * ca * cb)
        ks = self._stack[:, None, :, None, :, None] * other._stack[None, :, None, :, None, :]
        return Channel(ks.reshape(ka * kb, ra * rb, ca * cb), ins, outs)

    def choi(self) -> np.ndarray:
        """Choi matrix in a fixed row-major vec convention, for map equality tests."""
        vecs = self._stack.reshape(len(self._stack), -1)
        return vecs.T @ vecs.conj()


def apply(channel: Channel, state: QState) -> QState:
    """Apply a trace-preserving channel to a state on the matching layout."""
    if channel.input_layout != state.layout:
        raise LayoutMismatchError(
            f"channel input {channel.input_layout!r} != state layout {state.layout!r}"
        )
    if not channel.is_trace_preserving():
        raise ValueError("apply() requires a trace-preserving channel")
    return QState(channel.output_layout, _contract(state.matrix, channel._stack[None], (0,)))


def apply_to_factors(channel: Channel, state: QState, factors: Sequence[int]) -> QState:
    """Apply a layout-preserving channel to a subset of factors (any order).

    This is raw CP-map plumbing with dimension checks only; it does not
    certify locality.
    """
    factors = tuple(map(operator.index, factors))
    sub_dims = state.layout.subset(factors).dims
    if channel.input_layout.dims != sub_dims or channel.output_layout.dims != sub_dims:
        raise LayoutMismatchError(
            f"channel dims {channel.input_layout.dims} do not match factors {factors}"
        )
    if not channel.is_trace_preserving():
        raise ValueError("apply_to_factors() requires a trace-preserving channel")
    dims = state.layout.dims
    t = _contract(state.matrix.reshape(dims + dims), channel._stack[None], factors)
    return QState(state.layout, t.reshape(state.matrix.shape))


def teleport_channel(resource_fidelity: float, dim: int, party: int = 1) -> Channel:
    """Effective channel of teleportation through an imperfect resource.

    A shared d x d resource with fully-entangled fraction f, consumed by
    the standard teleportation circuit plus twirling, acts on the
    teleported qudit as depolarizing noise with entanglement fidelity f:
    keep probability p = (d^2 f - 1) / (d^2 - 1).  f = 1 gives the
    identity, f = 1/d^2 the fully depolarizing channel.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    lo = 1.0 / dim**2
    if not lo - 1e-12 <= resource_fidelity <= 1.0 + 1e-12:
        raise ValueError(
            f"resource fidelity {resource_fidelity} outside [{lo}, 1] for dim {dim}"
        )
    f = min(1.0, max(lo, resource_fidelity))
    p = (dim**2 * f - 1.0) / (dim**2 - 1.0)
    return Channel.depolarizing(SystemLayout([(party, dim)]), p)


# ---------------------------------------------------------------------------
# instruments


@dataclass(frozen=True, eq=False)
class Instrument:
    """Labelled trace-non-increasing channels summing to a trace-preserving map."""

    outcomes: tuple[tuple[str, Channel], ...]
    # the outcomes' Kraus sets as one (M, K, rows, cols) stack, joined unless handed in
    _stack: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def _from_stack(cls, labels: Sequence[str], stack: np.ndarray, layout: SystemLayout):
        """Instrument on an existing read-only stack, its outcomes views of it: no copy."""
        views = _views(Channel, stack, input_layout=layout, output_layout=layout)
        return cls(tuple(zip(labels, views)), stack)

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("instrument needs at least one outcome")
        labels = self.labels
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate outcome labels in {labels}")
        # views share their layout objects: equality is tested only past identity
        first = self.outcomes[0][1]
        if not all(
            ch.input_layout is first.input_layout and ch.output_layout is first.output_layout
            for _, ch in self.outcomes
        ) and len({(ch.input_layout, ch.output_layout) for _, ch in self.outcomes}) != 1:
            raise LayoutMismatchError("all instrument outcomes must share one layout")
        if self._stack is None:
            object.__setattr__(self, "_stack", _join([ch._stack for _, ch in self.outcomes]))
        m, k, r, din = (stack := self._stack).shape
        runs = _batches(m, (2 * k * r + din) * din)
        with np.errstate(invalid="ignore", over="ignore"):
            total = sum(a.conj().T @ a for a in (stack[lo:hi].reshape(-1, din) for lo, hi in runs))
        # each outcome's sum of K^dag K is PSD and so at most the total: a
        # total within TP_TOL of I in operator norm bounds every outcome's
        # top eigenvalue by 1 + TP_TOL.  A sum that overflowed reads inf.
        dist = math.inf
        if np.isfinite(total).all():
            dist = float(np.abs(np.linalg.eigvalsh(total - np.eye(din))).max())
        else:
            _refuse_non_finite(stack, [f"outcome {lab!r}" for lab in labels])
        if not dist <= TP_TOL:
            raise ValueError(f"instrument outcomes do not sum to a trace-preserving map ({dist})")

    @classmethod
    def from_kraus(
        cls, layout: SystemLayout, outcomes: Sequence[tuple[str, Sequence[np.ndarray]]]
    ) -> "Instrument":
        return cls(tuple((str(lab), Channel(tuple(ks), layout, layout)) for lab, ks in outcomes))

    @property
    def input_layout(self) -> SystemLayout:
        return self.outcomes[0][1].input_layout

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.outcomes)


# ---------------------------------------------------------------------------
# protocol steps


@dataclass(frozen=True, eq=False, slots=True)
class LocalChannel:
    party: int
    factors: tuple[int, ...]
    kraus: tuple[np.ndarray, ...]
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(map(operator.index, self.factors)))
        _keep_kraus(self, self.kraus)


@dataclass(frozen=True, eq=False)
class LocalInstrument:
    party: int
    factors: tuple[int, ...]
    instrument: Instrument
    # continuation steps per outcome, in outcome order, each run before the
    # next top-level step; () leaves every outcome's case empty
    cases: tuple[tuple["Step", ...], ...] = ()
    # (party, factors, read-only (M, J, d, d) stack) of the corrections, only
    # handed in, never inferred; case m is then made here as a view of row m
    _fix: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(map(operator.index, self.factors)))
        m = len(self.instrument.outcomes)
        if self._fix is not None:
            party, factors, stack = self._fix
            cases = tuple((c,) for c in _views(LocalChannel, stack, party=party, factors=factors))
        else:
            cases = tuple(map(tuple, self.cases)) or ((),) * m
        if len(cases) != m:
            raise ValueError(f"{len(cases)} cases for {m} outcomes")
        object.__setattr__(self, "cases", cases)

    def case_map(self) -> dict[str, tuple["Step", ...]]:
        return dict(zip(self.instrument.labels, self.cases))


@dataclass(frozen=True, eq=False)
class RegisterControlled:
    register: int
    branches: tuple[tuple["Step", ...], ...]
    updates: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "register", operator.index(self.register))
        object.__setattr__(self, "branches", tuple(tuple(b) for b in self.branches))
        object.__setattr__(self, "updates", tuple(map(operator.index, self.updates)))


Step = LocalChannel | LocalInstrument | RegisterControlled


def _check_factors(
    layout: SystemLayout, party: int, factors: tuple[int, ...], fixed: frozenset = frozenset()
) -> SystemLayout:
    """The layout of ``factors``: all ``party``'s own, none an enclosing register (``fixed``)."""
    sub = layout.subset(factors)
    for i, f in zip(factors, sub):
        if f.party != party:
            raise LocalityError(f"party {party} cannot act on factor {i} owned by party {f.party}")
        if i in fixed:
            raise LocalityError("controlled branches must not touch the register")
    return sub


def _check_local(layout: SystemLayout, party: int, factors: tuple, stack: np.ndarray,
                 fixed: frozenset) -> None:
    """Check an (M, K, d, d) stack of local channels of ``party`` on ``factors``: their
    place and shape once, trace preservation in ``_batches`` slices."""
    d = _check_factors(layout, party, factors, fixed).total_dim
    if not stack.shape[1]:  # the zero map: refused before any d x d check is built
        raise ValueError("local channel step must be trace-preserving")
    if stack.shape[2:] != (d, d):
        raise LayoutMismatchError(
            f"local Kraus shape {stack.shape[2:]} != ({d}, {d}) on factors {factors}"
        )
    for lo, hi in _batches(len(stack), (2 * stack.shape[1] + 1) * d * d):
        batch = stack[lo:hi]
        dev = _completeness(batch, d)
        dev -= np.eye(d)
        # in place on a real stack; a complex one's magnitudes need a real array
        dev = np.abs(dev, out=dev if dev.dtype == np.float64 else None)
        if not np.max(dev) <= TP_TOL:
            _refuse_non_finite(batch, ["local channel step"] * len(batch))
            raise ValueError("local channel step must be trace-preserving")


def _validate_steps(
    layout: SystemLayout, steps: Sequence[Step], fixed: frozenset = frozenset()
) -> None:
    """Check a step tree in one walk, each step where the walk meets it.

    A local channel is checked for its place, shape and trace
    preservation.  The corrections of a measure-and-correct step share
    one party, shape and place, apart from the measured factors, so their
    stack is checked as one; without a stack every case is walked.  ``fixed``
    holds the registers of the enclosing branches, which no step may touch.
    """
    for s in steps:
        if isinstance(s, LocalChannel):
            _check_local(layout, s.party, s.factors, s._stack[None], fixed)
        elif isinstance(s, LocalInstrument):
            sub_dims = _check_factors(layout, s.party, s.factors, fixed).dims
            # every outcome shares one layout (Instrument checks it), so one comparison
            first = s.instrument.outcomes[0][1]
            dims = (first.input_layout.dims, first.output_layout.dims)
            if dims != (sub_dims, sub_dims):
                raise LayoutMismatchError(
                    f"instrument maps dims {dims[0]} -> {dims[1]}, factors are {sub_dims}"
                )
            if s._fix is not None:
                _check_local(layout, *s._fix, fixed)
                if not set(s._fix[1]).isdisjoint(s.factors):
                    raise LayoutMismatchError(
                        f"correction factors {s._fix[1]} meet measured factors {s.factors}"
                    )
            else:
                for cont in s.cases:
                    _validate_steps(layout, cont, fixed)
        elif isinstance(s, RegisterControlled):
            reg_dim = layout.subset((s.register,)).total_dim
            if s.register in fixed:
                raise LocalityError("controlled branches must not touch the register")
            if len(s.branches) != reg_dim:
                raise LayoutMismatchError(
                    f"register dim {reg_dim} needs {reg_dim} branches, got {len(s.branches)}"
                )
            if len(s.updates) != reg_dim or any(not 0 <= u < reg_dim for u in s.updates):
                raise ValueError(f"register updates {s.updates} invalid for dim {reg_dim}")
            for b in s.branches:
                _validate_steps(layout, b, fixed | {s.register})
        else:
            raise TypeError(f"unknown step {type(s).__name__}")


# ---------------------------------------------------------------------------
# protocols


class LoccProtocol:
    """Validated step sequence with one terminal map, ``keep``.

    Output factor t is input factor ``keep[t]``, the gather convention of
    ``permute_factors`` and ``perm_unitary``; factors not listed are traced
    out.  ``None`` keeps every factor in place, and a ``keep`` that lists
    every factor in order is stored as ``None``.
    """

    __slots__ = ("input_layout", "steps", "keep")

    def __init__(
        self,
        input_layout: SystemLayout,
        steps: Sequence[Step] = (),
        *,
        keep: Sequence[int] | None = None,
    ):
        self.input_layout = input_layout
        self.steps = tuple(steps)
        _validate_steps(input_layout, self.steps)
        if keep is not None:
            keep = tuple(map(operator.index, keep))
            input_layout.subset(keep)  # refuses an empty, repeated or out-of-range keep
        self.keep = None if keep == tuple(range(len(input_layout))) else keep

    def output_layout(self) -> SystemLayout:
        return self.input_layout if self.keep is None else self.input_layout.subset(self.keep)

    def __repr__(self) -> str:
        return f"LoccProtocol({self.input_layout!r}, {len(self.steps)} steps, keep={self.keep})"


def identity_protocol(layout: SystemLayout) -> LoccProtocol:
    return LoccProtocol(layout)


def local_channel(
    layout: SystemLayout, party: int, factors: Sequence[int], kraus: Sequence[np.ndarray]
) -> LocalChannel:
    step = LocalChannel(party, tuple(factors), tuple(kraus))
    _validate_steps(layout, (step,))
    return step


def local_unitary(
    layout: SystemLayout, party: int, factors: Sequence[int], u: np.ndarray
) -> LocalChannel:
    """One-operator local step.

    ``local_channel`` checks its shape and trace preservation, and one
    square operator is trace-preserving exactly when it is unitary.
    """
    return local_channel(layout, party, factors, (u,))


def local_instrument(
    layout: SystemLayout,
    party: int,
    factors: Sequence[int],
    outcomes: Instrument | Sequence[tuple[str, Sequence[np.ndarray]]],
    cases: Mapping[str, Sequence[Step]] | None = None,
) -> LocalInstrument:
    """A local instrument; ``cases`` maps labels, read through ``str``, to continuations."""
    factors = tuple(factors)
    if isinstance(outcomes, Instrument):
        inst = outcomes
    else:
        inst = Instrument.from_kraus(layout.subset(factors), outcomes)
    by_label = {str(key): steps for key, steps in (cases or {}).items()}
    if len(by_label) < len(cases or ()):
        raise ValueError(f"case keys {list(cases)} name one outcome twice")
    if unknown := by_label.keys() - set(inst.labels):
        raise ValueError(f"case label {min(unknown)!r} is not an instrument outcome")
    step = LocalInstrument(party, factors, inst, [by_label.get(lab, ()) for lab in inst.labels])
    _validate_steps(layout, (step,))
    return step


def perm_unitary(dims: Sequence[int], src: Sequence[int]) -> np.ndarray:
    """Permutation unitary: after applying, factor t holds what factor src[t] held.

    ``dims`` is read as a layout, so more than ``MAX_FACTORS`` factors or a dimension
    past ``DIM_CAP`` raises ``DimensionCapError`` before anything is allocated.
    """
    layout = SystemLayout((0, d) for d in dims)
    src = tuple(map(operator.index, src))
    if layout.subset(src) != layout:
        raise LayoutMismatchError(f"src {src} does not map {layout!r} onto itself")
    d = layout.total_dim
    p = np.zeros((d, d), dtype=complex)
    p[_positions(layout.dims, src), np.arange(d)] = 1.0
    return p


def _positions(dims: Sequence[int], lead: Sequence[int]) -> np.ndarray:
    """Where each basis index of ``dims`` lands when its factors are reordered.

    The new order is the factors ``lead``, then the others in their order.
    """
    order = list(lead) + [i for i in range(len(dims)) if i not in lead]
    multis = np.unravel_index(np.arange(math.prod(dims)), dims)
    return np.ravel_multi_index([multis[i] for i in order], [dims[i] for i in order])


def permute_protocol(layout: SystemLayout, src: Sequence[int]) -> LoccProtocol:
    """Per-party local unitaries after which factor t holds what factor src[t] held.

    Factors move only onto equal (party, dim) slots, so each party permutes its own.
    """
    src = tuple(map(operator.index, src))
    if layout.subset(src) != layout:
        raise LayoutMismatchError(f"src {src} does not map {layout!r} onto itself")
    steps = []
    for party in layout.parties:
        pos = [q for q in layout.party_factors(party) if src[q] != q]
        if pos:
            at = {q: a for a, q in enumerate(pos)}
            u = perm_unitary([layout[q].dim for q in pos], [at[src[q]] for q in pos])
            steps.append(local_channel(layout, party, tuple(pos), (u,)))
    return LoccProtocol(layout, steps)


def controlled_on_register(
    register: int,
    branches: Sequence[LoccProtocol],
    updates: Sequence[int] | None = None,
) -> LoccProtocol:
    """Classically branch on a diagonal register factor.

    The register is read in the computational basis (no disturbance on
    basis states), its value broadcast, branch k run, and the branch's
    register update written back.  Off-diagonal register coherences are
    decohered, which is the price of treating the register as classical.
    """
    if not branches:
        raise ValueError("need at least one branch")
    layout = branches[0].input_layout
    for b in branches:
        if b.input_layout != layout:
            raise LayoutMismatchError("all branches must share the control layout")
        if b.keep is not None:
            raise ValueError("branch protocols must keep every factor in place")
    # the register's range and its one branch per value are checked as a step
    if updates is None:
        updates = tuple(range(len(branches)))
    step = RegisterControlled(register, tuple(b.steps for b in branches), tuple(updates))
    return LoccProtocol(layout, (step,))


def embed_protocol(
    protocol: LoccProtocol, target_layout: SystemLayout, factor_map: Sequence[int]
) -> LoccProtocol:
    """Re-index a protocol onto a larger layout via an injective factor map."""
    fmap = tuple(map(operator.index, factor_map))
    if (image := target_layout.subset(fmap)) != protocol.input_layout:
        raise LayoutMismatchError(
            f"factor map {fmap} takes {protocol.input_layout!r} onto {image!r}"
        )
    if protocol.keep is not None:
        raise ValueError("cannot embed a protocol whose keep drops or moves factors")
    return LoccProtocol(target_layout, _remap_steps(protocol.steps, fmap))


def tensor_protocols(first: LoccProtocol, second: LoccProtocol) -> LoccProtocol:
    """Run two protocols side by side: ``first`` on the leading factors.

    Each side keeps its own ``keep``; the output layout is ``first``'s
    output followed by ``second``'s.
    """
    f1, f2 = len(first.input_layout), len(second.input_layout)
    return LoccProtocol(
        first.input_layout + second.input_layout,
        first.steps + _remap_steps(second.steps, range(f1, f1 + f2)),
        keep=(*(first.keep or range(f1)), *(f1 + i for i in second.keep or range(f2))),
    )


def _remap_steps(steps: Sequence[Step], fmap: Sequence[int]) -> tuple[Step, ...]:
    """Re-index steps through ``fmap`` (old factor index -> new index).

    Channels become views of the original read-only stacks.  An instrument
    step keeps its instrument.  A step with a correction stack is handed it
    on remapped factors, with ``()`` for cases, and makes its cases in one
    ``_views`` call; any other step's cases are remapped like other steps.
    """
    out = []
    for s in steps:
        if isinstance(s, LocalChannel):
            out += _views(LocalChannel, s._stack[None], party=s.party,
                          factors=tuple(fmap[i] for i in s.factors))
        elif isinstance(s, LocalInstrument):
            fix = s._fix and (s._fix[0], tuple(fmap[i] for i in s._fix[1]), s._fix[2])
            cases = () if fix else tuple(_remap_steps(cont, fmap) for cont in s.cases)
            out.append(LocalInstrument(
                s.party, tuple(fmap[i] for i in s.factors), s.instrument, cases, fix
            ))
        else:
            branches = tuple(_remap_steps(b, fmap) for b in s.branches)
            out.append(RegisterControlled(fmap[s.register], branches, s.updates))
    return tuple(out)


# ---------------------------------------------------------------------------
# step executor


_NO_FIX = np.ones((1, 1, 1, 1))


def _contract(t: np.ndarray, a: np.ndarray, a_axes: Sequence[int],
              b: np.ndarray = _NO_FIX, b_axes: Sequence[int] = ()) -> np.ndarray:
    """sum_m sum_kj (A_mk x B_mj) t (A_mk x B_mj)^dag on a density tensor t of shape dims + dims.

    ``a``: an (M, K, E, D) stack on the factors ``a_axes`` (in that order);
    ``b``: an (M, J, Db, Db) stack on the disjoint ``b_axes``, by default
    the 1 x 1 one on no factors, whose half then only sums the outcomes.
    A rectangular ``a`` (E != D) needs one axis and no ``b``; that axis
    then has dimension E in the output.  Outcomes run in ``_batches`` of
    max(K, J) state-sized intermediates; one outcome that alone passes
    ``_BATCH_ELEMS`` runs as its (k, j) pairs, each a one-operator outcome
    of operator-sized copies of the stacks.
    """
    # axis order: the touched row axes, every untouched axis, the touched column axes
    n, axes = t.ndim // 2, tuple(a_axes) + tuple(b_axes)
    cols = tuple(n + i for i in axes)
    order = axes + tuple(i for i in range(2 * n) if i not in axes and i not in cols) + cols
    inverse, shape = np.argsort(order), tuple(t.shape[i] for i in order)
    (m, k, e, da), (_, j, db, _) = a.shape, b.shape
    size = t.size // da * max(e, da)  # entries of one operator's state-sized intermediate
    if k * j > 1 and max(k, j) * size > _BATCH_ELEMS:
        a = np.repeat(a, j, axis=1).reshape(-1, 1, e, da)
        b = np.broadcast_to(b[:, None], (m, k, j, db, db)).reshape(-1, 1, db, db)
        m, k, j = len(a), 1, 1
    x = t.transpose(order).reshape(da, -1)
    for lo, hi in _batches(m, max(k, j) * size):
        ac, bc = a[lo:hi], b[lo:hi]
        c = hi - lo
        # (c, k, E, [Db, R, Da', Db']) -> (c, [E, Db, R, Db'], k*Da') @ A^dag
        y = (ac.reshape(-1, da) @ x).reshape(c, k, e, db, -1, da, db)
        y = y.transpose(0, 2, 3, 4, 6, 1, 5).reshape(c, -1, k * da)
        y = y @ ac.conj().transpose(0, 1, 3, 2).reshape(c, k * da, e)
        if b_axes:
            # (c, E, Db, R, Db', E') -> (c, Db, [E, R, E', Db'])
            y = y.reshape(c, e, db, -1, db, e).transpose(0, 2, 1, 3, 5, 4).reshape(c, db, -1)
            y = (bc.reshape(c, j * db, db) @ y).reshape(c, j, db, -1, db)
            y = y.transpose(2, 3, 0, 1, 4).reshape(-1, c * j * db)
            y = y @ bc.conj().transpose(0, 1, 3, 2).reshape(c * j * db, db)
        else:  # no correction: B is the 1 x 1 one, so the B half only sums the outcomes
            y = y.sum(0)
        acc = acc + y if lo else y
    # acc is laid out (Db, E, R, E', Db'); ``order`` is (E, Db, R, E', Db')
    shape = (e, *shape[1:-1], e) if e != da else shape
    return acc.reshape(db, e, -1).transpose(1, 0, 2).reshape(shape).transpose(inverse)


def _register_block(n: int, register: int, value: int) -> tuple[slice, ...]:
    """Index of the diagonal block where the register holds ``value``."""
    idx = [slice(None)] * (2 * n)
    idx[register] = idx[n + register] = slice(value, value + 1)
    return tuple(idx)


def _run_steps(steps: Sequence[Step], t: np.ndarray) -> np.ndarray:
    for s in steps:
        if isinstance(s, LocalChannel):
            t = _contract(t, s._stack[None], s.factors)
        elif isinstance(s, LocalInstrument) and s._fix is not None:
            t = _contract(t, s.instrument._stack, s.factors, s._fix[2], s._fix[1])
        elif isinstance(s, LocalInstrument):
            t = sum(
                _run_steps(cont, _contract(t, ch._stack[None], s.factors))
                for (_, ch), cont in zip(s.instrument.outcomes, s.cases)
            )
        else:  # RegisterControlled; validation refused any other step
            # branches never touch the register, so a size-1 slice of its
            # axis keeps every factor index of the branch valid
            n = t.ndim // 2
            out = np.zeros(t.shape, dtype=complex)
            for k, branch in enumerate(s.branches):
                block = _run_steps(branch, t[_register_block(n, s.register, k)])
                out[_register_block(n, s.register, s.updates[k])] += block
            t = out
    return t


def _run_matrix(protocol: LoccProtocol, matrix: np.ndarray) -> np.ndarray:
    """Run ``protocol`` on a raw square matrix of its input dimension; no validation.

    Linear in ``matrix``, so it also evaluates the protocol's map on
    operators that are not states.
    """
    dims = protocol.input_layout.dims
    out = _run_steps(protocol.steps, matrix.reshape(dims + dims)).reshape(matrix.shape)
    # each step was checked trace-preserving when the protocol was built
    if abs(np.trace(out) - np.trace(matrix)) > TP_TOL:
        raise RuntimeError("protocol run did not preserve the trace (internal bug)")
    if protocol.keep is not None:
        out = _reduce_matrix(out, dims, protocol.keep)
    return out


def run_protocol(protocol: LoccProtocol, state: QState) -> QState:
    """Run a protocol on a state step by step; only the output is validated."""
    if protocol.input_layout != state.layout:
        raise LayoutMismatchError(
            f"protocol input {protocol.input_layout!r} != state layout {state.layout!r}"
        )
    return QState(protocol.output_layout(), _run_matrix(protocol, state.matrix))


# ---------------------------------------------------------------------------
# flattening


def _embed_operator(layout: SystemLayout, factors: tuple[int, ...], k: np.ndarray) -> np.ndarray:
    """Lift an operator on a factor subset (given order) to the full space."""
    full = np.kron(k, np.eye(layout.total_dim // len(k), dtype=complex))
    pos = _positions(layout.dims, factors)
    return full[np.ix_(pos, pos)]


def _steps_kraus(layout: SystemLayout, steps: Sequence[Step]) -> list[np.ndarray]:
    d = layout.total_dim
    ops: list[np.ndarray] = [np.eye(d, dtype=complex)]
    for s in steps:
        new: list[np.ndarray] = []
        if isinstance(s, LocalChannel):
            for k in s.kraus:
                ke = _embed_operator(layout, s.factors, k)
                new.extend(ke @ op for op in ops)
        elif isinstance(s, LocalInstrument):
            for (_, ch), cont in zip(s.instrument.outcomes, s.cases):
                cont_ops = _steps_kraus(layout, cont)
                for m in ch.kraus:
                    me = _embed_operator(layout, s.factors, m)
                    for b in cont_ops:
                        new.extend(b @ me @ op for op in ops)
        else:  # RegisterControlled
            reg_dim = layout[s.register].dim
            for k, branch in enumerate(s.branches):
                sel = np.zeros((reg_dim, reg_dim), dtype=complex)
                sel[s.updates[k], k] = 1.0
                sele = _embed_operator(layout, (s.register,), sel)
                for b in _steps_kraus(layout, branch):
                    new.extend(b @ sele @ op for op in ops)
        if len(new) > KRAUS_CAP:
            raise DimensionCapError(f"flattened Kraus count exceeds {KRAUS_CAP}")
        ops = new
    return ops


def flatten(protocol: LoccProtocol) -> Channel:
    """Compose a protocol into a single trace-preserving channel.

    This is the Kraus-form export and the reference oracle for
    ``run_protocol``; its Kraus count, the product of the step counts,
    is capped at ``KRAUS_CAP``.
    """
    layout, keep = protocol.input_layout, protocol.keep
    ops = _steps_kraus(layout, protocol.steps)
    if keep is not None:
        # one trace map per basis state of the dropped factors, the rest in ``keep``'s order
        d = layout.total_dim
        d_drop = d // math.prod(layout[i].dim for i in keep)
        pos = _positions(layout.dims, keep)
        traces = np.zeros((d_drop, d // d_drop, d), dtype=complex)
        traces[pos % d_drop, pos // d_drop, np.arange(d)] = 1.0
        ops = [v @ op for v in traces for op in ops]
    ops = [op for op in ops if np.any(op)]
    chan = Channel(tuple(ops), layout, protocol.output_layout())
    if not chan.is_trace_preserving():
        raise RuntimeError("flattened protocol is not trace-preserving (internal bug)")
    return chan


# ---------------------------------------------------------------------------
# serialization


def _encode_step(step: Step) -> dict:
    if isinstance(step, LocalChannel):
        return {
            "type": "channel",
            "party": step.party,
            "factors": list(step.factors),
            "kraus": [_io.encode_matrix(k) for k in step.kraus],
        }
    if isinstance(step, LocalInstrument):
        return {
            "type": "instrument",
            "party": step.party,
            "factors": list(step.factors),
            "outcomes": [
                {
                    "label": lab,
                    "kraus": [_io.encode_matrix(k) for k in ch.kraus],
                    "then": [_encode_step(t) for t in cont] if cont else None,
                }
                for (lab, ch), cont in zip(step.instrument.outcomes, step.cases)
            ],
        }
    return {  # RegisterControlled
        "type": "controlled",
        "register": step.register,
        "updates": list(step.updates),
        "branches": [[_encode_step(t) for t in b] for b in step.branches],
    }


def _decode_step(doc: dict, layout: SystemLayout) -> Step:
    # steps are built outside the parsing block, so their domain errors
    # (say, an incomplete instrument or mixed Kraus shapes) keep their types
    with _io.parsing("protocol step"):
        kind = doc["type"]
        if kind == "channel":
            (party,), factors = _io.integers([doc["party"]]), _io.integers(doc["factors"])
            kraus = tuple(_io.decode_matrix(k) for k in doc["kraus"])
        elif kind == "instrument":
            (party,), factors = _io.integers([doc["party"]]), _io.integers(doc["factors"])
            outcomes, then = [], []
            for o in doc["outcomes"]:
                if type(lab := o["label"]) is not str:
                    raise DocumentError(f"outcome label must be a JSON string, got {lab!r}")
                outcomes.append((lab, tuple(_io.decode_matrix(k) for k in o["kraus"])))
                then.append([] if o.get("then") is None else list(o["then"]))
        elif kind == "controlled":
            (register,) = _io.integers([doc["register"]])
            branches = [list(b) for b in doc["branches"]]
            updates = _io.integers(doc["updates"])
        else:
            raise DocumentError(f"step type {kind!r} is not channel, instrument or controlled")
    if kind == "channel":
        return LocalChannel(party, factors, kraus)
    if kind == "controlled":
        return RegisterControlled(
            register,
            tuple(tuple(_decode_step(t, layout) for t in b) for b in branches),
            updates,
        )
    cases = tuple(tuple(_decode_step(t, layout) for t in steps) for steps in then)
    inst = Instrument.from_kraus(layout.subset(factors), outcomes)
    return LocalInstrument(party, factors, inst, cases)


def protocol_to_dict(protocol: LoccProtocol) -> dict:
    return {
        "format": PROTOCOL_FORMAT,
        "factors": [[f.party, f.dim] for f in protocol.input_layout],
        "steps": [_encode_step(s) for s in protocol.steps],
        "keep": None if protocol.keep is None else list(protocol.keep),
    }


def protocol_from_dict(doc: dict) -> LoccProtocol:
    _io.check_format(doc, PROTOCOL_FORMAT, "protocol")
    with _io.parsing("protocol"):
        layout = SystemLayout(map(_io.integers, doc["factors"]))
        step_docs = list(doc["steps"])
        keep = None if doc.get("keep") is None else _io.integers(doc["keep"])
    steps = tuple(_decode_step(s, layout) for s in step_docs)
    return LoccProtocol(layout, steps, keep=keep)


def save_protocol(protocol: LoccProtocol, path) -> None:
    _io.write_document(protocol_to_dict(protocol), path)


def load_protocol(path) -> LoccProtocol:
    return protocol_from_dict(_io.read_document(path))
