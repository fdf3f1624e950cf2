"""Channels, instruments and LOCC protocols on multipartite layouts.

A protocol is an ordered list of steps on a fixed layout:

* ``LocalChannel``: a trace-preserving channel applied by one party to
  factors it owns.
* ``LocalInstrument``: a local instrument whose outcome label is
  broadcast; optional per-outcome continuation steps model the other
  party reacting to the message.
* ``RegisterControlled``: classically reads a register factor, runs the
  branch for its value, then writes the branch's register update back.

Locality is enforced structurally: the constructors refuse any step
whose operators touch factors the acting party does not own.  Classical
communication is therefore free by construction and never tracked as a
quantum resource.

``run_protocol`` executes a protocol step by step on the density matrix
reshaped to one tensor axis per factor: each local Kraus set is
contracted on the axes it touches, instrument outcomes run their
continuations and are summed, and register branches run on the
register's diagonal blocks.  No full-dimension operator is built.
Terminal bookkeeping (discarding ancilla factors, relabeling the
survivors) is part of the protocol and is applied last.

``flatten`` composes a protocol into a single :class:`Channel` (Kraus
form).  It is the Kraus-form export and the reference oracle the
executor is tested against; its Kraus count grows as the product of the
step counts and is bounded by ``KRAUS_CAP``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _io
from .errors import DocumentError, LayoutMismatchError, LocalityError
from .qstate import QState, SystemLayout, _permute_matrix, _reduce_matrix

TP_TOL = 1e-9
KRAUS_CAP = 65536

PROTOCOL_FORMAT = "catent-protocol-v1"


def _readonly(arrays: Iterable[np.ndarray]) -> tuple[np.ndarray, ...]:
    out = []
    for a in arrays:
        m = np.ascontiguousarray(a, dtype=complex)
        m.setflags(write=False)
        out.append(m)
    return tuple(out)


# ---------------------------------------------------------------------------
# channels


@dataclass(frozen=True, eq=False)
class Channel:
    """CP map in Kraus form between two layouts."""

    kraus: tuple[np.ndarray, ...]
    input_layout: SystemLayout
    output_layout: SystemLayout

    def __post_init__(self):
        ks = _readonly(self.kraus)
        if not ks:
            raise ValueError("channel needs at least one Kraus operator")
        din = self.input_layout.total_dim
        dout = self.output_layout.total_dim
        for k in ks:
            if k.shape != (dout, din):
                raise LayoutMismatchError(
                    f"Kraus shape {k.shape} does not match ({dout}, {din})"
                )
        object.__setattr__(self, "kraus", ks)

    # -- constructors

    @classmethod
    def identity(cls, layout: SystemLayout) -> "Channel":
        return cls((np.eye(layout.total_dim, dtype=complex),), layout, layout)

    @classmethod
    def from_unitary(cls, u: np.ndarray, layout: SystemLayout) -> "Channel":
        u = np.asarray(u, dtype=complex)
        d = layout.total_dim
        if u.shape != (d, d) or np.max(np.abs(u.conj().T @ u - np.eye(d))) > TP_TOL:
            raise ValueError("operator is not unitary on the layout")
        return cls((u,), layout, layout)

    @classmethod
    def depolarizing(cls, layout: SystemLayout, keep_prob: float) -> "Channel":
        """rho -> keep_prob * rho + (1 - keep_prob) * I/d on the whole layout."""
        if not 0.0 <= keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in [0, 1], got {keep_prob}")
        d = layout.total_dim
        ks: list[np.ndarray] = []
        if keep_prob > 1e-15:
            ks.append(math.sqrt(keep_prob) * np.eye(d, dtype=complex))
        w = (1.0 - keep_prob) / d
        if w > 1e-15:
            for i in range(d):
                for j in range(d):
                    e = np.zeros((d, d), dtype=complex)
                    e[i, j] = math.sqrt(w)
                    ks.append(e)
        return cls(tuple(ks), layout, layout)

    # -- algebra

    def completeness(self) -> np.ndarray:
        acc = np.zeros((self.input_layout.total_dim,) * 2, dtype=complex)
        for k in self.kraus:
            acc += k.conj().T @ k
        return acc

    def is_trace_preserving(self, tol: float = TP_TOL) -> bool:
        d = self.input_layout.total_dim
        return bool(np.max(np.abs(self.completeness() - np.eye(d))) <= tol)

    def then(self, other: "Channel") -> "Channel":
        """Composition other(self(rho))."""
        if other.input_layout.dims != self.output_layout.dims:
            raise LayoutMismatchError("channel composition dims do not chain")
        ks = tuple(k2 @ k1 for k2 in other.kraus for k1 in self.kraus)
        return Channel(ks, self.input_layout, other.output_layout)

    def tensor(self, other: "Channel") -> "Channel":
        ks = tuple(np.kron(a, b) for a in self.kraus for b in other.kraus)
        return Channel(
            ks,
            self.input_layout + other.input_layout,
            self.output_layout + other.output_layout,
        )

    def choi(self) -> np.ndarray:
        """Choi matrix in a fixed row-major vec convention, for map equality tests."""
        vecs = [k.reshape(-1) for k in self.kraus]
        d = len(vecs[0])
        acc = np.zeros((d, d), dtype=complex)
        for v in vecs:
            acc += np.outer(v, v.conj())
        return acc


def apply(channel: Channel, state: QState) -> QState:
    """Apply a trace-preserving channel to a state on the matching layout."""
    if channel.input_layout != state.layout:
        raise LayoutMismatchError(
            f"channel input {channel.input_layout!r} != state layout {state.layout!r}"
        )
    if not channel.is_trace_preserving():
        raise ValueError("apply() requires a trace-preserving channel")
    acc = np.zeros((channel.output_layout.total_dim,) * 2, dtype=complex)
    for k in channel.kraus:
        acc += k @ state.matrix @ k.conj().T
    return QState(channel.output_layout, acc)


def apply_to_factors(channel: Channel, state: QState, factors: Sequence[int]) -> QState:
    """Apply a layout-preserving channel to a subset of factors (any order).

    This is raw CP-map plumbing with dimension checks only; it does not
    certify locality.
    """
    factors = tuple(int(i) for i in factors)
    sub_dims = tuple(state.layout.dims[i] for i in factors)
    if channel.input_layout.dims != sub_dims or channel.output_layout.dims != sub_dims:
        raise LayoutMismatchError(
            f"channel dims {channel.input_layout.dims} do not match factors {factors}"
        )
    if not channel.is_trace_preserving():
        raise ValueError("apply_to_factors() requires a trace-preserving channel")
    dims = state.layout.dims
    t = _contract(state.matrix.reshape(dims + dims), channel.kraus, factors)
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

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("instrument needs at least one outcome")
        labels = [lab for lab, _ in self.outcomes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate outcome labels in {labels}")
        layouts = {(ch.input_layout, ch.output_layout) for _, ch in self.outcomes}
        if len(layouts) != 1:
            raise LayoutMismatchError("all instrument outcomes must share one layout")
        din = self.input_layout.total_dim
        total = np.zeros((din, din), dtype=complex)
        for lab, ch in self.outcomes:
            comp = ch.completeness()
            top = float(np.linalg.eigvalsh(comp)[-1])
            if top > 1.0 + TP_TOL:
                raise ValueError(f"outcome {lab!r} is not trace-non-increasing ({top})")
            total += comp
        if np.max(np.abs(total - np.eye(din))) > TP_TOL:
            raise ValueError("instrument outcomes do not sum to a trace-preserving map")

    @classmethod
    def from_kraus(
        cls, layout: SystemLayout, outcomes: Sequence[tuple[str, Sequence[np.ndarray]]]
    ) -> "Instrument":
        return cls(tuple((lab, Channel(tuple(ks), layout, layout)) for lab, ks in outcomes))

    @property
    def input_layout(self) -> SystemLayout:
        return self.outcomes[0][1].input_layout

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.outcomes)


def instrument_apply(
    instrument: Instrument, state: QState
) -> list[tuple[str, float, QState | None]]:
    """Outcome branches as (label, probability, normalized post-state or None)."""
    if instrument.input_layout != state.layout:
        raise LayoutMismatchError("instrument layout does not match state")
    branches = []
    for lab, ch in instrument.outcomes:
        acc = np.zeros((ch.output_layout.total_dim,) * 2, dtype=complex)
        for k in ch.kraus:
            acc += k @ state.matrix @ k.conj().T
        p = float(acc.trace().real)
        post = QState(ch.output_layout, acc / p) if p > 1e-12 else None
        branches.append((lab, p, post))
    return branches


# ---------------------------------------------------------------------------
# protocol steps


@dataclass(frozen=True, eq=False)
class LocalChannel:
    party: int
    factors: tuple[int, ...]
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(i) for i in self.factors))
        object.__setattr__(self, "kraus", _readonly(self.kraus))


@dataclass(frozen=True, eq=False)
class LocalInstrument:
    party: int
    factors: tuple[int, ...]
    instrument: Instrument
    # continuation steps per outcome label, run before the next top-level step
    cases: tuple[tuple[str, tuple["Step", ...]], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(i) for i in self.factors))
        object.__setattr__(
            self,
            "cases",
            tuple((str(lab), tuple(steps)) for lab, steps in self.cases),
        )

    def case_map(self) -> dict[str, tuple["Step", ...]]:
        return dict(self.cases)


@dataclass(frozen=True, eq=False)
class RegisterControlled:
    register: int
    branches: tuple[tuple["Step", ...], ...]
    updates: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "register", int(self.register))
        object.__setattr__(self, "branches", tuple(tuple(b) for b in self.branches))
        object.__setattr__(self, "updates", tuple(int(u) for u in self.updates))


Step = LocalChannel | LocalInstrument | RegisterControlled


def _touched(steps: Sequence[Step]) -> set[int]:
    out: set[int] = set()
    for s in steps:
        if isinstance(s, LocalChannel):
            out |= set(s.factors)
        elif isinstance(s, LocalInstrument):
            out |= set(s.factors)
            for _, cont in s.cases:
                out |= _touched(cont)
        elif isinstance(s, RegisterControlled):
            out.add(s.register)
            for b in s.branches:
                out |= _touched(b)
        else:
            raise TypeError(f"unknown step {type(s).__name__}")
    return out


def _check_factors(layout: SystemLayout, party: int, factors: tuple[int, ...]) -> None:
    if len(set(factors)) != len(factors):
        raise ValueError(f"repeated factor indices {factors}")
    for i in factors:
        if not 0 <= i < len(layout):
            raise LayoutMismatchError(f"factor index {i} out of range")
        if layout[i].party != party:
            raise LocalityError(
                f"party {party} cannot act on factor {i} owned by party {layout[i].party}"
            )


def _validate_steps(layout: SystemLayout, steps: Sequence[Step]) -> None:
    for s in steps:
        if isinstance(s, LocalChannel):
            _check_factors(layout, s.party, s.factors)
            d = int(np.prod([layout[i].dim for i in s.factors]))
            comp = np.zeros((d, d), dtype=complex)
            for k in s.kraus:
                if k.shape != (d, d):
                    raise LayoutMismatchError(
                        f"local Kraus shape {k.shape} != ({d}, {d}) on factors {s.factors}"
                    )
                comp += k.conj().T @ k
            if np.max(np.abs(comp - np.eye(d))) > TP_TOL:
                raise ValueError("local channel step must be trace-preserving")
        elif isinstance(s, LocalInstrument):
            _check_factors(layout, s.party, s.factors)
            sub_dims = tuple(layout[i].dim for i in s.factors)
            if s.instrument.input_layout.dims != sub_dims:
                raise LayoutMismatchError(
                    f"instrument dims {s.instrument.input_layout.dims} != factors {sub_dims}"
                )
            labels = set(s.instrument.labels)
            for lab, cont in s.cases:
                if lab not in labels:
                    raise ValueError(f"case label {lab!r} is not an instrument outcome")
                _validate_steps(layout, cont)
        elif isinstance(s, RegisterControlled):
            if not 0 <= s.register < len(layout):
                raise LayoutMismatchError(f"register index {s.register} out of range")
            reg_dim = layout[s.register].dim
            if len(s.branches) != reg_dim:
                raise LayoutMismatchError(
                    f"register dim {reg_dim} needs {reg_dim} branches, got {len(s.branches)}"
                )
            if len(s.updates) != reg_dim or any(not 0 <= u < reg_dim for u in s.updates):
                raise ValueError(f"register updates {s.updates} invalid for dim {reg_dim}")
            for b in s.branches:
                _validate_steps(layout, b)
                if s.register in _touched(b):
                    raise LocalityError("controlled branches must not touch the register")
        else:
            raise TypeError(f"unknown step {type(s).__name__}")


# ---------------------------------------------------------------------------
# protocols


class LoccProtocol:
    """Validated step sequence with terminal discard and relabeling."""

    __slots__ = ("input_layout", "steps", "discard", "relabel", "classical_factors")

    def __init__(
        self,
        input_layout: SystemLayout,
        steps: Sequence[Step] = (),
        *,
        discard: Sequence[int] = (),
        relabel: Sequence[int] | None = None,
        classical_factors: Sequence[int] = (),
    ):
        self.input_layout = input_layout
        self.steps = tuple(steps)
        _validate_steps(input_layout, self.steps)
        self.discard = tuple(sorted(set(int(i) for i in discard)))
        for i in self.discard:
            if not 0 <= i < len(input_layout):
                raise LayoutMismatchError(f"discard index {i} out of range")
        if len(self.discard) == len(input_layout):
            raise ValueError("cannot discard every factor")
        self.classical_factors = tuple(sorted(set(int(i) for i in classical_factors)))
        for i in self.classical_factors:
            if not 0 <= i < len(input_layout):
                raise LayoutMismatchError(f"classical factor index {i} out of range")
        kept = [i for i in range(len(input_layout)) if i not in self.discard]
        if relabel is not None:
            relabel = tuple(int(i) for i in relabel)
            if sorted(relabel) != list(range(len(kept))):
                raise ValueError(f"relabel {relabel} is not a permutation of kept factors")
        self.relabel = relabel

    def output_layout(self, *, keep_classical: bool = True) -> SystemLayout:
        drop = set(self.discard)
        if not keep_classical:
            drop |= set(self.classical_factors)
        kept = [i for i in range(len(self.input_layout)) if i not in drop]
        if not kept:
            raise ValueError("no factors left after discarding classical registers")
        if self.relabel is not None and not keep_classical:
            raise ValueError("cannot relabel after discarding classical registers")
        layout = self.input_layout.subset(kept)
        if self.relabel is not None:
            layout = layout.subset(self.relabel)
        return layout

    def __repr__(self) -> str:
        return (
            f"LoccProtocol({self.input_layout!r}, {len(self.steps)} steps, "
            f"discard={self.discard})"
        )


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
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if u.shape != (d, d) or np.max(np.abs(u.conj().T @ u - np.eye(d))) > TP_TOL:
        raise ValueError("operator is not unitary")
    return local_channel(layout, party, factors, (u,))


def local_instrument(
    layout: SystemLayout,
    party: int,
    factors: Sequence[int],
    outcomes: Instrument | Sequence[tuple[str, Sequence[np.ndarray]]],
    cases: Mapping[str, Sequence[Step]] | None = None,
) -> LocalInstrument:
    factors = tuple(factors)
    if isinstance(outcomes, Instrument):
        inst = outcomes
    else:
        sub = layout.subset(factors)
        inst = Instrument.from_kraus(sub, outcomes)
    case_items = tuple((lab, tuple(steps)) for lab, steps in (cases or {}).items())
    step = LocalInstrument(party, factors, inst, case_items)
    _validate_steps(layout, (step,))
    return step


def perm_unitary(dims: Sequence[int], src: Sequence[int]) -> np.ndarray:
    """Permutation unitary: after applying, factor t holds what factor src[t] held."""
    dims = tuple(int(d) for d in dims)
    src = tuple(int(i) for i in src)
    if sorted(src) != list(range(len(dims))):
        raise ValueError(f"src {src} is not a permutation")
    for t, s in enumerate(src):
        if dims[t] != dims[s]:
            raise LayoutMismatchError(f"cannot move dim {dims[s]} into slot of dim {dims[t]}")
    d = int(np.prod(dims))
    multis = np.unravel_index(np.arange(d), dims)
    pos = np.ravel_multi_index([multis[s] for s in src], dims)
    p = np.zeros((d, d), dtype=complex)
    p[pos, np.arange(d)] = 1.0
    return p


def _reorder_matrix(dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Permutation matrix sending factor order[t] of ``dims`` into slot t."""
    dims = tuple(int(d) for d in dims)
    d = int(np.prod(dims))
    multis = np.unravel_index(np.arange(d), dims)
    pos = np.ravel_multi_index([multis[i] for i in order], [dims[i] for i in order])
    p = np.zeros((d, d), dtype=complex)
    p[pos, np.arange(d)] = 1.0
    return p


def swap_factors(layout: SystemLayout, i, j) -> LoccProtocol:
    """Protocol of per-party local unitaries exchanging two factor groups.

    ``i`` and ``j`` are a factor index or a tuple of factor indices with
    positionally identical (party, dim) profiles, e.g. two copies of a
    bipartite system.  Each involved party swaps its own halves, so the
    protocol is manifestly local.
    """
    gi = (i,) if isinstance(i, int) else tuple(int(x) for x in i)
    gj = (j,) if isinstance(j, int) else tuple(int(x) for x in j)
    if len(gi) != len(gj):
        raise LayoutMismatchError(f"groups {gi} and {gj} differ in length")
    if set(gi) & set(gj):
        raise ValueError(f"groups {gi} and {gj} overlap")
    for a, b in zip(gi, gj):
        if layout[a] != layout[b]:
            raise LayoutMismatchError(
                f"factor {a} {layout[a]} does not match factor {b} {layout[b]}"
            )
    steps = []
    for party in sorted({layout[a].party for a in gi}):
        ia = [a for a in gi if layout[a].party == party]
        ja = [b for b in gj if layout[b].party == party]
        sel = tuple(ia + ja)
        m = len(ia)
        src = list(range(m, 2 * m)) + list(range(m))
        u = perm_unitary([layout[a].dim for a in sel], src)
        steps.append(local_channel(layout, party, sel, (u,)))
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
        if b.discard or b.relabel is not None:
            raise ValueError("branch protocols must not discard or relabel factors")
    if not 0 <= register < len(layout):
        raise LayoutMismatchError(f"register index {register} out of range")
    if layout[register].dim != len(branches):
        raise LayoutMismatchError(
            f"register dim {layout[register].dim} != number of branches {len(branches)}"
        )
    if updates is None:
        updates = tuple(range(len(branches)))
    step = RegisterControlled(register, tuple(b.steps for b in branches), tuple(updates))
    return LoccProtocol(layout, (step,), classical_factors=(register,))


def embed_protocol(
    protocol: LoccProtocol, target_layout: SystemLayout, factor_map: Sequence[int]
) -> LoccProtocol:
    """Re-index a protocol onto a larger layout via an injective factor map."""
    fmap = tuple(int(i) for i in factor_map)
    if len(fmap) != len(protocol.input_layout) or len(set(fmap)) != len(fmap):
        raise LayoutMismatchError("factor map must assign each factor a distinct target")
    for old, new in enumerate(fmap):
        if not 0 <= new < len(target_layout):
            raise LayoutMismatchError(f"target index {new} out of range")
        if protocol.input_layout[old] != target_layout[new]:
            raise LayoutMismatchError(
                f"factor {old} {protocol.input_layout[old]} cannot map onto "
                f"{new} {target_layout[new]}"
            )
    if protocol.discard or protocol.relabel is not None:
        raise ValueError("cannot embed a protocol with terminal discard or relabeling")
    return LoccProtocol(
        target_layout,
        _remap_steps(protocol.steps, fmap),
        classical_factors=tuple(fmap[i] for i in protocol.classical_factors),
    )


def tensor_protocols(first: LoccProtocol, second: LoccProtocol) -> LoccProtocol:
    """Run two protocols side by side: ``first`` on the leading factors.

    Each side keeps its own discard and relabeling; the output layout is
    ``first``'s output followed by ``second``'s.
    """
    f1 = len(first.input_layout)
    f2 = len(second.input_layout)
    kept1 = f1 - len(first.discard)
    relabel = None
    if first.relabel is not None or second.relabel is not None:
        r1 = first.relabel if first.relabel is not None else range(kept1)
        r2 = second.relabel if second.relabel is not None else range(f2 - len(second.discard))
        relabel = tuple(r1) + tuple(kept1 + j for j in r2)
    return LoccProtocol(
        first.input_layout + second.input_layout,
        first.steps + _remap_steps(second.steps, range(f1, f1 + f2)),
        discard=first.discard + tuple(f1 + i for i in second.discard),
        relabel=relabel,
        classical_factors=first.classical_factors
        + tuple(f1 + i for i in second.classical_factors),
    )


def _remap_steps(steps: Sequence[Step], fmap: Sequence[int]) -> tuple[Step, ...]:
    """Re-index steps through ``fmap`` (old factor index -> new index)."""
    out = []
    for s in steps:
        if isinstance(s, LocalChannel):
            out.append(LocalChannel(s.party, tuple(fmap[i] for i in s.factors), s.kraus))
        elif isinstance(s, LocalInstrument):
            out.append(
                LocalInstrument(
                    s.party,
                    tuple(fmap[i] for i in s.factors),
                    s.instrument,
                    tuple((lab, _remap_steps(cont, fmap)) for lab, cont in s.cases),
                )
            )
        else:
            out.append(
                RegisterControlled(
                    fmap[s.register],
                    tuple(_remap_steps(b, fmap) for b in s.branches),
                    s.updates,
                )
            )
    return tuple(out)


# ---------------------------------------------------------------------------
# step executor


def _contract(t: np.ndarray, kraus: Sequence[np.ndarray], axes: Sequence[int]) -> np.ndarray:
    """sum_k K t K^dag on a density tensor t of shape dims + dims.

    Each K acts on the factors ``axes`` (in that order) and is contracted
    with those row and column axes only.
    """
    n = t.ndim // 2
    m = len(axes)
    sub = tuple(t.shape[a] for a in axes)
    rows = tuple(axes)
    cols = tuple(n + a for a in axes)
    ins = tuple(range(m, 2 * m))
    acc = None
    for k in kraus:
        kt = k.reshape(sub + sub)
        y = np.moveaxis(np.tensordot(kt, t, axes=(ins, rows)), range(m), rows)
        y = np.tensordot(y, kt.conj(), axes=(cols, ins))
        y = np.moveaxis(y, range(2 * n - m, 2 * n), cols)
        acc = y if acc is None else acc + y
    return acc


def _register_block(n: int, register: int, value: int) -> tuple[slice, ...]:
    """Index of the diagonal block where the register holds ``value``."""
    idx = [slice(None)] * (2 * n)
    idx[register] = idx[n + register] = slice(value, value + 1)
    return tuple(idx)


def _run_steps(steps: Sequence[Step], t: np.ndarray) -> np.ndarray:
    for s in steps:
        if isinstance(s, LocalChannel):
            t = _contract(t, s.kraus, s.factors)
        elif isinstance(s, LocalInstrument):
            cases = s.case_map()
            t = sum(
                _run_steps(cases.get(lab, ()), _contract(t, ch.kraus, s.factors))
                for lab, ch in s.instrument.outcomes
            )
        elif isinstance(s, RegisterControlled):
            # branches never touch the register, so a size-1 slice of its
            # axis keeps every factor index of the branch valid
            n = t.ndim // 2
            out = np.zeros(t.shape, dtype=complex)
            for k, branch in enumerate(s.branches):
                block = _run_steps(branch, t[_register_block(n, s.register, k)])
                out[_register_block(n, s.register, s.updates[k])] += block
            t = out
        else:
            raise TypeError(f"unknown step {type(s).__name__}")
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
    if protocol.discard:
        keep = [i for i in range(len(dims)) if i not in protocol.discard]
        out = _reduce_matrix(out, dims, keep)
        dims = tuple(dims[i] for i in keep)
    if protocol.relabel is not None:
        out = _permute_matrix(out, dims, protocol.relabel)
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
    dims = layout.dims
    n = len(dims)
    sel = list(factors)
    rest = [i for i in range(n) if i not in set(sel)]
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    full = np.kron(k, np.eye(d_rest, dtype=complex))
    order = sel + rest
    d = layout.total_dim
    multis = np.unravel_index(np.arange(d), dims)
    pos = np.ravel_multi_index([multis[i] for i in order], [dims[i] for i in order])
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
            cases = s.case_map()
            for lab, ch in s.instrument.outcomes:
                cont_ops = _steps_kraus(layout, cases.get(lab, ()))
                for m in ch.kraus:
                    me = _embed_operator(layout, s.factors, m)
                    for b in cont_ops:
                        new.extend(b @ me @ op for op in ops)
        elif isinstance(s, RegisterControlled):
            reg_dim = layout[s.register].dim
            for k, branch in enumerate(s.branches):
                sel = np.zeros((reg_dim, reg_dim), dtype=complex)
                sel[s.updates[k], k] = 1.0
                sele = _embed_operator(layout, (s.register,), sel)
                branch_ops = _steps_kraus(layout, branch)
                for b in branch_ops:
                    new.extend(b @ sele @ op for op in ops)
        else:
            raise TypeError(f"unknown step {type(s).__name__}")
        if len(new) > KRAUS_CAP:
            raise RuntimeError(f"flattened Kraus count exceeds {KRAUS_CAP}")
        ops = new
    return ops


def flatten(protocol: LoccProtocol, *, keep_classical: bool = True) -> Channel:
    """Compose a protocol into a single trace-preserving channel.

    This is the Kraus-form export and the reference oracle for
    ``run_protocol``; its Kraus count, the product of the step counts,
    is capped at ``KRAUS_CAP``.
    """
    layout = protocol.input_layout
    ops = _steps_kraus(layout, protocol.steps)
    drop = set(protocol.discard)
    if not keep_classical:
        drop |= set(protocol.classical_factors)
    if drop:
        kept = [i for i in range(len(layout)) if i not in drop]
        if not kept:
            raise ValueError("no factors left after discarding")
        dims = layout.dims
        d = layout.total_dim
        d_drop = int(np.prod([dims[i] for i in sorted(drop)]))
        multis = np.unravel_index(np.arange(d), dims)
        order = kept + sorted(drop)
        pos = np.ravel_multi_index([multis[i] for i in order], [dims[i] for i in order])
        traces = []
        for j in range(d_drop):
            cols = np.where(pos % d_drop == j)[0]
            v = np.zeros((d // d_drop, d), dtype=complex)
            v[pos[cols] // d_drop, cols] = 1.0
            traces.append(v)
        ops = [v @ op for v in traces for op in ops]
        out_layout = layout.subset(kept)
    else:
        out_layout = layout
    if protocol.relabel is not None and keep_classical:
        r = _reorder_matrix(out_layout.dims, protocol.relabel)
        ops = [r @ op for op in ops]
        out_layout = out_layout.subset(protocol.relabel)
    elif protocol.relabel is not None:
        raise ValueError("cannot relabel after discarding classical registers")
    ops = [op for op in ops if np.any(op)]
    chan = Channel(tuple(ops), layout, out_layout)
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
        cases = step.case_map()
        return {
            "type": "instrument",
            "party": step.party,
            "factors": list(step.factors),
            "outcomes": [
                {
                    "label": lab,
                    "kraus": [_io.encode_matrix(k) for k in ch.kraus],
                    "then": [_encode_step(t) for t in cases[lab]] if lab in cases else None,
                }
                for lab, ch in step.instrument.outcomes
            ],
        }
    if isinstance(step, RegisterControlled):
        return {
            "type": "controlled",
            "register": step.register,
            "updates": list(step.updates),
            "branches": [[_encode_step(t) for t in b] for b in step.branches],
        }
    raise TypeError(f"unknown step {type(step).__name__}")


def _decode_step(doc: dict, layout: SystemLayout) -> Step:
    # nested steps are decoded outside the parsing block, so their domain
    # errors (say, an incomplete instrument) keep their own types
    with _io.parsing("protocol step"):
        kind = doc["type"]
        if kind == "channel":
            return LocalChannel(
                int(doc["party"]),
                tuple(int(i) for i in doc["factors"]),
                tuple(_io.decode_matrix(k) for k in doc["kraus"]),
            )
        if kind == "instrument":
            party = int(doc["party"])
            factors = tuple(int(i) for i in doc["factors"])
            outcomes = [
                (str(o["label"]), tuple(_io.decode_matrix(k) for k in o["kraus"]))
                for o in doc["outcomes"]
            ]
            then = [
                (str(o["label"]), list(o["then"]))
                for o in doc["outcomes"]
                if o.get("then") is not None
            ]
        elif kind == "controlled":
            register = int(doc["register"])
            branches = [list(b) for b in doc["branches"]]
            updates = tuple(int(u) for u in doc["updates"])
        else:
            raise DocumentError(f"unknown step type {kind!r}")
    if kind == "controlled":
        return RegisterControlled(
            register,
            tuple(tuple(_decode_step(t, layout) for t in b) for b in branches),
            updates,
        )
    cases = tuple((lab, tuple(_decode_step(t, layout) for t in steps)) for lab, steps in then)
    for i in factors:
        if not 0 <= i < len(layout):
            raise LayoutMismatchError(f"factor index {i} out of range")
    inst = Instrument.from_kraus(layout.subset(factors), outcomes)
    return LocalInstrument(party, factors, inst, cases)


def protocol_to_dict(protocol: LoccProtocol) -> dict:
    return {
        "format": PROTOCOL_FORMAT,
        "factors": [[f.party, f.dim] for f in protocol.input_layout],
        "steps": [_encode_step(s) for s in protocol.steps],
        "discard": list(protocol.discard),
        "relabel": list(protocol.relabel) if protocol.relabel is not None else None,
        "classical_factors": list(protocol.classical_factors),
    }


def protocol_from_dict(doc: dict) -> LoccProtocol:
    _io.check_format(doc, PROTOCOL_FORMAT, "protocol")
    with _io.parsing("protocol"):
        layout = SystemLayout([(int(p), int(d)) for p, d in doc["factors"]])
        step_docs = list(doc["steps"])
        discard = tuple(int(i) for i in doc.get("discard") or ())
        relabel = doc.get("relabel")
        relabel = tuple(int(i) for i in relabel) if relabel is not None else None
        classical = tuple(int(i) for i in doc.get("classical_factors") or ())
    steps = tuple(_decode_step(s, layout) for s in step_docs)
    return LoccProtocol(
        layout, steps, discard=discard, relabel=relabel, classical_factors=classical
    )


def save_protocol(protocol: LoccProtocol, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(protocol_to_dict(protocol), fh, indent=1)
        fh.write("\n")


def load_protocol(path) -> LoccProtocol:
    with open(path, "r", encoding="utf-8") as fh:
        return protocol_from_dict(json.load(fh))
