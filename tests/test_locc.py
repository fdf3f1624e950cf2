import math
import re
import tracemalloc

import numpy as np
import pytest

from catent import locc
from catent.errors import DimensionCapError, DocumentError, LayoutMismatchError, LocalityError
from catent.locc import (
    Channel,
    Instrument,
    LocalChannel,
    LocalInstrument,
    LoccProtocol,
    RegisterControlled,
    apply,
    apply_to_factors,
    controlled_on_register,
    embed_protocol,
    flatten,
    identity_protocol,
    local_channel,
    local_instrument,
    local_unitary,
    perm_unitary,
    permute_protocol,
    protocol_from_dict,
    run_protocol,
    protocol_to_dict,
    save_protocol,
    load_protocol,
    teleport_channel,
    tensor_protocols,
)
from catent.qstate import (
    SystemLayout,
    basis_state,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    permute_factors,
    pure_state,
    random_state,
    singlet,
    tensor,
    trace_norm_dist,
)
from test_qstate import run_under_1gib

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)

Q0 = SystemLayout([(0, 2)])
PAIR = SystemLayout([(0, 2), (1, 2)])


# ---------------------------------------------------------------------------
# channels


def test_identity_channel():
    s = random_state(PAIR, "ginibre_mixed", seed=0)
    out = apply(Channel.identity(PAIR), s)
    assert np.max(np.abs(out.matrix - s.matrix)) < 1e-14


def test_depolarizing_matches_formula():
    # oracle: the action must be p*rho + (1-p)*I/d regardless of Kraus form
    for p in (0.0, 0.3, 1.0):
        ch = Channel.depolarizing(Q0, p)
        assert ch.is_trace_preserving()
        s = random_state(Q0, "ginibre_mixed", seed=11)
        want = p * s.matrix + (1.0 - p) * np.eye(2) / 2.0
        assert np.max(np.abs(apply(ch, s).matrix - want)) < 1e-12
    with pytest.raises(ValueError):
        Channel.depolarizing(Q0, 1.5)


def test_depolarizing_choi_vs_pauli_form():
    # independent representation: (1-q) rho + q/3 (X rho X + Y rho Y + Z rho Z)
    p = 0.4
    q = 3.0 * (1.0 - p) / 4.0
    pauli = Channel(
        (
            math.sqrt(1.0 - q) * np.eye(2, dtype=complex),
            math.sqrt(q / 3.0) * X,
            math.sqrt(q / 3.0) * Y,
            math.sqrt(q / 3.0) * Z,
        ),
        Q0,
        Q0,
    )
    assert np.max(np.abs(pauli.choi() - Channel.depolarizing(Q0, p).choi())) < 1e-12


# the per-operator forms the stacked Channel methods replaced, kept as oracles


def _loop_completeness(ch):
    acc = np.zeros((ch.input_layout.total_dim,) * 2, dtype=complex)
    for k in ch.kraus:
        acc += k.conj().T @ k
    return acc


def _outer_product_choi(ch):
    vecs = [k.reshape(-1) for k in ch.kraus]
    acc = np.zeros((len(vecs[0]),) * 2, dtype=complex)
    for v in vecs:
        acc += np.outer(v, v.conj())
    return acc


def _pairwise_then(first, second):
    ks = tuple(k2 @ k1 for k2 in second.kraus for k1 in first.kraus)
    return Channel(ks, first.input_layout, second.output_layout)


def _matrix_unit_depolarizing(d, keep_prob):
    ks = []
    if keep_prob > 1e-15:
        ks.append(math.sqrt(keep_prob) * np.eye(d, dtype=complex))
    w = (1.0 - keep_prob) / d
    if w > 1e-15:
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = math.sqrt(w)
                ks.append(e)
    return np.array(ks)


def _random_cp_map(rng, din, dout):
    """CP map din -> dout with 1-3 Gaussian Kraus operators, not trace-preserving."""
    shape = (int(rng.integers(1, 4)), dout, din)
    ks = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 2
    return Channel(tuple(ks), SystemLayout([(0, din)]), SystemLayout([(0, dout)]))


@pytest.mark.parametrize("seed", range(8))
def test_stacked_channel_algebra_matches_per_operator_forms(seed):
    rng = np.random.default_rng(seed)
    d0, d1, d2 = (int(x) for x in rng.integers(1, 5, size=3))
    first, second = _random_cp_map(rng, d0, d1), _random_cp_map(rng, d1, d2)
    for ch in (first, second):
        assert np.max(np.abs(ch.completeness() - _loop_completeness(ch))) <= 1e-12
        assert np.max(np.abs(ch.choi() - _outer_product_choi(ch))) <= 1e-12
    got, want = first.then(second), _pairwise_then(first, second)
    assert (got.input_layout, got.output_layout) == (want.input_layout, want.output_layout)
    assert got._stack.shape == want._stack.shape
    assert np.max(np.abs(got._stack - want._stack)) <= 1e-12
    # a float64 stack's completeness is the conjugate form's, bit for bit,
    # and allocates its result only: the stack is not copied
    real = rng.standard_normal((300, 2, d1, d0))
    tracemalloc.start()
    try:
        comps = locc._completeness(real, d0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    a = real.reshape(300, -1, d0)
    assert comps.dtype == np.float64 and peak < comps.nbytes + 4096
    assert comps.tobytes() == (np.conjugate(a).transpose(0, 2, 1) @ a).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("keep_prob", [0.0, 0.3, 1.0])
def test_depolarizing_stack_is_the_matrix_unit_set(d, keep_prob):
    got = Channel.depolarizing(SystemLayout([(0, d)]), keep_prob)._stack
    want = _matrix_unit_depolarizing(d, keep_prob)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


_PAST_THE_CAPS = """
import tracemalloc
import numpy as np
from catent.locc import Channel, teleport_channel
from catent.qstate import SystemLayout


def dep(d):
    return Channel.depolarizing(SystemLayout([(0, d)]), 0.5)


def zeros(k, rows, cols):
    return Channel(np.zeros((k, rows, cols)), SystemLayout([(0, cols)]), SystemLayout([(0, rows)]))


d16, d32 = dep(16), dep(32)
wide, tall = zeros(65, 1, 64), zeros(65, 64, 1)
i64, i128 = Channel.identity(SystemLayout([(0, 64)])), Channel.identity(SystemLayout([(0, 128)]))
cases = {
    "depolarizing-65": lambda: dep(65),
    "depolarizing-4096": lambda: dep(4096),
    "teleport-128": lambda: teleport_channel(0.5, 128),
    "then-kraus": lambda: d32.then(d32),
    "then-entries": lambda: wide.then(tall),
    "tensor-16x16": lambda: d16.tensor(d16),
    "tensor-layout": lambda: i64.tensor(i128),
}
for name, build in cases.items():
    tracemalloc.start()
    try:
        build()
        print(name, "built")
    except Exception as exc:
        print(name, type(exc).__name__, tracemalloc.get_traced_memory()[1], exc)
    finally:
        tracemalloc.stop()
"""


def test_channels_past_the_caps_are_refused_before_allocating():
    # each built its Kraus stack first: depolarizing(4096) and the 16 x 16
    # tensor raised numpy's untyped MemoryError (4.00 PiB, 64.5 GiB), and
    # depolarizing(128) asked for two 4 GiB arrays
    past = "exceed 65536 operators or 4096^2 entries"
    want = {
        "depolarizing-65": f"4225 Kraus operators of 4225 entries {past}",
        "depolarizing-4096": f"16777216 Kraus operators of 16777216 entries {past}",
        "teleport-128": f"16384 Kraus operators of 16384 entries {past}",
        "then-kraus": f"1050625 Kraus operators of 1024 entries {past}",
        "then-entries": f"4225 Kraus operators of 4096 entries {past}",
        "tensor-16x16": f"66049 Kraus operators of 65536 entries {past}",
        "tensor-layout": "layout dimension 8192 exceeds cap 4096",
    }
    got = {}
    for line in run_under_1gib(_PAST_THE_CAPS):
        name, _, outcome = line.partition(" ")
        assert outcome.startswith("DimensionCapError "), line
        _, peak, message = outcome.split(" ", 2)
        assert int(peak) < 2**20, line
        got[name] = message
    assert got == want
    # d = 64 is inside the cap: its 4096 matrix units hold 4096^2 entries
    locc._check_product(64 * 64, 64 * 64)


def test_unitary_constructors_reject_non_unitary_and_non_square():
    for bad in (0.9 * X, X + Z):
        with pytest.raises(ValueError, match="unitary"):
            Channel.from_unitary(bad, Q0)
        with pytest.raises(ValueError, match="trace-preserving"):
            local_unitary(PAIR, 0, (0,), bad)
    for bad in (np.ones((2, 3)), np.eye(3), np.ones(2)):
        with pytest.raises(LayoutMismatchError):
            Channel.from_unitary(bad, Q0)
        with pytest.raises(LayoutMismatchError):
            local_unitary(PAIR, 0, (0,), bad)
    assert Channel.from_unitary(Y, Q0).kraus[0].tobytes() == Y.tobytes()
    assert local_unitary(PAIR, 0, (0,), Y).kraus[0].tobytes() == Y.tobytes()


def test_channel_then_and_tensor():
    u = Channel.from_unitary(X, Q0)
    v = Channel.from_unitary(Z, Q0)
    s = random_state(Q0, "ginibre_mixed", seed=5)
    seq = apply(u.then(v), s)
    two = apply(v, apply(u, s))
    assert np.max(np.abs(seq.matrix - two.matrix)) < 1e-13
    t = u.tensor(Channel.from_unitary(Z, SystemLayout([(1, 2)])))
    prod = tensor(s, random_state(SystemLayout([(1, 2)]), "ginibre_mixed", seed=6))
    got = apply(t, prod)
    want = np.kron(X, Z) @ prod.matrix @ np.kron(X, Z).conj().T
    assert np.max(np.abs(got.matrix - want)) < 1e-13


def test_apply_checks():
    ch = Channel.from_unitary(X, Q0)
    with pytest.raises(LayoutMismatchError,
                       match=re.escape("channel input SystemLayout(0:2) != state layout")):
        apply(ch, singlet())
    leaky = Channel((0.5 * np.eye(2, dtype=complex),), Q0, Q0)
    with pytest.raises(ValueError, match=re.escape("apply() requires a trace-preserving")) as err:
        apply(leaky, maximally_mixed(Q0))
    assert type(err.value) is ValueError



_LEAKY = Channel((0.5 * X,), Q0, Q0)
_DEPHASE = local_channel(Q0, 0, (0,), (np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * Z))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: Channel((), Q0, Q0), ValueError, "channel needs at least one Kraus operator"),
        (lambda: Channel.identity(Q0).then(Channel.identity(PAIR)), LayoutMismatchError,
         "channel composition dims do not chain"),
        (lambda: apply_to_factors(Channel.identity(Q0), singlet(), (0, 1)), LayoutMismatchError,
         "channel dims (2,) do not match factors (0, 1)"),
        (lambda: apply_to_factors(_LEAKY, singlet(), (0,)), ValueError,
         "apply_to_factors() requires a trace-preserving channel"),
        (lambda: teleport_channel(0.9, 1), ValueError, "dim must be >= 2, got 1"),
        (lambda: Instrument(()), ValueError, "instrument needs at least one outcome"),
        (lambda: controlled_on_register(0, []), ValueError, "need at least one branch"),
        (lambda: controlled_on_register(0, [identity_protocol(PAIR), identity_protocol(Q0)]),
         LayoutMismatchError, "all branches must share the control layout"),
        (lambda: controlled_on_register(0, [LoccProtocol(PAIR, keep=(1, 0))] * 2), ValueError,
         "branch protocols must keep every factor in place"),
        (lambda: embed_protocol(identity_protocol(Q0), PAIR, (2,)), LayoutMismatchError,
         "factor index 2 out of range for SystemLayout(0:2, 1:2)"),
        (lambda: run_protocol(identity_protocol(PAIR), maximally_mixed(Q0)), LayoutMismatchError,
         "protocol input SystemLayout(0:2, 1:2) != state layout SystemLayout(0:2)"),
        # validation is the one place an unknown step is refused
        (lambda: LoccProtocol(PAIR, [object()]), TypeError, "unknown step object"),
        # trace-decreasing, yet its output on |0><0| is a valid state
        (lambda: apply(Channel((np.diag([1, 0]),), Q0, Q0), basis_state(Q0, [0])), ValueError,
         "apply() requires a trace-preserving channel"),
        # 2^17 one-qubit operators, about 40 MB at the peak: a bad input, not a bug
        (lambda: flatten(LoccProtocol(Q0, [_DEPHASE] * 17)), DimensionCapError,
         "flattened Kraus count exceeds 65536"),
    ],
    ids=["channel-empty", "then-dims", "apply_to_factors-dims", "apply_to_factors-non-tp",
         "teleport-dim", "instrument-empty", "controlled-none", "controlled-layouts",
         "controlled-keep", "embed-range", "run-layout", "unknown-step", "apply-non-tp",
         "flatten-cap"],
)
def test_malformed_channels_and_protocols_are_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as err:
        call()
    assert type(err.value) is error


# each entry point that takes a list of factor indices of PAIR (perm_unitary: of
# its dims); the bad index comes first, so the register reads it alone
_INDEXED = {
    "subset": lambda idx: PAIR.subset(idx),
    "partial_trace": lambda idx: partial_trace(singlet(), idx),
    "apply_to_factors": lambda idx: apply_to_factors(Channel.identity(PAIR), singlet(), idx),
    "keep": lambda idx: LoccProtocol(PAIR, keep=idx),
    "local_channel": lambda idx: local_channel(PAIR, 0, idx, (np.eye(4),)),
    "local_instrument": lambda idx: local_instrument(PAIR, 0, idx, [("0", [np.eye(4)])]),
    "embed_protocol": lambda idx: embed_protocol(identity_protocol(PAIR), PAIR, idx),
    "permute_protocol": lambda idx: permute_protocol(PAIR, idx),
    "perm_unitary": lambda idx: perm_unitary((2, 2), idx),
    "register": lambda idx: controlled_on_register(idx[0], [identity_protocol(PAIR)] * 2),
}
_BAD_INDICES = {
    "range": ((2, 0), "factor index 2 out of range for {!r}"),
    "negative": ((-1, 0), "factor index -1 out of range for {!r}"),
    "repeated": ((1, 1), "repeated factor indices (1, 1)"),
}


@pytest.mark.parametrize("entry,case", [
    (entry, case) for entry in _INDEXED for case in _BAD_INDICES
    # partial_trace reads a set, and a register is one index
    if case != "repeated" or entry not in ("partial_trace", "register")
])
def test_factor_indices_are_checked_by_subset(entry, case):
    # apply_to_factors raised IndexError or numpy's "axes don't match array",
    # and it and subset read -1 as the last factor
    idx, message = _BAD_INDICES[case]
    lay = SystemLayout([(0, 2), (0, 2)]) if entry == "perm_unitary" else PAIR
    with pytest.raises(LayoutMismatchError, match=re.escape(message.format(lay))) as err:
        _INDEXED[entry](idx)
    assert type(err.value) is LayoutMismatchError


def _integer_args():
    """Each library integer argument: a call with value ``v`` there, and a ``v`` it accepts."""
    from catent.catfactory import build_catalyst, reuse_joint, verify_marginal_reduction
    from catent.qstate import entanglement_entropy

    same = SystemLayout([(0, 2), (0, 2)])
    two, one = identity_protocol(PAIR.power(2)), LoccProtocol(PAIR.power(2), keep=(0, 1))
    reuse = (identity_protocol(PAIR + Q0), maximally_mixed(Q0), singlet())
    return {
        "layout-party": (lambda v: SystemLayout([(v, 2)]), 1),
        "layout-dim": (lambda v: SystemLayout([(0, v)]), 3),
        "partial_trace": (lambda v: partial_trace(singlet(), [v]), 1),
        "permute_factors": (lambda v: permute_factors(singlet(), [v, 0]), 1),
        "parties_a": (lambda v: entanglement_entropy(singlet(), [v]), 1),
        "apply_to_factors": (lambda v: apply_to_factors(Channel.identity(Q0), singlet(), [v]), 1),
        "channel-factors": (lambda v: LocalChannel(0, (v,), (X,)), 1),
        "instrument-factors": (lambda v: LocalInstrument(0, (v,), _z_measurement()), 1),
        "register": (lambda v: RegisterControlled(v, ((), ()), (0, 1)), 1),
        "updates": (lambda v: RegisterControlled(0, ((), ()), (v, 0)), 1),
        "keep": (lambda v: LoccProtocol(PAIR, keep=[v, 0]), 1),
        "perm_unitary": (lambda v: perm_unitary((2, 2), (v, 0)), 1),
        "permute_protocol": (lambda v: permute_protocol(same, (v, 0)), 1),
        "embed_protocol": (lambda v: embed_protocol(identity_protocol(same), same, (v, 0)), 1),
        "build_catalyst": (lambda v: build_catalyst(two, singlet(), v), 2),
        "reuse-copies": (lambda v: reuse_joint(*reuse, v), 1),
        "reduction-n": (lambda v: verify_marginal_reduction(one, singlet(), singlet(), v, 1), 2),
        "reduction-m": (lambda v: verify_marginal_reduction(one, singlet(), singlet(), 2, v), 1),
    }


@pytest.mark.parametrize("entry", list(_integer_args()))
def test_integer_arguments_refuse_floats_and_strings(entry):
    # int() read 2.7 as 2, 0.9 as 0 and "1" as 1; operator.index refuses
    # them as Python's own indexing does, and takes numpy integers
    call, good = _integer_args()[entry]
    for bad in (float(good), good + 0.7, str(good)):
        with pytest.raises(TypeError):
            call(bad)
    call(np.int64(good))
    call(good)


def test_apply_to_factors_any_order():
    s = tensor(
        basis_state(Q0, (0,)),
        basis_state(SystemLayout([(1, 2)]), (1,)),
    )
    flip_b = Channel.from_unitary(X, SystemLayout([(1, 2)]))
    out = apply_to_factors(flip_b, s, (1,))
    assert abs(out.matrix[0, 0] - 1.0) < 1e-14
    cnot = Channel.from_unitary(
        np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        ),
        SystemLayout([(1, 2), (0, 2)]),
    )
    # control factor 1, target factor 0 via reversed selection
    src = tensor(basis_state(Q0, (0,)), basis_state(SystemLayout([(1, 2)]), (1,)))
    out = apply_to_factors(cnot, src, (1, 0))
    assert abs(out.matrix[3, 3] - 1.0) < 1e-14


def test_teleport_channel_formula():
    # oracle: map determined on a full operator basis must match the formula
    for dim, f in ((2, 1.0), (2, 0.85), (3, 0.5)):
        ch = teleport_channel(f, dim)
        p = (dim**2 * f - 1.0) / (dim**2 - 1.0)
        rng = np.random.default_rng(3)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= rho.trace()
        acc = np.zeros((dim, dim), dtype=complex)
        for k in ch.kraus:
            acc += k @ rho @ k.conj().T
        want = p * rho + (1.0 - p) * np.eye(dim) / dim
        assert np.max(np.abs(acc - want)) < 1e-12
    assert len(teleport_channel(1.0, 2).kraus) == 1
    with pytest.raises(ValueError):
        teleport_channel(0.1, 2)
    with pytest.raises(ValueError):
        teleport_channel(1.2, 2)


# ---------------------------------------------------------------------------
# instruments


def _z_measurement():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return Instrument.from_kraus(Q0, [("0", [p0]), ("1", [p1])])


def test_instrument_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Instrument.from_kraus(
            Q0, [("a", [np.diag([1.0, 0.0])]), ("a", [np.diag([0.0, 1.0])])]
        )
    with pytest.raises(ValueError, match=r"do not sum to a trace-preserving map \(0.21"):
        Instrument.from_kraus(
            Q0, [("a", [1.1 * np.eye(2)]), ("b", [np.zeros((2, 2))])]
        )
    with pytest.raises(ValueError, match="trace-preserving"):
        Instrument.from_kraus(
            Q0, [("a", [0.5 * np.eye(2)]), ("b", [0.5 * np.eye(2)])]
        )
    # each outcome is fine alone, but their total is 1.125 I
    with pytest.raises(ValueError, match="do not sum to a trace-preserving map"):
        Instrument.from_kraus(Q0, [("a", [0.75 * np.eye(2)]), ("b", [0.75 * np.eye(2)])])
    # outcomes on equal but distinct layout objects share one layout; mixed ones do not
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    inst = Instrument((("a", Channel((p0,), Q0, Q0)),
                       ("b", Channel((p1,), SystemLayout([(0, 2)]), SystemLayout([(0, 2)])))))
    assert inst.labels == ("a", "b") == tuple(lab for lab, _ in inst.outcomes)
    q1 = SystemLayout([(1, 2)])
    with pytest.raises(LayoutMismatchError, match="must share one layout"):
        Instrument((("a", Channel((p0,), Q0, Q0)), ("b", Channel((p1,), q1, q1))))
    with pytest.raises(LayoutMismatchError, match="must share one layout"):
        Instrument((("a", Channel((p0,), Q0, Q0)), ("b", Channel((p1,), Q0, q1))))


def test_instrument_total_sums_every_batch():
    # the total is summed in batches; the bad outcomes sit in the second
    ks = [math.sqrt(1 / 400) * np.eye(2) for _ in range(400)]
    ks[300] = ks[350] = 1.1 * np.eye(2)
    with pytest.raises(ValueError, match=r"do not sum to a trace-preserving map \(2.41"):
        Instrument.from_kraus(Q0, [(f"o{m}", [k]) for m, k in enumerate(ks)])


def test_instrument_mixed_kraus_counts():
    # 300 outcomes alternating one and two Kraus operators, over two batches
    w = math.sqrt(1 / 450)
    outcomes = [(f"o{m}", [w * np.eye(2)] * (1 + m % 2)) for m in range(300)]
    assert len(Instrument.from_kraus(Q0, outcomes).outcomes) == 300
    # each operator alone is fine; their sum within o289 lifts the total past I
    outcomes[289] = ("o289", [math.sqrt(0.6) * np.eye(2)] * 2)
    with pytest.raises(ValueError, match=r"do not sum to a trace-preserving map \(1.19"):
        Instrument.from_kraus(Q0, outcomes)


def test_instrument_batches_bound_memory():
    # at d=64 the element budget, not the item cap, sets the batch size
    runs = locc._batches(200, (2 * 64 + 64) * 64)
    assert runs[0] == (0, 85) and runs[-1] == (170, 200)
    d64 = SystemLayout([(0, 64)])
    ks = [math.sqrt(1 / 200) * np.eye(64) for _ in range(200)]
    ks[150] = 1.1 * np.eye(64)
    with pytest.raises(ValueError, match=r"do not sum to a trace-preserving map \(1.20"):
        Instrument.from_kraus(d64, [(f"o{m}", [k]) for m, k in enumerate(ks)])


def test_many_kraus_outcome_needs_no_per_operator_square():
    # one outcome with 64 operators 64 -> 2: the Kraus set is 8192 entries,
    # one 64x64 product per operator would be 262144 (4 MB)
    kraus = []
    for j in range(64):
        k = np.zeros((2, 64), dtype=complex)
        k[0, j] = 1.0
        kraus.append(k)
    ch = Channel(tuple(kraus), SystemLayout([(0, 64)]), SystemLayout([(0, 2)]))
    tracemalloc.start()
    try:
        Instrument((("all", ch),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_instrument_checks_one_eigendecomposition_of_its_total(eigvalsh_calls):
    # 600 outcomes; one eigendecomposition of the total clears them
    w = math.sqrt(1 / 600)
    outcomes = [(f"o{m}", [w * np.eye(2)]) for m in range(600)]
    Instrument.from_kraus(Q0, outcomes)
    assert eigvalsh_calls == [(2, 2)]
    # a bad outcome lifts the total past I + TP_TOL: refused on that one
    # decomposition, with no pass over the outcomes
    eigvalsh_calls.clear()
    outcomes[560] = ("o560", [1.01 * np.eye(2)])
    with pytest.raises(ValueError, match="do not sum to a trace-preserving map"):
        Instrument.from_kraus(Q0, outcomes)
    assert eigvalsh_calls == [(2, 2)]
    # at d=64 the total is summed over three batches and decomposed once
    eigvalsh_calls.clear()
    ks = [math.sqrt(1 / 200) * np.eye(64) for _ in range(200)]
    ks[180] = 1.1 * np.eye(64)
    with pytest.raises(ValueError, match="do not sum to a trace-preserving map"):
        Instrument.from_kraus(SystemLayout([(0, 64)]), [(f"o{m}", [k]) for m, k in enumerate(ks)])
    assert eigvalsh_calls == [(64, 64)]


def test_instrument_total_is_checked_in_operator_norm():
    # total I - cJ (J the all-ones matrix) at c = 0.9e-9, d = 4: every entry of
    # total - I is within TP_TOL and its top eigenvalue is below 1, but its
    # operator norm is 4c = 3.6e-9
    d, c = 4, 0.9e-9
    total = np.eye(d) - c * np.ones((d, d))
    assert np.max(np.abs(total - np.eye(d))) <= locc.TP_TOL
    assert np.linalg.eigvalsh(total)[-1] <= 1.0 + locc.TP_TOL
    root = np.linalg.cholesky(total).conj().T  # root^dag root = total
    with pytest.raises(ValueError, match=r"do not sum to a trace-preserving map \(3.6"):
        Instrument.from_kraus(SystemLayout([(0, d)]), [("a", [root])])
    # split over two outcomes, each alone fine, the same total is refused
    with pytest.raises(ValueError, match="do not sum to a trace-preserving map"):
        Instrument.from_kraus(SystemLayout([(0, d)]),
                              [("a", [root / math.sqrt(2)]), ("b", [root / math.sqrt(2)])])


def test_kraus_items_are_views_of_one_read_only_stack():
    ks = [np.eye(2), np.diag([0.0, 1.0])]
    for kraus in (Channel(tuple(ks), Q0, Q0).kraus, LocalChannel(1, (1,), ks).kraus):
        assert len({id(k.base) for k in kraus}) == 1
        assert all(not k.flags.writeable and k.shape == (2, 2) for k in kraus)
        assert np.array_equal(kraus[1], ks[1])
    with pytest.raises(LayoutMismatchError, match="differ in shape"):
        LocalChannel(1, (1,), (np.eye(2), np.eye(3)))


def test_stack_views_check_the_stack_once():
    real = np.stack([np.eye(2)[None], np.eye(2)[None]]) / math.sqrt(2)
    for dtype in (np.float64, complex):
        stack = real.astype(dtype)
        with pytest.raises(ValueError, match="read-only float64 or complex128"):
            locc._views(Channel, stack, input_layout=Q0, output_layout=Q0)
        stack.setflags(write=False)
        a, b = locc._views(Channel, stack, input_layout=Q0, output_layout=Q0)
        assert a.kraus[0].base is stack and a.kraus[0].dtype == dtype and b.input_layout is Q0
        Instrument((("a", a), ("b", b)))
        q3 = SystemLayout([(0, 3)])
        with pytest.raises(LayoutMismatchError, match=r"\(2, 2\) does not match \(3, 3\)"):
            locc._views(Channel, stack, input_layout=q3, output_layout=q3)
    # only the two dtypes the kernels are tested on pass
    for other in (np.float32, np.int64, np.complex64):
        cast = real.astype(other)
        cast.setflags(write=False)
        with pytest.raises(ValueError, match="read-only float64 or complex128"):
            locc._views(LocalChannel, cast, party=0, factors=(0,))


def test_many_kraus_contraction_stays_within_a_few_states():
    # 17 Kraus operators on a 4-dim factor of a 1024-dim state: contracted
    # all at once they would need 17 state-sized intermediates
    layout = SystemLayout([(0, 4), (1, 4), (0, 8), (1, 8)])
    rho = random_state(layout, "ginibre_mixed", seed=3)
    dep = Channel.depolarizing(SystemLayout([(0, 4)]), 0.3)
    assert len(dep.kraus) == 17
    tracemalloc.start()
    try:
        out = apply_to_factors(dep, rho, (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * rho.matrix.nbytes
    rest = partial_trace(rho, [1, 2, 3]).matrix
    want = 0.3 * rho.matrix + 0.7 * np.kron(np.eye(4) / 4, rest)
    assert np.max(np.abs(out.matrix - want)) < 1e-12


@pytest.mark.parametrize("dims,count,outcomes", [((4, 4, 8, 8), 17, 4), ((4, 4, 4, 4), 8, 16)])
def test_pair_contraction_stays_within_the_batch_budget(dims, count, outcomes):
    # a measure-and-correct step with wide corrections: at 1024 dims one
    # outcome's 17 corrections alone pass the element budget, so it runs
    # operator by operator; at 256 dims two outcomes fit in a chunk
    layout = SystemLayout([(0, dims[0]), (1, dims[1]), (0, dims[2]), (1, dims[3])])
    rng = np.random.default_rng(0)
    qa = np.linalg.qr(rng.standard_normal((4 * outcomes, 4)))[0]
    qb = np.linalg.qr(rng.standard_normal((4 * count, 4)))[0]
    inst = Instrument.from_kraus(SystemLayout([(0, 4)]),
                                 [(f"o{m}", [qa[4 * m : 4 * m + 4]]) for m in range(outcomes)])
    fix = LocalChannel(1, (1,), [qb[4 * j : 4 * j + 4] for j in range(count)])
    stack = np.broadcast_to(fix._stack, (outcomes, *fix._stack.shape))  # read-only
    proto = LoccProtocol(layout, [LocalInstrument(0, (0,), inst, (), (1, (1,), stack))])
    rho = random_state(layout, "ginibre_mixed", seed=1).matrix
    tracemalloc.start()
    try:
        out = locc._run_matrix(proto, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * locc._BATCH_ELEMS * 16 + 8 * rho.nbytes
    want = sum(
        locc._contract(
            locc._contract(rho.reshape(dims * 2), ch._stack[None], (0,)), fix._stack[None], (1,)
        )
        for _, ch in inst.outcomes
    )
    assert np.max(np.abs(out - want.reshape(rho.shape))) < 1e-12


def test_local_channel_without_kraus_is_not_tp():
    # no Kraus operators is the zero map
    with pytest.raises(ValueError, match="must be trace-preserving"):
        LoccProtocol(PAIR, [LocalChannel(1, (1,), (X,)), LocalChannel(1, (1,), ())])


def _real_correction_step(*kraus_sets):
    """Z measurement whose corrections on factor 1 are a float64 stack handed in,
    as the synthesis builds its step."""
    stack = np.stack([np.real(ks) for ks in kraus_sets])
    stack.setflags(write=False)
    return LocalInstrument(0, (0,), _z_measurement(), (), (1, (1,), stack))


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize(
    "where", ["instrument_case", "float64_stack", "register_branch", "after_300_steps"]
)
def test_non_tp_local_channel_rejected_anywhere(where, count):
    def tree(last: LocalChannel):
        flip = LocalChannel(1, (1,), (X / math.sqrt(count),) * count)
        if where == "instrument_case":
            inst = _z_measurement()
            return PAIR, [LocalInstrument(0, (0,), inst, ((flip,), (last,)))]
        if where == "float64_stack":
            return PAIR, [_real_correction_step(flip.kraus, last.kraus)]
        if where == "register_branch":
            lay = SystemLayout([(0, 2), (1, 2), (0, 2)])
            return lay, [RegisterControlled(2, ((flip,), (last,)), (0, 1))]
        return PAIR, [flip] * 300 + [last]

    good = LocalChannel(1, (1,), (Z / math.sqrt(count),) * count)
    LoccProtocol(*tree(good))
    with pytest.raises(ValueError, match="must be trace-preserving"):
        LoccProtocol(*tree(LocalChannel(1, (1,), (1.1 * Z / math.sqrt(count),) * count)))


# ---------------------------------------------------------------------------
# protocol structure


def test_locality_enforced():
    with pytest.raises(LocalityError):
        local_channel(PAIR, 0, (1,), (X,))
    with pytest.raises(LocalityError):
        local_unitary(PAIR, 1, (0,), Z)
    with pytest.raises(ValueError, match="trace-preserving"):
        local_channel(PAIR, 0, (0,), (0.9 * X,))


def test_structure_checks_differ_from_a_checked_channel_by_party_or_shape():
    # a channel that differs from a checked one by its party, factor or
    # Kraus shape fails its own check
    good = LocalChannel(1, (1,), (X,))
    with pytest.raises(LocalityError):
        LoccProtocol(PAIR, [good, LocalChannel(0, (1,), (X,))])
    with pytest.raises(LayoutMismatchError, match=r"\(3, 3\) != \(2, 2\)"):
        LoccProtocol(PAIR, [good, LocalChannel(1, (1,), (np.eye(3),))])
    with pytest.raises(LayoutMismatchError, match="out of range"):
        LoccProtocol(PAIR, [good, LocalChannel(1, (2,), (X,))])


def test_correction_stack_structure_is_checked():
    # the corrections of a measure-and-correct step share one place and
    # shape, checked once: party 0 may not act on party 1's factor, and the
    # operators must fit the factor
    z = _z_measurement()
    for party, factors, k, err, text in (
        (0, (1,), X, LocalityError, "party 0 cannot act on factor 1"),
        (1, (2,), X, LayoutMismatchError, "out of range"),
        (1, (1,), np.eye(3), LayoutMismatchError, r"\(3, 3\) != \(2, 2\)"),
    ):
        stack = np.array([[k], [k]], dtype=complex)
        stack.setflags(write=False)
        step = LocalInstrument(0, (0,), z, (), (party, factors, stack))
        with pytest.raises(err, match=text):
            LoccProtocol(PAIR, [step])


def test_correction_stack_handed_in_names_its_party():
    # with every case empty the check once took the stack's party from the
    # first non-empty case, and raised a bare StopIteration
    stack = np.broadcast_to(np.eye(2), (2, 1, 2, 2)).copy()
    stack.setflags(write=False)
    z, empty = _z_measurement(), ((), ())
    proto = LoccProtocol(PAIR, [LocalInstrument(0, (0,), z, empty, (1, (1,), stack))])
    rho = random_state(PAIR, "ginibre_mixed", seed=2)
    assert np.max(np.abs(run_protocol(proto, rho).matrix - apply(flatten(proto), rho).matrix)) < 1e-12
    with pytest.raises(LocalityError, match="party 0 cannot act on factor 1"):
        LoccProtocol(PAIR, [LocalInstrument(0, (0,), z, empty, (0, (1,), stack))])

def test_instrument_that_changes_its_factor_dims_is_refused():
    # outcomes that map the 2-dim factor to 1 dim used to construct, and the
    # run then failed inside numpy ("cannot reshape array of size 2")
    q1 = SystemLayout([(0, 1)])
    shrink = Instrument(
        tuple((lab, Channel((k,), Q0, q1)) for lab, k in (("0", np.array([[1.0, 0.0]])),
                                                         ("1", np.array([[0.0, 1.0]]))))
    )
    with pytest.raises(LayoutMismatchError, match=r"\(2,\) -> \(1,\), factors are \(2,\)"):
        LoccProtocol(PAIR, [LocalInstrument(0, (0,), shrink)])
    fix = LocalChannel(1, (1,), (X,))
    with pytest.raises(LayoutMismatchError, match=r"\(2,\) -> \(1,\)"):
        LoccProtocol(PAIR, [LocalInstrument(0, (0,), shrink, ((), (fix,)))])


def test_case_label_must_exist():
    with pytest.raises(ValueError, match="case label '2' is not an instrument outcome"):
        local_instrument(
            PAIR,
            0,
            (0,),
            [("0", [np.diag([1.0, 0.0])]), ("1", [np.diag([0.0, 1.0])])],
            cases={"2": [local_unitary(PAIR, 1, (1,), X)]},
        )


def test_cases_are_one_per_outcome_in_outcome_order():
    z, fix = _z_measurement(), LocalChannel(1, (1,), (X,))
    for cases in (((fix,),), ((fix,), (), ())):
        with pytest.raises(ValueError, match=f"{len(cases)} cases for 2 outcomes"):
            LocalInstrument(0, (0,), z, cases)
    assert LocalInstrument(0, (0,), z).cases == ((), ())
    step = LocalInstrument(0, (0,), z, [[], [fix]])
    assert step.cases == ((), (fix,)) and step.case_map() == {"0": (), "1": (fix,)}


def test_local_instrument_reads_case_keys_as_labels():
    # keys are read through str, as Instrument.from_kraus reads labels, so
    # two keys may name one outcome
    outcomes = [(0, [np.diag([1.0, 0.0])]), (1, [np.diag([0.0, 1.0])])]
    flip = local_unitary(PAIR, 1, (1,), X)
    step = local_instrument(PAIR, 0, (0,), outcomes, {1: [flip]})
    assert step.instrument.labels == ("0", "1") and step.cases == ((), (flip,))
    with pytest.raises(ValueError, match=r"case keys \[1, .1.\] name one outcome twice"):
        local_instrument(PAIR, 0, (0,), outcomes, {1: [flip], "1": []})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("pos", [(0, 0), (1, 0)])
def test_non_finite_kraus_entry_is_named(bad, pos):
    # numpy warnings are errors here: the checks must raise without one
    k = X.copy()
    k[pos] = bad
    where = rf"has a non-finite entry at \({pos[0]}, {pos[1]}\)"
    with pytest.raises(ValueError, match="local channel step: Kraus operator 0 " + where):
        local_channel(PAIR, 0, (0,), [k])
    with pytest.raises(ValueError, match="local channel step: Kraus operator 1 " + where):
        local_channel(PAIR, 0, (0,), [X / 2, k])
    with pytest.raises(ValueError, match="outcome '1': Kraus operator 1 " + where):
        local_instrument(PAIR, 0, (0,), [("0", [X / 2]), ("1", [X / 2, k])])
    with pytest.raises(ValueError, match="outcome 'o300': Kraus operator 0 " + where):
        Instrument.from_kraus(Q0, [(f"o{m}", [k if m == 300 else X / 20]) for m in range(400)])
    # a case's correction names the entry too
    with pytest.raises(ValueError, match="local channel step: Kraus operator 0 " + where):
        LoccProtocol(PAIR, [LocalInstrument(0, (0,), _z_measurement(), ((), (LocalChannel(1, (1,), (k,)),)))])
    # and a float64 one handed in, as the synthesis's is
    with pytest.raises(ValueError, match="local channel step: Kraus operator 0 " + where):
        LoccProtocol(PAIR, [_real_correction_step([X], [k])])


def test_padded_instrument_stack_checks_like_its_outcomes():
    # outcomes of 1, 2 and 3 operators: the stack pads each to 3 with zero
    # operators, which leave every outcome's completeness as it was
    ks = [np.linalg.qr(np.random.default_rng(1).standard_normal((12, 2)))[0][2 * i : 2 * i + 2]
          for i in range(6)]
    inst = Instrument.from_kraus(Q0, [("a", ks[:1]), ("b", ks[1:3]), ("c", ks[3:])])
    assert inst._stack.shape == (3, 3, 2, 2) and not inst._stack.flags.writeable
    assert not np.any(inst._stack[0, 1:]) and not np.any(inst._stack[1, 2:])
    comps = locc._completeness(inst._stack, 2)
    for comp, (_, ch) in zip(comps, inst.outcomes):
        assert np.max(np.abs(comp - ch.completeness())) <= 1e-15
    # the same outcomes on a stack handed in: the same checks pass and fail
    again = Instrument._from_stack(inst.labels, inst._stack, Q0)
    assert again._stack is inst._stack
    assert all(ch.kraus[0].base is inst._stack for _, ch in again.outcomes)
    bad = np.array(inst._stack)
    bad[1, :2] *= 3
    bad.setflags(write=False)
    for build in (
        lambda: Instrument.from_kraus(Q0, [("a", bad[0, :1]), ("b", bad[1, :2]), ("c", bad[2])]),
        lambda: Instrument._from_stack(inst.labels, bad, Q0),
    ):
        with pytest.raises(ValueError, match="do not sum to a trace-preserving map"):
            build()


def test_identity_protocol_flatten():
    ch = flatten(identity_protocol(PAIR))
    s = random_state(PAIR, "ginibre_mixed", seed=1)
    assert np.max(np.abs(apply(ch, s).matrix - s.matrix)) < 1e-14


def test_flatten_composition_matches_choi():
    steps1 = [local_unitary(PAIR, 0, (0,), X)]
    steps2 = [local_unitary(PAIR, 1, (1,), Z), local_unitary(PAIR, 0, (0,), Y)]
    joint = flatten(LoccProtocol(PAIR, steps1 + steps2))
    split = flatten(LoccProtocol(PAIR, steps1)).then(flatten(LoccProtocol(PAIR, steps2)))
    assert np.max(np.abs(joint.choi() - split.choi())) < 1e-12


def test_classical_message_conditioning():
    # Alice measures in Z and tells Bob to flip on outcome "1": a classical copy
    meas = _z_measurement()
    steps = [
        local_instrument(
            PAIR,
            0,
            (0,),
            meas,
            cases={"1": [local_unitary(PAIR, 1, (1,), X)]},
        )
    ]
    ch = flatten(LoccProtocol(PAIR, steps))
    plus = pure_state(Q0, np.array([1.0, 1.0]) / math.sqrt(2.0))
    src = tensor(plus, basis_state(SystemLayout([(1, 2)]), (0,)))
    out = apply(ch, src)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = 0.5
    want[3, 3] = 0.5
    assert np.max(np.abs(out.matrix - want)) < 1e-12


def test_teleportation_integration():
    # standard teleportation: Bell measurement + conditioned Pauli corrections
    layout = SystemLayout([(0, 2), (0, 2), (1, 2)])
    outcomes = []
    cases = {}
    for z in (0, 1):
        for x in (0, 1):
            v = np.zeros(4, dtype=complex)
            v[x] = 1.0 / math.sqrt(2.0)
            v[2 + (1 - x)] = (-1.0) ** z / math.sqrt(2.0)
            lab = f"{z}{x}"
            outcomes.append((lab, [np.outer(v, v.conj())]))
            corr = np.linalg.matrix_power(Z, z) @ np.linalg.matrix_power(X, x)
            cases[lab] = [local_unitary(layout, 1, (2,), corr)]
    proto = LoccProtocol(
        layout,
        [local_instrument(layout, 0, (0, 1), outcomes, cases=cases)],
        keep=(2,),
    )
    ch = flatten(proto)
    assert ch.output_layout.dims == (2,)
    for seed in range(5):
        msg = random_state(Q0, "ginibre_mixed", seed=seed)
        src = tensor(msg, maximally_entangled(2))
        out = apply(ch, src)
        assert np.max(np.abs(out.matrix - msg.matrix)) < 1e-10


def test_swap_factors_roundtrip():
    lay = SystemLayout([(0, 2), (0, 2)])
    ch = flatten(permute_protocol(lay, (1, 0)))
    a = random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=0)
    b = random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=1)
    out = apply(ch, tensor(a, b))
    assert np.max(np.abs(out.matrix - np.kron(b.matrix, a.matrix))) < 1e-13


def test_swap_factor_groups_is_local():
    lay = PAIR + PAIR
    proto = permute_protocol(lay, (2, 3, 0, 1))
    # one unitary per party, each touching only that party's factors
    assert len(proto.steps) == 2
    for step in proto.steps:
        assert {lay[i].party for i in step.factors} == {step.party}
    a = random_state(PAIR, "ginibre_mixed", seed=2)
    b = random_state(PAIR, "ginibre_mixed", seed=3)
    out = apply(flatten(proto), tensor(a, b))
    want = permute_factors(tensor(a, b), (2, 3, 0, 1))
    assert np.max(np.abs(out.matrix - want.matrix)) < 1e-13


def test_swap_factors_errors():
    lay = SystemLayout([(0, 2), (1, 2)])
    with pytest.raises(LayoutMismatchError, match="does not map SystemLayout"):
        permute_protocol(lay, (1, 0))  # different parties
    with pytest.raises(LayoutMismatchError, match=r"repeated factor indices \(2, 2, 0, 1\)"):
        permute_protocol(PAIR + PAIR, (2, 2, 0, 1))


def _old_block_cycle(joint, unit, n, src_block):
    # the catalyst factory's former branch builder: block t takes block
    # src_block[t], one unitary per party over all of its block factors
    f = len(unit)
    src = {t * f + i: src_block[t] * f + i for t in range(n) for i in range(f)}
    steps = []
    for party in unit.parties:
        pos = [q for q in range(n * f) if joint[q].party == party]
        at = {q: a for a, q in enumerate(pos)}
        u = perm_unitary([joint[q].dim for q in pos], [at[src[q]] for q in pos])
        steps.append(local_channel(joint, party, tuple(pos), (u,)))
    return LoccProtocol(joint, steps)


@pytest.mark.parametrize("src_block", [(2, 0, 1), (2, 1, 0), (1, 2, 0)])
def test_permute_protocol_runs_an_exact_permutation(src_block):
    lay = PAIR.power(3) + SystemLayout([(0, 3)])
    state = random_state(lay, "ginibre_mixed", seed=sum(src_block[:2]))
    src = [b * 2 + i for b in src_block for i in range(2)] + [6]
    got = run_protocol(permute_protocol(lay, src), state).matrix
    assert np.array_equal(got, permute_factors(state, src).matrix)
    old = run_protocol(_old_block_cycle(lay, PAIR, 3, src_block), state).matrix
    assert np.array_equal(got, old)


def test_perm_unitary_action():
    u = perm_unitary((2, 2), (1, 0))
    v = np.zeros(4)
    v[1] = 1.0  # |01>
    assert np.argmax(np.abs(u @ v)) == 2  # |10>
    with pytest.raises(ValueError):
        perm_unitary((2, 2), (0, 0))
    with pytest.raises(LayoutMismatchError):
        perm_unitary((2, 3), (1, 0))


def test_perm_unitary_caps_dimension_before_allocating():
    # 2**64 basis states: numpy's own "dimensions are too large" is untyped
    with pytest.raises(DimensionCapError, match="18446744073709551616"):
        perm_unitary([2**32, 2**32], [1, 0])
    with pytest.raises(DimensionCapError):
        perm_unitary([65, 65], [1, 0])
    # numpy's "maximum supported dimension" past 64 factors, and 33 to 64 were accepted
    with pytest.raises(DimensionCapError, match="layout has more than 32 factors"):
        perm_unitary((1,) * 70, range(70))


# ---------------------------------------------------------------------------
# register-controlled branching


def _reg_layout():
    return SystemLayout([(0, 2), (1, 2)])


def test_controlled_branches_dispatch():
    lay = _reg_layout()
    ident = identity_protocol(lay)
    flip = LoccProtocol(lay, [local_unitary(lay, 1, (1,), X)])
    proto = controlled_on_register(0, [ident, flip])
    ch = flatten(proto)
    for reg, expect in ((0, 0), (1, 1)):
        src = tensor(
            basis_state(SystemLayout([(0, 2)]), (reg,)),
            basis_state(SystemLayout([(1, 2)]), (0,)),
        )
        out = apply(ch, src)
        idx = reg * 2 + expect
        assert abs(out.matrix[idx, idx] - 1.0) < 1e-13


def test_controlled_register_updates():
    lay = _reg_layout()
    ident = identity_protocol(lay)
    proto = controlled_on_register(0, [ident, ident], updates=(1, 0))
    out = apply(flatten(proto), basis_state(lay, (0, 0)))
    assert abs(out.matrix[2, 2] - 1.0) < 1e-13  # register flipped to 1


def test_controlled_register_decoheres():
    lay = _reg_layout()
    ident = identity_protocol(lay)
    proto = controlled_on_register(0, [ident, ident])
    plus = pure_state(SystemLayout([(0, 2)]), np.array([1.0, 1.0]) / math.sqrt(2.0))
    src = tensor(plus, basis_state(SystemLayout([(1, 2)]), (0,)))
    out = apply(flatten(proto), src)
    assert abs(out.matrix[0, 2]) < 1e-13
    assert abs(out.matrix[0, 0] - 0.5) < 1e-13


def test_controlled_discard_register():
    lay = _reg_layout()
    flip = LoccProtocol(lay, [local_unitary(lay, 1, (1,), X)])
    proto = controlled_on_register(0, [identity_protocol(lay), flip])
    src = tensor(
        maximally_mixed(SystemLayout([(0, 2)])),
        basis_state(SystemLayout([(1, 2)]), (0,)),
    )
    kept = apply(flatten(proto), src)
    dropped = apply(flatten(LoccProtocol(lay, proto.steps, keep=(1,))), src)
    assert dropped.layout.dims == (2,)
    want = partial_trace(kept, (1,))
    assert np.max(np.abs(dropped.matrix - want.matrix)) < 1e-13


def test_controlled_validation():
    lay = _reg_layout()
    ident = identity_protocol(lay)
    with pytest.raises(LayoutMismatchError, match="register dim"):
        controlled_on_register(0, [ident])
    touching = LoccProtocol(lay, [local_unitary(lay, 0, (0,), X)])
    with pytest.raises(LocalityError, match="register"):
        controlled_on_register(0, [ident, touching])
    # a branch that branches on the register again touches it too
    again = controlled_on_register(0, [ident, ident])
    with pytest.raises(LocalityError, match="must not touch the register"):
        controlled_on_register(0, [ident, again])
    with pytest.raises(ValueError, match="updates"):
        controlled_on_register(0, [ident, ident], updates=(0, 2))


# ---------------------------------------------------------------------------
# embedding


def test_embed_protocol_action():
    proto = LoccProtocol(
        PAIR, [local_unitary(PAIR, 0, (0,), X), local_unitary(PAIR, 1, (1,), Z)]
    )
    big = SystemLayout([(1, 2), (0, 2), (1, 3)])
    emb = embed_protocol(proto, big, (1, 0))
    s = random_state(big, "ginibre_mixed", seed=4)
    out = apply(flatten(emb), s)
    want = apply_to_factors(Channel.from_unitary(X, Q0), s, (1,))
    want = apply_to_factors(Channel.from_unitary(Z, SystemLayout([(1, 2)])), want, (0,))
    assert np.max(np.abs(out.matrix - want.matrix)) < 1e-13


def test_embed_protocol_rejects_mismatch():
    proto = identity_protocol(PAIR)
    big = SystemLayout([(1, 2), (0, 2), (1, 3)])
    with pytest.raises(LayoutMismatchError):
        embed_protocol(proto, big, (0, 1))  # party mismatch
    with pytest.raises(LayoutMismatchError):
        embed_protocol(proto, big, (1, 1))  # not injective
    with pytest.raises(ValueError):
        embed_protocol(LoccProtocol(PAIR, keep=(1,)), big, (1, 0))


# ---------------------------------------------------------------------------
# the terminal map ``keep``


def test_discard_is_partial_trace():
    proto = LoccProtocol(PAIR, keep=(0,))
    s = random_state(PAIR, "ginibre_mixed", seed=12)
    out = apply(flatten(proto), s)
    want = partial_trace(s, (0,))
    assert out.layout == want.layout
    assert np.max(np.abs(out.matrix - want.matrix)) < 1e-13


def test_relabel_reorders_output():
    lay = SystemLayout([(0, 2), (1, 3)])
    proto = LoccProtocol(lay, keep=(1, 0))
    s = random_state(lay, "ginibre_mixed", seed=13)
    out = apply(flatten(proto), s)
    want = permute_factors(s, (1, 0))
    assert out.layout == want.layout
    assert np.max(np.abs(out.matrix - want.matrix)) < 1e-13
    with pytest.raises(LayoutMismatchError, match=r"repeated factor indices \(0, 0\)"):
        LoccProtocol(lay, keep=(0, 0))
    with pytest.raises(ValueError, match="layout needs at least one factor"):
        LoccProtocol(lay, keep=())
    for bad in [(2,), (0, -1)]:
        with pytest.raises(LayoutMismatchError, match="out of range for SystemLayout"):
            LoccProtocol(lay, keep=bad)


def test_output_layout_consistency():
    lay = SystemLayout([(0, 2), (0, 2), (1, 2)])
    proto = LoccProtocol(lay, keep=(0, 2))
    assert proto.output_layout().dims == (2, 2)
    assert flatten(proto).output_layout == proto.output_layout()


# ---------------------------------------------------------------------------
# serialization


def _rich_protocol():
    lay = SystemLayout([(0, 2), (0, 2), (1, 2)])
    inner = [
        local_instrument(
            lay,
            0,
            (1,),
            [("0", [np.diag([1.0, 0.0])]), ("1", [np.diag([0.0, 1.0])])],
            cases={"1": [local_unitary(lay, 1, (2,), X)]},
        )
    ]
    branch0 = identity_protocol(lay)
    branch1 = LoccProtocol(lay, inner)
    ctrl = controlled_on_register(0, [branch0, branch1], updates=(0, 0))
    return LoccProtocol(lay, ctrl.steps, keep=(0, 2))


def test_protocol_dict_roundtrip_bit_exact():
    proto = _rich_protocol()
    doc = protocol_to_dict(proto)
    back = protocol_from_dict(doc)
    k1 = flatten(proto).kraus
    k2 = flatten(back).kraus
    assert len(k1) == len(k2)
    for a, b in zip(k1, k2):
        assert np.array_equal(a, b)
    assert back.keep == proto.keep == (0, 2)
    # an older document that still declares its classical registers loads
    # as the same protocol, the key ignored
    old = protocol_from_dict({**doc, "classical_factors": [0]})
    assert protocol_to_dict(old) == doc and "classical_factors" not in doc


def test_empty_then_loads_and_reencodes_as_null():
    flip = [local_unitary(PAIR, 1, (1,), X)]
    proto = LoccProtocol(PAIR, [local_instrument(PAIR, 0, (0,), _z_measurement(), {"1": flip})])
    doc = protocol_to_dict(proto)
    outcomes = doc["steps"][0]["outcomes"]
    assert outcomes[0]["then"] is None and len(outcomes[1]["then"]) == 1
    outcomes[0]["then"] = []
    back = protocol_from_dict(doc)
    assert back.steps[0].cases[0] == ()
    outcomes[0]["then"] = None
    assert protocol_to_dict(back) == doc


def test_protocol_file_roundtrip(tmp_path):
    proto = _rich_protocol()
    path = tmp_path / "proto.json"
    save_protocol(proto, path)
    back = load_protocol(path)
    assert np.max(np.abs(flatten(back).choi() - flatten(proto).choi())) == 0.0


def test_outcome_labels_are_strings_however_given():
    # an instrument's labels are strings, as its case labels are, so an
    # int-labelled build is the str-labelled one
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    flip = [local_unitary(PAIR, 1, (1,), X)]
    ints = LoccProtocol(PAIR, [local_instrument(PAIR, 0, (0,), [(0, [p0]), (1, [p1])], {1: flip})])
    strs = LoccProtocol(
        PAIR, [local_instrument(PAIR, 0, (0,), [("0", [p0]), ("1", [p1])], {"1": flip})]
    )
    assert Instrument.from_kraus(Q0, [(0, [p0]), (1, [p1])]).labels == ("0", "1")
    assert ints.steps[0].instrument.labels == ("0", "1")
    doc = protocol_to_dict(ints)
    assert doc == protocol_to_dict(strs)
    rho = random_state(PAIR, "ginibre_mixed", seed=3)
    want = run_protocol(strs, rho).matrix
    for p in (ints, protocol_from_dict(doc)):
        assert run_protocol(p, rho).matrix.tobytes() == want.tobytes()


def test_protocol_format_guard():
    doc = protocol_to_dict(identity_protocol(PAIR))
    doc["format"] = "nope"
    with pytest.raises(ValueError):
        protocol_from_dict(doc)


def _step_doc(doc, *path):
    # the rich protocol: step 0 is controlled, its branch 1 holds an instrument
    node = doc["steps"][0]
    for key in path:
        node = node[key]
    return node


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("steps"),
        lambda d: d.update(factors=[[0, 2], [0]]),
        lambda d: d.update(discard=["x"]),
        lambda d: d.update(relabel=7),
        lambda d: _step_doc(d).pop("type"),
        lambda d: _step_doc(d).update(type="teleport"),
        lambda d: _step_doc(d).update(updates=["a", 0]),
        lambda d: _step_doc(d).update(branches=3),
        lambda d: _step_doc(d, "branches", 1, 0).pop("outcomes"),
        lambda d: _step_doc(d, "branches", 1, 0, "outcomes", 1).update(then=4),
        lambda d: _step_doc(d, "branches", 1, 0, "outcomes", 0).update(kraus="I"),
        lambda d: _step_doc(d, "branches", 1, 0, "outcomes", 1, "then", 0).pop("kraus"),
        lambda d: d.update(format="catent-state-v1"),
    ],
    ids=[
        "no-steps", "short-factor", "discard-str", "relabel-int", "no-type",
        "unknown-type", "update-str", "branches-int", "no-outcomes", "then-int",
        "kraus-str", "nested-no-kraus", "state-format",
    ],
)
def test_protocol_dict_malformed_raises_document_error(mutate):
    doc = protocol_to_dict(_rich_protocol())
    mutate(doc)
    with pytest.raises(DocumentError):
        protocol_from_dict(doc)


def test_protocol_dict_nested_domain_error_keeps_its_type():
    doc = protocol_to_dict(_rich_protocol())
    out = _step_doc(doc, "branches", 1, 0, "outcomes", 0)
    out["kraus"] = out["kraus"] * 2  # the instrument is no longer trace-preserving
    with pytest.raises(ValueError) as err:
        protocol_from_dict(doc)
    assert not isinstance(err.value, DocumentError)


@pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_nan_kraus_entry_is_not_trace_preserving(pos):
    # NaN fails every comparison, so the TP checks used to pass it
    k = X.copy()
    k[pos] = math.nan
    with pytest.raises(ValueError):
        local_channel(PAIR, 0, (0,), [k])
    with pytest.raises(ValueError):
        local_instrument(PAIR, 0, (0,), [("0", [k])])
    with pytest.raises(ValueError):
        local_instrument(PAIR, 0, (0,), [("0", [k @ np.diag([1.0, 0.0])]),
                                         ("1", [X @ np.diag([0.0, 1.0])])])
    # the same entry in a protocol document: a domain error, not a malformed document
    for path in (("branches", 1, 0, "outcomes", 1, "then", 0), ("branches", 1, 0, "outcomes", 0)):
        doc = protocol_to_dict(_rich_protocol())
        entries = _step_doc(doc, *path)["kraus"][0]["entries"]
        entries[2 * pos[0] + pos[1]][0] = math.nan.hex()
        with pytest.raises(ValueError) as err:
            protocol_from_dict(doc)
        assert not isinstance(err.value, DocumentError)


def test_protocol_dict_mixed_kraus_shapes_keep_their_type():
    # a channel step whose operators differ in shape is a layout error
    # (exit 1), not a malformed document (exit 2)
    from catent import _io

    doc = protocol_to_dict(_rich_protocol())
    step = _step_doc(doc, "branches", 1, 0, "outcomes", 1, "then", 0)
    step["kraus"] = [_io.encode_matrix(X), _io.encode_matrix(np.eye(3))]
    with pytest.raises(LayoutMismatchError) as err:
        protocol_from_dict(doc)
    assert not isinstance(err.value, DocumentError)


# ---------------------------------------------------------------------------
# one kernel for apply and tensor; remapped corrections


def _apply_loop(channel, state):
    # apply as it was: one Kraus operator at a time
    acc = np.zeros((channel.output_layout.total_dim,) * 2, dtype=complex)
    for k in channel.kraus:
        acc += k @ state.matrix @ k.conj().T
    return acc


def _tensor_loop(a, b):
    # Channel.tensor as it was: one kron per operator pair
    return tuple(np.kron(x, y) for x in a.kraus for y in b.kraus)


def _random_channel(din, dout, k, seed, party=0):
    # k operators cut from a random (k*dout, din) isometry: trace-preserving
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((k * dout, din)) + 1j * rng.standard_normal((k * dout, din))
    v, _ = np.linalg.qr(g)
    return Channel(tuple(v.reshape(k, dout, din)), SystemLayout([(party, din)]),
                   SystemLayout([(party, dout)]))


# (2, 2, 1100) runs the Kraus set in two chunks
@pytest.mark.parametrize("din,dout,k", [(2, 2, 1), (4, 4, 3), (4, 2, 2), (2, 4, 1),
                                        (8, 2, 5), (3, 3, 16), (32, 32, 1100)])
def test_apply_matches_kraus_loop(din, dout, k):
    ch = _random_channel(din, dout, k, seed=din * k + dout)
    s = random_state(ch.input_layout, "ginibre_mixed", seed=k)
    got = apply(ch, s)
    assert got.layout == ch.output_layout
    assert np.max(np.abs(got.matrix - _apply_loop(ch, s))) < 1e-12


def test_apply_of_a_discarding_protocol_matches_kraus_loop():
    lay = PAIR.power(2)
    proto = LoccProtocol(lay, (local_channel(lay, 0, (0, 2), _random_channel(4, 4, 3, 9).kraus),),
                         keep=(0, 3))
    flat = flatten(proto)
    assert flat._stack.shape[1:] == (4, 16)
    s = random_state(lay, "ginibre_mixed", seed=4)
    assert np.max(np.abs(apply(flat, s).matrix - _apply_loop(flat, s))) < 1e-12


@pytest.mark.parametrize("shapes", [((2, 2, 1), (2, 2, 1)), ((2, 2, 3), (3, 3, 2)),
                                    ((4, 2, 2), (2, 4, 3)), ((3, 3, 4), (2, 2, 5))])
def test_channel_tensor_is_the_kron_loop(shapes):
    (da, ea, ka), (db, eb, kb) = shapes
    a = _random_channel(da, ea, ka, seed=1)
    b = _random_channel(db, eb, kb, seed=2, party=1)
    got = a.tensor(b)
    assert got._stack.tobytes() == np.array(_tensor_loop(a, b)).tobytes()
    assert got.input_layout == a.input_layout + b.input_layout
    assert got.output_layout == a.output_layout + b.output_layout
    s = random_state(got.input_layout, "ginibre_mixed", seed=3)
    assert np.max(np.abs(apply(got, s).matrix - _apply_loop(got, s))) < 1e-12


def _measure_and_correct(pad):
    # party 0 measures its first qubit; party 1 corrects its second from a
    # stack handed in, every correction with 2 operators, or one with 1 and a
    # zero operator (a padded row)
    lay = PAIR.power(2)
    m0, m1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    fix1 = (X, 0 * X) if pad else (X / math.sqrt(2), Z / math.sqrt(2))
    stack = np.array([(Y / math.sqrt(2), Z / math.sqrt(2)), fix1])
    stack.setflags(write=False)
    inst = Instrument.from_kraus(Q0, [("a", [m0]), ("b", [m1])])
    return LoccProtocol(lay, (LocalInstrument(0, (0,), inst, (), (1, (3,), stack)),))


def assert_cases_are_rows(step):
    """Case m of a step with a correction stack is one channel on the stack's
    place whose operators are row m of the stack, sharing its memory."""
    party, factors, stack = step._fix
    assert len(step.cases) == len(stack)
    for m, (c, *rest) in enumerate(step.cases):
        assert not rest and isinstance(c, LocalChannel)
        assert (c.party, c.factors) == (party, factors)
        assert np.shares_memory(c._stack, stack[m]) and c._stack.tobytes() == stack[m].tobytes()
        assert [k.tobytes() for k in c.kraus] == [k.tobytes() for k in stack[m]]


@pytest.mark.parametrize("kind", ["synth", "joined", "padded"])
def test_remapped_corrections_are_one_view_of_the_stack(kind):
    from catent.purecat import synthesize_pure_protocol
    from catent.qstate import SchmidtVector

    if kind == "synth":
        half, skew = SchmidtVector.of((0.5, 0.5)), SchmidtVector.of((0.75, 0.25))
        proto = synthesize_pure_protocol(half.tensor(half), skew.tensor(skew), layout=PAIR.power(2))
    else:
        proto = _measure_and_correct(kind == "padded")
    (step,) = proto.steps
    assert_cases_are_rows(step)
    party, factors, stack = step._fix
    s = random_state(PAIR.power(3), "ginibre_mixed", seed=1)
    for fmap, moved_proto in (
        ((4, 1, 0, 5), embed_protocol(proto, PAIR.power(3), (4, 1, 0, 5))),
        ((2, 3, 4, 5), tensor_protocols(identity_protocol(PAIR), proto)),
    ):
        (moved,) = moved_proto.steps
        assert moved._fix[2] is stack and moved._fix[:2] == (party, tuple(fmap[i] for i in factors))
        assert moved.instrument is step.instrument
        assert_cases_are_rows(moved)
        assert np.max(np.abs(run_protocol(moved_proto, s).matrix
                             - apply(flatten(moved_proto), s).matrix)) < 1e-12
