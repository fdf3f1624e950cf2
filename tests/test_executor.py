"""The step executor and the local-contraction kernel against their oracles.

``run_protocol`` is compared with ``apply(flatten(p), .)``, the Kraus-form
composition, on random small protocols; ``apply_to_factors`` is compared
with Kraus sums of operators lifted to the full space by
``_embed_operator``; the contraction kernel ``_contract`` is compared with
a per-operator ``tensordot`` loop, with and without a correction stack.  A
measure-and-correct step, handed its correction stack, runs as one pair
contraction; it is compared with the same step built from its cases, which
runs outcome by outcome, the general path.
"""

import functools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from catent import locc
from catent.errors import DocumentError
from catent.locc import (
    Channel,
    Instrument,
    LocalInstrument,
    LoccProtocol,
    RegisterControlled,
    _contract,
    _run_matrix,
    _embed_operator,
    _steps_kraus,
    apply,
    apply_to_factors,
    flatten,
    embed_protocol,
    local_channel,
    local_instrument,
    local_unitary,
    perm_unitary,
    protocol_from_dict,
    protocol_to_dict,
    run_protocol,
    load_protocol,
    save_protocol,
    tensor_protocols,
)
from catent.purecat import synthesize_pure_protocol
from catent.qstate import SchmidtVector, SystemLayout, random_state
from test_locc import assert_cases_are_rows

TOL = 1e-12
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _kraus(rng, d, r, real=False):
    """r Kraus operators of a random channel on dimension d: blocks of an isometry."""
    g = rng.standard_normal((r * d, d)) + (0 if real else 1j) * rng.standard_normal((r * d, d))
    q, _ = np.linalg.qr(g)
    return [q[i * d : (i + 1) * d] for i in range(r)]


def _kraus_count(steps, count=1):
    """Number of Kraus operators ``flatten`` builds for the steps."""
    for s in steps:
        if isinstance(s, RegisterControlled):
            count *= sum(_kraus_count(b) for b in s.branches)
        elif hasattr(s, "instrument"):
            count *= sum(
                len(ch.kraus) * _kraus_count(cont)
                for (_, ch), cont in zip(s.instrument.outcomes, s.cases)
            )
        else:
            count *= len(s.kraus)
    return count


@st.composite
def _layouts(draw, max_factors=3):
    n = draw(st.integers(1, max_factors))
    return SystemLayout(
        [(draw(st.integers(0, 1)), draw(st.sampled_from((2, 3)))) for _ in range(n)]
    )


@st.composite
def _steps(draw, layout, rng, depth, fixed=frozenset()):
    """Random steps; factors in ``fixed`` (enclosing registers) stay untouched."""
    free = [i for i in range(len(layout)) if i not in fixed]
    kinds = ["channel", "instrument"] + (["controlled"] if depth > 0 else [])
    steps = []
    for _ in range(draw(st.integers(0, 3 if depth == 2 else 2))):
        if not free:
            break
        kind = draw(st.sampled_from(kinds))
        if kind == "controlled":
            reg = draw(st.sampled_from(free))
            dim = layout[reg].dim
            branches = [draw(_steps(layout, rng, depth - 1, fixed | {reg})) for _ in range(dim)]
            # updates need not be injective: branches may merge into one block
            updates = [draw(st.integers(0, dim - 1)) for _ in range(dim)]
            steps.append(RegisterControlled(reg, branches, updates))
            continue
        party = draw(st.sampled_from(sorted({layout[i].party for i in free})))
        own = [i for i in free if layout[i].party == party]
        factors = tuple(draw(st.permutations(own))[: draw(st.integers(1, len(own)))])
        d = math.prod(layout[i].dim for i in factors)
        if kind == "channel":
            kraus = _kraus(rng, d, draw(st.integers(1, 2)))
            steps.append(local_channel(layout, party, factors, kraus))
            continue
        counts = [draw(st.integers(1, 2)) for _ in range(draw(st.integers(1, 3)))]
        ks = _kraus(rng, d, sum(counts))
        edges = np.cumsum([0] + counts)
        outcomes = [(str(j), ks[edges[j] : edges[j + 1]]) for j in range(len(counts))]
        cases = {}
        if depth > 0:
            for lab, _ in outcomes:
                if draw(st.booleans()):
                    cases[lab] = draw(_steps(layout, rng, depth - 1, fixed))
        steps.append(local_instrument(layout, party, factors, outcomes, cases))
    return steps


def _keeps(n):
    """``None``, or any non-empty list of distinct factors of ``n``."""
    return st.none() | st.permutations(range(n)).flatmap(
        lambda p: st.integers(1, n).map(lambda k: p[:k])
    )


@st.composite
def _protocols(draw, max_factors=3):
    layout = draw(_layouts(max_factors))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(_steps(layout, rng, depth=2))
    assume(_kraus_count(steps) <= 500)
    return LoccProtocol(layout, steps, keep=draw(_keeps(len(layout))))


@SETTINGS
@given(_protocols(), st.integers(0, 2**16))
def test_run_protocol_matches_flatten(protocol, seed):
    rho = random_state(protocol.input_layout, "ginibre_mixed", seed=seed)
    got = run_protocol(protocol, rho)
    want = apply(flatten(protocol), rho)
    assert got.layout == want.layout
    assert np.max(np.abs(got.matrix - want.matrix)) <= TOL


@SETTINGS
@given(_protocols(max_factors=2), _protocols(max_factors=2), st.integers(0, 2**16))
def test_tensor_protocols_matches_tensored_channels(first, second, seed):
    flat1, flat2 = flatten(first), flatten(second)
    # the tensored oracle holds the product of the two Kraus counts
    assume(len(flat1.kraus) * len(flat2.kraus) <= 400)
    rho = random_state(first.input_layout + second.input_layout, "ginibre_mixed", seed=seed)
    got = run_protocol(tensor_protocols(first, second), rho)
    want = apply(flat1.tensor(flat2), rho)
    assert got.layout == want.layout
    assert np.max(np.abs(got.matrix - want.matrix)) <= TOL


@SETTINGS
@given(_layouts(), st.data())
def test_apply_to_factors_matches_lifted_kraus(layout, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = len(layout)
    factors = tuple(data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))])
    sub = layout.subset(factors)
    ch = Channel(tuple(_kraus(rng, sub.total_dim, data.draw(st.integers(1, 4)))), sub, sub)
    rho = random_state(layout, "ginibre_mixed", seed=data.draw(st.integers(0, 2**16)))
    want = np.zeros_like(rho.matrix)
    for k in ch.kraus:
        ke = _embed_operator(layout, factors, k)
        want += ke @ rho.matrix @ ke.conj().T
    got = apply_to_factors(ch, rho, factors)
    assert np.max(np.abs(got.matrix - want)) <= TOL


# the index maps ``_embed_operator``, ``perm_unitary`` and ``flatten``
# used before they shared one position helper, kept as byte-level oracles


def _index_map(dims, order):
    multis = np.unravel_index(np.arange(math.prod(dims)), dims)
    return np.ravel_multi_index([multis[i] for i in order], [dims[i] for i in order])


def _index_map_embed(layout, factors, k):
    dims = layout.dims
    sel = list(factors)
    rest = [i for i in range(len(dims)) if i not in set(sel)]
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    full = np.kron(k, np.eye(d_rest, dtype=complex))
    pos = _index_map(dims, sel + rest)
    return full[np.ix_(pos, pos)]


def _index_map_reorder(dims, order):
    d = math.prod(dims)
    p = np.zeros((d, d), dtype=complex)
    p[_index_map(dims, order), np.arange(d)] = 1.0
    return p


def _index_map_flatten(protocol):
    """``flatten``'s Kraus list and output layout, built with the old index maps.

    The factors ``keep`` drops are traced out by one map per basis state of
    theirs onto the rest in order, and a reorder of the rest follows.  The
    two maps are composed before an operator meets them: ``r @ (v @ op)``
    and ``(r @ v) @ op`` may differ in the sign of a zero entry.
    """
    layout = protocol.input_layout
    ops = _steps_kraus(layout, protocol.steps)
    if protocol.keep is None:
        return [op for op in ops if np.any(op)], layout
    keep, kept = list(protocol.keep), sorted(protocol.keep)
    drop = [i for i in range(len(layout)) if i not in keep]
    dims = layout.dims
    d = layout.total_dim
    d_drop = int(np.prod([dims[i] for i in drop]))
    pos = _index_map(dims, kept + drop)
    traces = []
    for j in range(d_drop):
        cols = np.where(pos % d_drop == j)[0]
        v = np.zeros((d // d_drop, d), dtype=complex)
        v[pos[cols] // d_drop, cols] = 1.0
        traces.append(v)
    r = _index_map_reorder(layout.subset(kept).dims, [kept.index(i) for i in keep])
    ops = [(r @ v) @ op for v in traces for op in ops]
    return [op for op in ops if np.any(op)], layout.subset(keep)


@SETTINGS
@given(_layouts(max_factors=4), st.data())
def test_embed_and_reorder_match_old_index_maps(layout, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = len(layout)
    factors = tuple(data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))])
    d = math.prod(layout[i].dim for i in factors)
    k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    got = _embed_operator(layout, factors, k)
    assert got.tobytes() == _index_map_embed(layout, factors, k).tobytes()
    # perm_unitary moves a factor only onto an equal dim: permute within each class
    dims, order = layout.dims, list(range(n))
    for dim in sorted(set(dims)):
        slots = [i for i in range(n) if dims[i] == dim]
        for t, s in zip(slots, data.draw(st.permutations(slots))):
            order[t] = s
    got = perm_unitary(dims, order)
    assert got.tobytes() == _index_map_reorder(dims, order).tobytes()


@SETTINGS
@given(_layouts(), st.data())
def test_flatten_matches_old_index_maps(layout, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    steps = data.draw(_steps(layout, rng, depth=2))
    assume(_kraus_count(steps) <= 500)
    protocol = LoccProtocol(layout, steps, keep=data.draw(_keeps(len(layout))))
    ops, out_layout = _index_map_flatten(protocol)
    got = flatten(protocol)
    assert got.output_layout == out_layout
    assert got._stack.tobytes() == np.array(ops).tobytes()


@SETTINGS
@given(_layouts(), st.data())
def test_discard_relabel_documents_reencode_byte_identically(layout, data):
    # a document writes ``keep`` as ``discard`` and a ``relabel`` of the
    # factors ``discard`` leaves; every pair of them decodes and re-encodes
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    steps = data.draw(_steps(layout, rng, depth=1))
    n = len(layout)
    discard = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
    kept = [i for i in range(n) if i not in discard]
    relabel = data.draw(st.none() | st.permutations(range(len(kept))))
    doc = {**protocol_to_dict(LoccProtocol(layout, steps)), "discard": discard, "relabel": relabel}
    back = protocol_from_dict(doc)
    keep = [kept[j] for j in relabel or range(len(kept))]
    assert list(back.keep or range(n)) == keep
    assert back.output_layout() == layout.subset(keep)
    # a relabel that leaves every kept factor in place is written as null
    if relabel == list(range(len(kept))):
        doc["relabel"] = None
    assert json.dumps(protocol_to_dict(back)) == json.dumps(doc)


def _tensordot_contract(t, kraus, axes):
    """sum_k K t K^dag, one ``tensordot`` pair per operator: the oracle of ``_contract``."""
    n = t.ndim // 2
    m = len(axes)
    sub = tuple(t.shape[a] for a in axes)
    rows = tuple(axes)
    cols = tuple(n + a for a in axes)
    ins = tuple(range(m, 2 * m))
    acc = np.zeros(t.shape, dtype=complex)
    for k in kraus:
        kt = k.reshape(sub + sub)
        y = np.moveaxis(np.tensordot(kt, t, axes=(ins, rows)), range(m), rows)
        y = np.tensordot(y, kt.conj(), axes=(cols, ins))
        acc += np.moveaxis(y, range(2 * n - m, 2 * n), cols)
    return acc


@SETTINGS
@given(st.data())
def test_contract_matches_tensordot_loop(data):
    # dims 1-4, touched axes in any order, 1-3 outcomes of 1-17 operators
    # (any: the kernel needs no channel), tensors that are a register's
    # diagonal block, a non-contiguous view with one axis sliced to size 1,
    # and the batch budget forced down to one operator, which splits a wide
    # outcome into one-operator outcomes
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    n = len(dims)
    t = rng.standard_normal(dims + dims) + 1j * rng.standard_normal(dims + dims)
    if n > 1 and data.draw(st.booleans()):
        reg = data.draw(st.integers(0, n - 1))
        value = data.draw(st.integers(0, dims[reg] - 1))
        idx = [slice(None)] * (2 * n)
        idx[reg] = idx[n + reg] = slice(value, value + 1)
        t = t[tuple(idx)]
        free = [i for i in range(n) if i != reg]
    else:
        free = list(range(n))
    axes = tuple(data.draw(st.permutations(free))[: data.draw(st.integers(1, len(free)))])
    d = math.prod(t.shape[a] for a in axes)
    m, count = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 17))
    stack = rng.standard_normal((m, count, d, d)) + 1j * rng.standard_normal((m, count, d, d))
    # unit Frobenius norms keep every entry of the result within 1
    t = t / np.linalg.norm(t)
    stack = stack / np.linalg.norm(stack)
    with mock.patch.object(locc, "_BATCH_ELEMS", data.draw(st.integers(1, m * count * t.size))):
        got = _contract(t, stack, axes)
    want = sum(_tensordot_contract(t, stack[p], axes) for p in range(m))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL


# ---------------------------------------------------------------------------
# measure-and-correct steps: the pair contraction against the outcome loop


def _outcome_loop(protocol):
    """``protocol`` with its top-level instrument steps rebuilt from their
    cases, so the executor runs those outcome by outcome."""
    steps = []
    for s in protocol.steps:
        if isinstance(s, LocalInstrument):
            s = LocalInstrument(s.party, s.factors, s.instrument, s.cases)
            assert s._fix is None
        steps.append(s)
    return LoccProtocol(protocol.input_layout, steps, keep=protocol.keep)


def _assert_pair_path_matches_loop(protocol, matrix):
    assert any(getattr(s, "_fix", None) is not None for s in protocol.steps)
    got, want = _run_matrix(protocol, matrix), _run_matrix(_outcome_loop(protocol), matrix)
    assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("src,tgt", [((0.5, 0.5), (0.7731, 0.2269)), ((0.6, 0.4), (0.8, 0.2))])
def test_pair_path_matches_outcome_loop_on_synthesis(n, src, tgt):
    pair = SystemLayout([(0, 2), (1, 2)])
    s, t = (functools.reduce(SchmidtVector.tensor, [SchmidtVector.of(p)] * n) for p in (src, tgt))
    proto = synthesize_pure_protocol(s, t, layout=pair.power(n))
    # the catalyst joint: the last pair copy first, then the others, then the register
    fmap = [i if j == n - 1 else (j + 1) * 2 + i for j in range(n) for i in range(2)]
    emb = embed_protocol(proto, pair.power(n) + SystemLayout([(0, n)]), fmap)
    assert emb.steps[0]._fix[2] is proto.steps[0]._fix[2]
    for p in (proto, emb):
        _assert_pair_path_matches_loop(p, random_state(p.input_layout, "ginibre_mixed", seed=n).matrix)


# party 0 holds factors 0 and 2, party 1 factor 1
_MIXED = SystemLayout([(0, 2), (1, 3), (0, 2)])


@SETTINGS
@given(st.data())
def test_pair_path_matches_outcome_loop_on_random_instruments(data):
    # 1-3 Kraus operators an outcome, in a zero-padded stack handed in; a
    # correction stack handed in, each row the identity or a channel of 1-2
    # operators padded to 2; real or complex
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    real = data.draw(st.booleans())
    a_factors = data.draw(st.sampled_from([(0,), (2, 0), (0, 2)]))
    fix_party, fix_factors = data.draw(
        st.sampled_from([w for w in ((1, (1,)), (0, (2,))) if w[1][0] not in a_factors])
    )
    da = math.prod(_MIXED[i].dim for i in a_factors)
    db = math.prod(_MIXED[i].dim for i in fix_factors)
    counts = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    ks = _kraus(rng, da, sum(counts), real)
    stack = np.zeros((len(counts), 3, da, da), dtype=float if real else complex)
    for m, lo in enumerate(np.cumsum([0] + counts)[:-1]):
        stack[m, : counts[m]] = ks[lo : lo + counts[m]]
    stack.setflags(write=False)
    labels = [f"o{m}" for m in range(len(counts))]
    inst = Instrument._from_stack(labels, stack, _MIXED.subset(a_factors))
    fix = np.zeros((len(labels), 2, db, db), dtype=stack.dtype)
    for m in range(len(labels)):
        if data.draw(st.booleans()):
            ks = _kraus(rng, db, data.draw(st.integers(1, 2)), real)
            fix[m, : len(ks)] = ks
        else:
            fix[m, 0] = np.eye(db)
    fix.setflags(write=False)
    step = LocalInstrument(0, a_factors, inst, (), (fix_party, fix_factors, fix))
    assert_cases_are_rows(step)
    rho = random_state(_MIXED, "ginibre_mixed", seed=data.draw(st.integers(0, 2**16)))
    _assert_pair_path_matches_loop(LoccProtocol(_MIXED, [step]), rho.matrix)


@SETTINGS
@given(st.data())
def test_contract_pairs_matches_outcome_loop_in_chunks(data):
    # the kernel alone, on register blocks (non-contiguous views) too, with
    # the chunk size forced down to 1..M outcomes, and below one outcome,
    # which splits each outcome into its (k, j) operator pairs
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    n = len(dims)
    t = rng.standard_normal(dims + dims) + 1j * rng.standard_normal(dims + dims)
    if data.draw(st.booleans()):
        t = t[(slice(None),) * (n - 1) + (slice(0, 1),) + (slice(None),) * (n - 1) + (slice(0, 1),)]
        dims = dims[:-1] + (1,)
    order = data.draw(st.permutations(range(n)))
    cut = data.draw(st.integers(1, n - 1))
    a_axes = tuple(order[:cut][: data.draw(st.integers(1, cut))])
    b_axes = tuple(order[cut:][: data.draw(st.integers(1, n - cut))])
    da, db = (math.prod(dims[i] for i in ax) for ax in (a_axes, b_axes))
    m, k, j = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = rng.standard_normal((m, k, da, da)) + 1j * rng.standard_normal((m, k, da, da))
    b = rng.standard_normal((m, j, db, db))
    want = sum(
        _tensordot_contract(_tensordot_contract(t, a[p], a_axes), b[p], b_axes) for p in range(m)
    )
    with mock.patch.object(locc, "_BATCH_ELEMS", data.draw(st.integers(1, m * max(k, j) * t.size))):
        got = _contract(t, a, a_axes, b, b_axes)
    assert np.max(np.abs(got - want)) <= TOL * max(1.0, np.max(np.abs(want)))


def test_other_instrument_steps_run_outcome_by_outcome():
    # a step built from cases keeps no correction stack, whatever its cases
    # hold: continuations of two steps, a register branch, a correction on
    # the measured factor, corrections on two places, or one correction
    lay = SystemLayout([(0, 2), (1, 2), (1, 2)])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = [("0", [np.diag([1.0, 0.0])]), ("1", [np.diag([0.0, 1.0])])]
    x1, x2, x0 = (local_unitary(lay, p, (f,), x) for p, f in ((1, 1), (1, 2), (0, 0)))
    ctrl = RegisterControlled(2, ((x1,), ()), (0, 1))
    for cases in ({"1": [x1, x1]}, {"1": [ctrl]}, {"1": [x0]}, {"0": [x1], "1": [x2]}, {},
                  {"1": [x1]}):
        step = local_instrument(lay, 0, (0,), z, cases)
        assert step._fix is None
        proto = LoccProtocol(lay, [step])
        rho = random_state(lay, "ginibre_mixed", seed=len(cases))
        want = apply(flatten(proto), rho)
        assert np.max(np.abs(run_protocol(proto, rho).matrix - want.matrix)) <= TOL


@st.composite
def _measure_and_correct(draw):
    """A one-step protocol, built by the public constructors: party 0
    measures some of its factors, then each outcome is left alone or
    corrected by one channel on factors apart from the measured ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a_factors = draw(st.sampled_from([(0,), (2,), (2, 0)]))
    fix_party, fix_factors = draw(
        st.sampled_from([w for w in ((1, (1,)), (0, (2,)), (0, (0,))) if w[1][0] not in a_factors])
    )
    da = math.prod(_MIXED[i].dim for i in a_factors)
    db = math.prod(_MIXED[i].dim for i in fix_factors)
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    ks = _kraus(rng, da, sum(counts))
    edges = np.cumsum([0] + counts)
    outcomes = [(f"o{m}", ks[edges[m] : edges[m + 1]]) for m in range(len(counts))]
    cases = {lab: [] for lab, _ in outcomes if draw(st.booleans())}
    for lab in cases:
        if draw(st.booleans()):
            cases[lab] = [local_channel(_MIXED, fix_party, fix_factors, _kraus(rng, db, draw(st.integers(1, 2))))]
    assume(any(cases.values()))
    return LoccProtocol(_MIXED, [local_instrument(_MIXED, 0, a_factors, outcomes, cases)])


def test_measure_and_correct_documents_through_both_paths(tmp_path):
    # the synthesized n=3 protocol with a depolarizing step appended, saved
    # and reloaded as a ``file:`` protocol is: the reloaded step is built from
    # its cases, so in the catalyst joint it runs outcome by outcome, and
    # gives what the synthesized step's stack run gives
    pair, n = SystemLayout([(0, 2), (1, 2)]), 3
    s, t = (functools.reduce(SchmidtVector.tensor, [SchmidtVector.of(p)] * n)
            for p in ((0.5, 0.5), (0.7731, 0.2269)))
    base = synthesize_pure_protocol(s, t, layout=pair.power(n))
    dep = Channel.depolarizing(SystemLayout([(0, 2)]), 0.9)
    proto = LoccProtocol(base.input_layout,
                         base.steps + (local_channel(base.input_layout, 0, (0,), dep.kraus),))
    save_protocol(proto, tmp_path / "noisy_synth.json")
    back = load_protocol(tmp_path / "noisy_synth.json")
    assert proto.steps[0]._fix is not None and back.steps[0]._fix is None
    joint = pair.power(n) + SystemLayout([(0, n)])
    fmap = [i if j == n - 1 else (j + 1) * 2 + i for j in range(n) for i in range(2)]
    stacked, looped = (embed_protocol(p, joint, fmap) for p in (proto, back))
    assert looped.steps[0]._fix is None
    rho = random_state(joint, "ginibre_mixed", seed=n).matrix
    assert np.max(np.abs(_run_matrix(looped, rho) - _run_matrix(stacked, rho))) <= TOL
    # cases that each hold one correction at one place keep no stack either,
    # and run as the same corrections handed in as a stack do
    rng = np.random.default_rng(0)
    outcomes = [(lab, [k]) for lab, k in zip("ab", _kraus(rng, 2, 2))]
    fixes = [_kraus(rng, 3, 2) for _ in outcomes]
    cases = {lab: [local_channel(_MIXED, 1, (1,), f)] for (lab, _), f in zip(outcomes, fixes)}
    step = local_instrument(_MIXED, 0, (0,), outcomes, cases)
    assert step._fix is None
    stack = np.array(fixes)
    stack.setflags(write=False)
    handed = LocalInstrument(0, (0,), step.instrument, (), (1, (1,), stack))
    rho = random_state(_MIXED, "ginibre_mixed", seed=1).matrix
    got = _run_matrix(LoccProtocol(_MIXED, [step]), rho)
    assert np.max(np.abs(got - _run_matrix(LoccProtocol(_MIXED, [handed]), rho))) <= TOL


@SETTINGS
@given(_measure_and_correct(), st.integers(0, 2**16), st.data())
def test_instrument_documents_reload_and_refuse_mutations(protocol, seed, data):
    doc = protocol_to_dict(protocol)
    back = protocol_from_dict(doc)
    assert protocol_to_dict(back) == doc
    assert protocol.steps[0]._fix is None and back.steps[0]._fix is None
    rho = random_state(_MIXED, "ginibre_mixed", seed=seed).matrix
    assert _run_matrix(back, rho).tobytes() == _run_matrix(protocol, rho).tobytes()
    # a NaN entry, a shape the factors cannot take, a dropped outcome
    outcomes = doc["steps"][0]["outcomes"]
    m = data.draw(st.integers(0, len(outcomes) - 1))
    cases = [o["then"][0] for o in outcomes if o["then"]]
    where = data.draw(st.sampled_from([outcomes[m]] + cases))
    mutation = data.draw(st.sampled_from(["nan", "shape", "drop"]))
    if mutation == "nan":
        where["kraus"][0]["entries"][0][data.draw(st.integers(0, 1))] = "nan"
    elif mutation == "shape":
        where["kraus"][-1] = {"shape": [4, 4], "entries": [["0x0p+0"] * 2] * 16}
    else:
        assume(len(outcomes) > 1)
        del outcomes[m]
    with pytest.raises(ValueError) as err:
        protocol_from_dict(doc)
    assert not isinstance(err.value, DocumentError)
