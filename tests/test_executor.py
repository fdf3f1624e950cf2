"""The step executor and the local-contraction kernel against their oracles.

``run_protocol`` is compared with ``apply(flatten(p), .)``, the Kraus-form
composition, on random small protocols; ``apply_to_factors`` is compared
with Kraus sums of operators lifted to the full space by
``_embed_operator``; the contraction kernel ``_contract`` is compared with
a per-operator ``tensordot`` loop.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from catent.locc import (
    Channel,
    LoccProtocol,
    RegisterControlled,
    _contract,
    _embed_operator,
    _reorder_matrix,
    _steps_kraus,
    apply,
    apply_to_factors,
    flatten,
    local_channel,
    local_instrument,
    run_protocol,
    tensor_protocols,
)
from catent.qstate import SystemLayout, random_state

TOL = 1e-12
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _kraus(rng, d, r):
    """r Kraus operators of a random channel on dimension d: blocks of an isometry."""
    g = rng.standard_normal((r * d, d)) + 1j * rng.standard_normal((r * d, d))
    q, _ = np.linalg.qr(g)
    return [q[i * d : (i + 1) * d] for i in range(r)]


def _kraus_count(steps, count=1):
    """Number of Kraus operators ``flatten`` builds for the steps."""
    for s in steps:
        if isinstance(s, RegisterControlled):
            count *= sum(_kraus_count(b) for b in s.branches)
        elif hasattr(s, "instrument"):
            cases = s.case_map()
            count *= sum(
                len(ch.kraus) * _kraus_count(cases.get(lab, ()))
                for lab, ch in s.instrument.outcomes
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


@st.composite
def _protocols(draw, max_factors=3):
    layout = draw(_layouts(max_factors))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(_steps(layout, rng, depth=2))
    assume(_kraus_count(steps) <= 500)
    n = len(layout)
    discard = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    relabel = draw(st.none() | st.permutations(range(n - len(discard))))
    return LoccProtocol(layout, steps, discard=tuple(discard), relabel=relabel)


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


# the index maps ``_embed_operator``, ``_reorder_matrix`` and ``flatten``
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


def _index_map_flatten(protocol, keep_classical):
    """``flatten``'s Kraus list and output layout, built with the old index maps."""
    layout = protocol.input_layout
    ops = _steps_kraus(layout, protocol.steps)
    drop = set(protocol.discard)
    if not keep_classical:
        drop |= set(protocol.classical_factors)
    out_layout = layout
    if drop:
        kept = [i for i in range(len(layout)) if i not in drop]
        if not kept:
            raise ValueError("no factors left after discarding")
        dims = layout.dims
        d = layout.total_dim
        d_drop = int(np.prod([dims[i] for i in sorted(drop)]))
        pos = _index_map(dims, kept + sorted(drop))
        traces = []
        for j in range(d_drop):
            cols = np.where(pos % d_drop == j)[0]
            v = np.zeros((d // d_drop, d), dtype=complex)
            v[pos[cols] // d_drop, cols] = 1.0
            traces.append(v)
        ops = [v @ op for v in traces for op in ops]
        out_layout = layout.subset(kept)
    if protocol.relabel is not None and keep_classical:
        r = _index_map_reorder(out_layout.dims, protocol.relabel)
        ops = [r @ op for op in ops]
        out_layout = out_layout.subset(protocol.relabel)
    elif protocol.relabel is not None:
        raise ValueError("cannot relabel after discarding classical registers")
    return [op for op in ops if np.any(op)], out_layout


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
    order = data.draw(st.permutations(range(n)))
    got = _reorder_matrix(layout.dims, order)
    assert got.tobytes() == _index_map_reorder(layout.dims, order).tobytes()


@SETTINGS
@given(_layouts(), st.data())
def test_flatten_matches_old_index_maps(layout, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    steps = data.draw(_steps(layout, rng, depth=2))
    assume(_kraus_count(steps) <= 500)
    n = len(layout)
    discard = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    protocol = LoccProtocol(
        layout,
        steps,
        discard=tuple(discard),
        relabel=data.draw(st.none() | st.permutations(range(n - len(discard)))),
        classical_factors=tuple(data.draw(st.sets(st.integers(0, n - 1)))),
    )
    keep_classical = data.draw(st.booleans())
    try:
        ops, out_layout = _index_map_flatten(protocol, keep_classical)
    except ValueError:
        with pytest.raises(ValueError):
            flatten(protocol, keep_classical=keep_classical)
        return
    got = flatten(protocol, keep_classical=keep_classical)
    assert got.output_layout == out_layout
    assert got._stack.tobytes() == np.array(ops).tobytes()


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
    # dims 1-4, touched axes in any order, 1-17 operators (any: the kernel
    # needs no channel), and tensors that are a register's diagonal block,
    # a non-contiguous view with one axis sliced to size 1
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
    count = data.draw(st.integers(1, 17))
    stack = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    # unit Frobenius norms keep every entry of the result within 1
    t = t / np.linalg.norm(t)
    stack = stack / np.linalg.norm(stack)
    got = _contract(t, stack, axes)
    want = _tensordot_contract(t, stack, axes)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL
