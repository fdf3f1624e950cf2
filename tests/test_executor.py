"""The step executor and the local-contraction kernel against their oracles.

``run_protocol`` is compared with ``apply(flatten(p), .)``, the Kraus-form
composition, on random small protocols; ``apply_to_factors`` and
``instrument_apply`` are compared with Kraus sums of operators lifted to
the full space by ``_embed_operator``.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from catent.locc import (
    Channel,
    Instrument,
    LoccProtocol,
    RegisterControlled,
    _embed_operator,
    apply,
    apply_to_factors,
    flatten,
    instrument_apply,
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


@SETTINGS
@given(_layouts(), st.data())
def test_instrument_apply_matches_lifted_kraus(layout, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    counts = [data.draw(st.integers(1, 2)) for _ in range(data.draw(st.integers(1, 3)))]
    ks = _kraus(rng, layout.total_dim, sum(counts))
    edges = np.cumsum([0] + counts)
    inst = Instrument.from_kraus(
        layout, [(str(j), ks[edges[j] : edges[j + 1]]) for j in range(len(counts))]
    )
    rho = random_state(layout, "ginibre_mixed", seed=data.draw(st.integers(0, 2**16)))
    every = tuple(range(len(layout)))
    for (lab, p, post), (want_lab, ch) in zip(instrument_apply(inst, rho), inst.outcomes):
        want = np.zeros_like(rho.matrix)
        for k in ch.kraus:
            ke = _embed_operator(layout, every, k)
            want += ke @ rho.matrix @ ke.conj().T
        assert lab == want_lab
        assert abs(p - want.trace().real) <= TOL
        assert np.max(np.abs(post.matrix * p - want)) <= TOL
