import re
import tracemalloc

import numpy as np
import pytest

from catent import catfactory, cli
from catent.catfactory import (
    _catalytic_step,
    _fixed_point,
    _herm_dist,
    build_catalyst,
    iterate_reuse,
    reuse_joint,
    verify_catalysis,
    verify_marginal_reduction,
)
from catent.errors import DimensionCapError, LayoutMismatchError
from catent.locc import (
    Channel,
    LoccProtocol,
    apply,
    flatten,
    embed_protocol,
    identity_protocol,
    local_channel,
    run_protocol,
    save_protocol,
)
from catent import distill
from catent.purecat import canonical_pure, synthesize_pure_protocol
from catent.qstate import (
    QState,
    SchmidtVector,
    SystemLayout,
    maximally_mixed,
    n_copies,
    partial_trace,
    permute_factors,
    random_state,
    tensor,
    trace_norm_dist,
)

PAIR = SystemLayout([(0, 2), (1, 2)])
HALF = SchmidtVector.of((0.5, 0.5))
SKEW = SchmidtVector.of((0.75, 0.25))


def _pow(v, n):
    out = v
    for _ in range(n - 1):
        out = out.tensor(v)
    return out


def _synth_lambda(n):
    return synthesize_pure_protocol(_pow(HALF, n), _pow(SKEW, n), layout=PAIR.power(n))


def _noisy_lambda(n, keep):
    # depolarize the first output copy's party-0 qubit after converting
    base = _synth_lambda(n)
    dep = Channel.depolarizing(SystemLayout([(0, 2)]), keep)
    extra = local_channel(base.input_layout, 0, (0,), dep.kraus)
    return LoccProtocol(base.input_layout, base.steps + (extra,))


def _copy_errors(lam, rho, sigma, n):
    # brute-force per-copy marginals of the n-copy protocol output
    gamma = apply(flatten(lam), n_copies(rho, n))
    return [
        trace_norm_dist(partial_trace(gamma, range(2 * k, 2 * k + 2)), sigma)
        for k in range(n)
    ]


# ---------------------------------------------------------------------------
# construction identities


def test_identity_catalyst_n2():
    rho = random_state(PAIR, "ginibre_mixed", seed=3)
    asm = build_catalyst(identity_protocol(PAIR.power(2)), rho, 2)
    want = np.kron(rho.matrix, np.eye(2, dtype=complex) / 2)
    assert np.max(np.abs(asm.tau.matrix - want)) < 1e-12
    assert trace_norm_dist(asm.expected_output(), rho) < 1e-12
    cert = verify_catalysis(asm.embedding, asm.tau, rho, rho)
    assert cert.epsilon_achieved < 1e-9
    assert cert.catalyst_drift < 1e-9
    assert cert.correlation < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_assembly_identities_against_brute_force(n):
    rho = canonical_pure((0.5, 0.5))
    lam = _synth_lambda(n)
    asm = build_catalyst(lam, rho, n)
    gamma = apply(flatten(lam), n_copies(rho, n))
    marg = [partial_trace(gamma, range(2 * k, 2 * k + 2)) for k in range(n)]
    avg = QState(PAIR, sum(g.matrix for g in marg) / n)
    mu = apply(flatten(asm.embedding), tensor(rho, asm.tau))
    assert trace_norm_dist(partial_trace(mu, range(2, 2 * n + 1)), asm.tau) < 1e-9
    assert trace_norm_dist(partial_trace(mu, range(2)), avg) < 1e-9
    for got, want in zip(asm.gamma_marginals, marg):
        assert trace_norm_dist(got, want) < 1e-12


def test_synthesized_n2_converts_exactly():
    rho = canonical_pure((0.5, 0.5))
    sigma = canonical_pure((0.75, 0.25))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    cert = verify_catalysis(asm.embedding, asm.tau, rho, sigma)
    assert cert.epsilon_achieved < 1e-9
    assert cert.catalyst_drift < 1e-9


@pytest.mark.parametrize("n,keep", [(2, 0.95), (2, 0.8), (3, 0.9)])
def test_average_error_bound(n, keep):
    # the one-copy output averages the per-copy errors of the source protocol
    rho = canonical_pure((0.5, 0.5))
    sigma = canonical_pure((0.75, 0.25))
    lam = _noisy_lambda(n, keep)
    asm = build_catalyst(lam, rho, n)
    eps = max(_copy_errors(lam, rho, sigma, n))
    delta = 1e-6  # every slot designated; slack floored to keep strictness
    cert = verify_catalysis(asm.embedding, asm.tau, rho, sigma)
    assert cert.catalyst_drift < 1e-9
    assert cert.epsilon_achieved < eps + 2 * delta


def _kraus_induced_step(kraus, rho_m, x, ds, dc):
    # sum_k tr_S K (rho x) K^dag, the catalyst update from the Kraus form
    out = np.zeros((dc, dc), dtype=complex)
    for k in kraus:
        y = (k @ np.kron(rho_m, x) @ k.conj().T).reshape(ds, dc, ds, dc)
        out += np.einsum("tetf->ef", y)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_catalyst_embedding_matches_flatten(n):
    # n=3 is the largest Kraus form in the suite: 642 operators at d=192
    rho = canonical_pure((0.5, 0.5))
    asm = build_catalyst(_noisy_lambda(n, 0.9), rho, n)
    flat = flatten(asm.embedding)
    src = tensor(rho, asm.tau)
    got = run_protocol(asm.embedding, src)
    assert np.max(np.abs(got.matrix - apply(flat, src).matrix)) < 1e-12
    ds, dc = rho.total_dim, asm.tau.total_dim
    x = random_state(asm.tau.layout, "ginibre_mixed", seed=n).matrix
    cat = range(2, len(asm.embedding.input_layout))
    got = _catalytic_step(asm.embedding, (rho.matrix, x), (cat,))[1][0]
    want = _kraus_induced_step(flat.kraus, rho.matrix, x, ds, dc)
    assert np.max(np.abs(got - want)) < 1e-12


def test_fixed_point_recovers_exact_catalyst_n2():
    # the exact catalyst is the fixed point the Kraus-form solver also found
    rho = canonical_pure((0.5, 0.5))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    mix = maximally_mixed(asm.tau.layout)
    tau_eps = QState(asm.tau.layout, 0.97 * asm.tau.matrix + 0.03 * mix.matrix)
    x = _fixed_point(asm.embedding, rho, tau_eps.matrix)
    assert np.max(np.abs(x - asm.tau.matrix)) < 1e-10
    _, (x_next,) = _catalytic_step(asm.embedding, (rho.matrix, x), (range(2, 5),))
    assert _herm_dist(x_next, x) < 1e-12
    _, cert = iterate_reuse(asm.embedding, tau_eps, rho, 1)
    assert cert.fixed_point_residual < 1e-12
    assert abs(cert.epsilon_initial - trace_norm_dist(tau_eps, asm.tau)) < 1e-10


def test_wrong_catalyst_reports_drift():
    rho = canonical_pure((0.5, 0.5))
    sigma = canonical_pure((0.75, 0.25))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    cert = verify_catalysis(asm.embedding, maximally_mixed(asm.tau.layout), rho, sigma)
    assert cert.catalyst_drift > 0.05


def test_build_validations():
    rho = canonical_pure((0.5, 0.5))
    with pytest.raises(ValueError):
        build_catalyst(identity_protocol(PAIR.power(2)), rho, 1)
    with pytest.raises(LayoutMismatchError):
        build_catalyst(identity_protocol(PAIR.power(3)), rho, 2)
    with pytest.raises(LayoutMismatchError):
        build_catalyst(LoccProtocol(PAIR.power(2), (), keep=(0, 1, 2)), rho, 2)
    with pytest.raises(DimensionCapError):
        build_catalyst(identity_protocol(PAIR.power(5)), rho, 5)
    # the cap comes first, and without building the integer 4**(10**7),
    # which alone takes 2.5 MB
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapError, match="10000000 copies of dimension 4"):
            build_catalyst(identity_protocol(PAIR.power(2)), rho, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# catalyst reuse


def test_iterate_exact_catalyst_constant_delta():
    rho = canonical_pure((0.5, 0.5))
    sigma = canonical_pure((0.75, 0.25))
    asm = build_catalyst(_noisy_lambda(2, 0.9), rho, 2)
    out, cert = iterate_reuse(asm.embedding, asm.tau, rho, 4, sigma=sigma)
    assert cert.epsilon_initial < 1e-12
    assert cert.fixed_point_residual < 1e-12
    assert cert.delta_single_shot > 0.01
    for e in cert.per_marginal_errors:
        assert abs(e - cert.delta_single_shot) < 1e-9
    for d in cert.catalyst_drifts:
        assert d < 1e-9
    assert len(out) == 4 and all(o.layout == PAIR for o in out)


def test_iterate_depolarized_catalyst_non_accumulation():
    rho = canonical_pure((0.5, 0.5))
    sigma = canonical_pure((0.75, 0.25))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    mix = maximally_mixed(asm.tau.layout)
    for x in (0.005, 0.02):
        tau_eps = QState(asm.tau.layout, (1 - x) * asm.tau.matrix + x * mix.matrix)
        _, cert = iterate_reuse(asm.embedding, tau_eps, rho, 5, tau=asm.tau, sigma=sigma)
        eps0 = cert.epsilon_initial
        assert eps0 > 1e-4
        assert all(d <= eps0 + 1e-9 for d in cert.catalyst_drifts)
        bound = eps0 + cert.delta_single_shot + 1e-9
        assert all(e <= bound for e in cert.per_marginal_errors)


def test_iterate_solver_recovers_exact_catalyst():
    rho = canonical_pure((0.5, 0.5))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    mix = maximally_mixed(asm.tau.layout)
    tau_eps = QState(asm.tau.layout, 0.97 * asm.tau.matrix + 0.03 * mix.matrix)
    _, cert = iterate_reuse(asm.embedding, tau_eps, rho, 2)
    assert cert.fixed_point_residual < 1e-12
    assert abs(cert.epsilon_initial - trace_norm_dist(tau_eps, asm.tau)) < 1e-9
    assert cert.delta_single_shot == 0.0  # sigma defaults to the ideal output


def test_iterate_negative_control_growing_drift():
    rho = canonical_pure((0.5, 0.5))
    sigma = canonical_pure((0.75, 0.25))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    joint = asm.embedding.input_layout
    dep = Channel.depolarizing(SystemLayout([(0, 2)]), 0.97)
    bad = LoccProtocol(joint, asm.embedding.steps + (local_channel(joint, 0, (2,), dep.kraus),))
    _, cert = iterate_reuse(bad, asm.tau, rho, 4, tau=asm.tau, sigma=sigma)
    assert cert.fixed_point_residual > 1e-3
    d = cert.catalyst_drifts
    assert d[0] > 1e-3
    assert d[1] > d[0] + 1e-6
    assert d[-1] >= d[0]


def test_track_joint_cross_check():
    rho = canonical_pure((0.5, 0.5))
    sigma = canonical_pure((0.75, 0.25))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    mix = maximally_mixed(asm.tau.layout)
    tau_eps = QState(asm.tau.layout, 0.98 * asm.tau.matrix + 0.02 * mix.matrix)
    outs, cert = iterate_reuse(asm.embedding, tau_eps, rho, 3, tau=asm.tau, sigma=sigma)
    joint = reuse_joint(asm.embedding, tau_eps, rho, 3)
    assert joint.layout == PAIR.power(3)
    for i, out in enumerate(outs):
        a = partial_trace(joint, range(2 * i, 2 * i + 2))
        assert trace_norm_dist(a, out) < 1e-10
        assert abs(trace_norm_dist(a, sigma) - cert.per_marginal_errors[i]) < 1e-10


@pytest.mark.parametrize("keep", [(0, 1, 2, 3), (1, 0, 2, 3, 4), (2, 3, 0, 1, 4)])
def test_reuse_refuses_a_protocol_whose_keep_is_set(keep):
    # a copy and the catalyst (a copy and a register): five factors
    rho = canonical_pure((0.5, 0.5))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    emb = asm.embedding
    lam = LoccProtocol(emb.input_layout, emb.steps, keep=keep)
    for reuse in (iterate_reuse, reuse_joint):
        with pytest.raises(LayoutMismatchError, match="system\\+catalyst split"):
            reuse(lam, asm.tau, rho, 2)


def test_track_joint_dimension_cap():
    rho = canonical_pure((0.5, 0.5))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    # 5 copies fit the cap on their own, but not beside the 8-dim catalyst
    iterate_reuse(asm.embedding, asm.tau, rho, 5)
    with pytest.raises(DimensionCapError, match="layout dimension 8192 exceeds cap 4096"):
        reuse_joint(asm.embedding, asm.tau, rho, 5)


def test_reuse_of_a_one_dimensional_state_is_refused_at_once(monkeypatch):
    # one-dimensional copies add no dimension, but 10**9 of them are 2 * 10**9
    # factors: refused before the first of 10**9 steps
    rho = canonical_pure((1.0,))
    asm = build_catalyst(identity_protocol(rho.layout.power(2)), rho, 2)

    def refuse(*args):
        raise AssertionError("a step ran before the refusal")

    monkeypatch.setattr(catfactory, "_catalytic_step", refuse)
    want = "^1000000000 copies of a 2-factor layout exceed 32 factors$"
    for fn in (iterate_reuse, reuse_joint):
        with pytest.raises(DimensionCapError, match=want):
            fn(asm.embedding, asm.tau, rho, 10**9)


def test_iterate_validations():
    rho = canonical_pure((0.5, 0.5))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    for fn in (iterate_reuse, reuse_joint):
        with pytest.raises(ValueError, match="tensor power needs n >= 1, got 0"):
            fn(asm.embedding, asm.tau, rho, 0)
        with pytest.raises(LayoutMismatchError, match="one copy plus the catalyst"):
            fn(identity_protocol(PAIR), asm.tau, rho, 1)
        with pytest.raises(DimensionCapError, match="7 copies of dimension 4 exceed cap"):
            fn(asm.embedding, asm.tau, rho, 7)
    with pytest.raises(LayoutMismatchError):
        iterate_reuse(asm.embedding, asm.tau, rho, 1, tau=maximally_mixed(PAIR))


# ---------------------------------------------------------------------------
# marginal reduction certificates


def test_marginal_reduction_identity():
    rho = random_state(PAIR, "ginibre_mixed", seed=7)
    cert = verify_marginal_reduction(identity_protocol(PAIR.power(3)), rho, rho, 3, 3)
    assert cert.n == 3 and cert.m == 3
    assert max(cert.per_marginal_errors) < 1e-12
    assert cert.rate_slack == 1.0


def test_marginal_reduction_with_discard():
    rho = random_state(PAIR, "ginibre_mixed", seed=8)
    lam = LoccProtocol(PAIR.power(3), (), keep=range(4))
    cert = verify_marginal_reduction(lam, rho, rho, 3, 2)
    assert cert.m == 2
    assert abs(cert.rate_slack - 2 / 3) < 1e-15
    assert max(cert.per_marginal_errors) < 1e-12


def test_marginal_reduction_converted_slots():
    cert = verify_marginal_reduction(
        _synth_lambda(2), canonical_pure((0.5, 0.5)), canonical_pure((0.75, 0.25)), 2, 2
    )
    assert max(cert.per_marginal_errors) < 1e-9


def test_marginal_reduction_validations():
    rho = canonical_pure((0.5, 0.5))
    ident3 = identity_protocol(PAIR.power(3))
    with pytest.raises(ValueError):
        verify_marginal_reduction(ident3, rho, rho, 3, 0)
    with pytest.raises(ValueError):
        verify_marginal_reduction(ident3, rho, rho, 3, 4)
    with pytest.raises(LayoutMismatchError):
        verify_marginal_reduction(ident3, rho, rho, 2, 2)
    lam = LoccProtocol(PAIR.power(3), (), keep=range(4))
    with pytest.raises(LayoutMismatchError):
        verify_marginal_reduction(lam, rho, rho, 3, 1)


_RHO = canonical_pure((0.5, 0.5))


@pytest.mark.parametrize(
    "call,error,message",
    [
        # past the check, the one-copy protocol ran and power(0) refused the catalyst
        (lambda: build_catalyst(identity_protocol(PAIR), _RHO, 1), ValueError,
         "need n >= 2 copies, got 1"),
        (lambda: verify_marginal_reduction(identity_protocol(PAIR.power(2)), _RHO, _RHO, 2, 3),
         ValueError, "cannot keep m=3 copies out of n=2"),
        # past the check, numpy's reshape error escaped
        (lambda: verify_marginal_reduction(identity_protocol(PAIR), _RHO, _RHO, 2, 1),
         LayoutMismatchError, "protocol input SystemLayout(0:2, 1:2) is not 2 copies of"),
        (lambda: verify_marginal_reduction(identity_protocol(PAIR.power(2)), _RHO, _RHO, 2, 0),
         ValueError, "tensor power needs n >= 1, got 0"),
    ],
    ids=["catalyst-one-copy", "reduction-m-past-n", "reduction-one-copy-protocol",
         "reduction-m-zero"],
)
def test_copy_counts_and_layouts_are_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as err:
        call()
    assert type(err.value) is error


# ---------------------------------------------------------------------------
# the raw catalytic step against the validated-state chains it replaced


def _chain_catalysis(lam, tau, rho, sigma):
    mu = run_protocol(lam, tensor(rho, tau))
    f = len(rho.layout)
    if len(mu.layout) != f + len(tau.layout):
        raise LayoutMismatchError("protocol must keep the system+catalyst split")
    mu_s = mu.marginal(range(f))
    mu_c = mu.marginal(range(f, len(mu.layout)))
    return (
        trace_norm_dist(mu_s, sigma),
        trace_norm_dist(mu_c, tau),
        trace_norm_dist(mu, tensor(mu_s, mu_c)),
    )


def _chain_reduction(lam, rho, sigma, n, m):
    out = run_protocol(lam, n_copies(rho, n))
    fs = len(sigma.layout)
    return tuple(
        trace_norm_dist(out.marginal(range(j * fs, (j + 1) * fs)), sigma) for j in range(m)
    )


def _chain_reuse(lam, tau_eps, rho, copies, tau, sigma, track_joint):
    f = len(rho.layout)
    cat_idx = tuple(range(f, f + len(tau_eps.layout)))
    mu = run_protocol(lam, tensor(rho, tau))
    residual = trace_norm_dist(mu.marginal(cat_idx), tau)
    delta = trace_norm_dist(mu.marginal(range(f)), sigma)
    errors, drifts, outputs = [], [], []
    cat = joint = tau_eps
    for _ in range(copies):
        mu = run_protocol(lam, tensor(rho, cat))
        out_i = mu.marginal(range(f))
        cat = mu.marginal(cat_idx)
        errors.append(trace_norm_dist(out_i, sigma))
        drifts.append(trace_norm_dist(cat, tau))
        outputs.append(out_i)
        if track_joint:
            joint = tensor(rho, joint)
            k = len(joint.layout)
            sel = tuple(range(f)) + tuple(range(k - len(cat_idx), k))
            joint = run_protocol(embed_protocol(lam, joint.layout, sel), joint)
    if track_joint:
        body = joint.marginal(range(copies * f))
        order = [(copies - 1 - b) * f + t for b in range(copies) for t in range(f)]
        out = permute_factors(body, order)
    else:
        out = tuple(outputs)
    fields = (errors, drifts, trace_norm_dist(tau_eps, tau), delta, residual)
    return out, fields


def _noisy_setup(n):
    rho = canonical_pure((0.5, 0.5))
    sigma = canonical_pure((0.75, 0.25))
    asm = build_catalyst(_noisy_lambda(n, 0.9), rho, n)
    mix = maximally_mixed(asm.tau.layout)
    tau_eps = QState(asm.tau.layout, 0.96 * asm.tau.matrix + 0.04 * mix.matrix)
    return rho, sigma, asm, tau_eps


@pytest.mark.parametrize("n", [2, 3])
def test_verify_catalysis_matches_state_chain(n):
    rho, sigma, asm, tau_eps = _noisy_setup(n)
    for tau in (asm.tau, tau_eps):
        got = verify_catalysis(asm.embedding, tau, rho, sigma)
        want = _chain_catalysis(asm.embedding, tau, rho, sigma)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12
    assert got.catalyst_drift > 1e-3


@pytest.mark.parametrize("n", [2, 3])
def test_marginal_reduction_matches_state_chain(n):
    rho, sigma, _, _ = _noisy_setup(n)
    lam = _noisy_lambda(n, 0.9)
    for m in range(1, n + 1):
        keep = LoccProtocol(lam.input_layout, lam.steps, keep=range(2 * m))
        got = verify_marginal_reduction(keep, rho, sigma, n, m).per_marginal_errors
        want = _chain_reduction(keep, rho, sigma, n, m)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12
    assert max(got) > 0.01


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("track_joint", [False, True])
def test_iterate_reuse_matches_state_chain(n, track_joint):
    rho, sigma, asm, tau_eps = _noisy_setup(n)
    copies = 3 if n == 2 else 2
    out, cert = iterate_reuse(asm.embedding, tau_eps, rho, copies, tau=asm.tau, sigma=sigma)
    want_out, (errors, drifts, eps0, delta, residual) = _chain_reuse(
        asm.embedding, tau_eps, rho, copies, asm.tau, sigma, track_joint
    )
    if track_joint:
        out, want_out = (reuse_joint(asm.embedding, tau_eps, rho, copies),), (want_out,)
    assert np.max(np.abs(np.subtract(cert.per_marginal_errors, errors))) < 1e-12
    assert np.max(np.abs(np.subtract(cert.catalyst_drifts, drifts))) < 1e-12
    assert abs(cert.epsilon_initial - eps0) < 1e-12
    assert abs(cert.delta_single_shot - delta) < 1e-12
    assert abs(cert.fixed_point_residual - residual) < 1e-12
    for got, want in zip(out, want_out, strict=True):
        assert got.layout == want.layout
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12
    assert cert.epsilon_initial > 1e-3


@pytest.mark.parametrize("n", [2, 3])
def test_iterate_reuse_returns_the_per_copy_outputs(n):
    rho, sigma, asm, tau_eps = _noisy_setup(n)
    # each output is the matching marginal of the chain's joint of all copies
    out, _ = iterate_reuse(asm.embedding, tau_eps, rho, 3, tau=asm.tau, sigma=sigma)
    joint, _ = _chain_reuse(asm.embedding, tau_eps, rho, 3, asm.tau, sigma, True)
    assert type(out) is tuple and len(out) == 3
    for k, got in enumerate(out):
        assert isinstance(got, QState) and got.layout == rho.layout
        want = joint.marginal(range(2 * k, 2 * k + 2))
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12
    # the copies differ: the catalyst drifts back towards tau between them
    assert np.max(np.abs(out[0].matrix - out[2].matrix)) > 1e-6


def test_relabeled_protocols_match_state_chain():
    rho, sigma, asm, tau_eps = _noisy_setup(2)
    emb = asm.embedding
    # hand back (party-0 system qubit, register) as the "system": the output
    # dims still match, so the certificate is computed on the reordered split
    lam = LoccProtocol(emb.input_layout, emb.steps, keep=(0, 4, 2, 3, 1))
    got = verify_catalysis(lam, tau_eps, rho, sigma)
    want = _chain_catalysis(lam, tau_eps, rho, sigma)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-12
    # swapped output copies of a 3-to-2 reduction
    base = _noisy_lambda(3, 0.9)
    lam = LoccProtocol(base.input_layout, base.steps, keep=(2, 3, 0, 1))
    got = verify_marginal_reduction(lam, rho, sigma, 3, 2).per_marginal_errors
    want = _chain_reduction(lam, rho, sigma, 3, 2)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-12
    assert abs(got[0] - got[1]) > 1e-3


def _error_of(fn, *args, **kwargs):
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def test_verify_catalysis_errors_match_state_chain():
    rho, sigma, asm, tau_eps = _noisy_setup(3)
    emb = asm.embedding
    lay = emb.input_layout
    cases = [
        # a dropped factor breaks the split
        (LoccProtocol(lay, emb.steps, keep=(0, 2, 3, 4, 5, 6)), asm.tau, sigma),
        # a keep that moves the dim-3 register into the system
        (LoccProtocol(lay, emb.steps, keep=(0, 6, 2, 3, 4, 5, 1)), asm.tau, sigma),
        # a keep that moves a system qubit into the catalyst's register slot
        (LoccProtocol(lay, emb.steps, keep=(0, 1, 2, 3, 4, 6, 5)), asm.tau, sigma),
        # a sigma on the wrong dims
        (emb, asm.tau, maximally_mixed(SystemLayout([(0, 2), (1, 3)]))),
    ]
    for lam, tau, sig in cases:
        got = _error_of(verify_catalysis, lam, tau, rho, sig)
        assert got == _error_of(_chain_catalysis, lam, tau, rho, sig)
        assert got[0] is LayoutMismatchError
    with pytest.raises(LayoutMismatchError, match="is not system \\+ catalyst"):
        verify_catalysis(emb, maximally_mixed(PAIR), rho, sigma)


def test_iterate_reuse_sigma_mismatch_matches_state_chain():
    rho, _, asm, tau_eps = _noisy_setup(2)
    bad = maximally_mixed(SystemLayout([(0, 2), (1, 3)]))
    got = _error_of(iterate_reuse, asm.embedding, tau_eps, rho, 1, tau=asm.tau, sigma=bad)
    want = _error_of(_chain_reuse, asm.embedding, tau_eps, rho, 1, asm.tau, bad, False)
    assert got == want and got[0] is LayoutMismatchError


# ---------------------------------------------------------------------------
# one protocol run per certified quantity


def _block_fixed_point(lam, rho, start):
    # the fixed point as it was solved before each iterate was tested: block
    # means of 128 iterates, a residual run before and after every block
    cat = (range(len(rho.layout), len(lam.input_layout)),)

    def advance(x):
        return _catalytic_step(lam, (rho.matrix, x), cat)[1][0]

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
    return x


def _noisy_identity_setup(n):
    base = identity_protocol(PAIR.power(n))
    dep = Channel.depolarizing(SystemLayout([(0, 2)]), 0.9)
    noise = local_channel(PAIR.power(n), 0, (0,), dep.kraus)
    lam = LoccProtocol(base.input_layout, base.steps + (noise,))
    rho = random_state(PAIR, "ginibre_mixed", seed=4)
    asm = build_catalyst(lam, rho, n)
    mix = maximally_mixed(asm.tau.layout)
    return rho, asm, QState(asm.tau.layout, 0.96 * asm.tau.matrix + 0.04 * mix.matrix)


def _skewed_register(tau, weights):
    # tau with its register phases reweighted: the update cycles them, so
    # plain iteration never settles
    n = len(weights)
    w = np.kron(np.eye(tau.total_dim // n), np.diag(np.sqrt(np.asarray(weights) * n)))
    return w @ tau.matrix @ w


@pytest.fixture
def step_count(monkeypatch):
    calls = []
    inner = catfactory._catalytic_step

    def counting(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(catfactory, "_catalytic_step", counting)
    return calls


@pytest.mark.parametrize("setup", ["synth2", "identity2", "identity3"])
def test_fixed_point_matches_block_oracle(setup):
    # the n=3 synthesized catalyst costs the oracle its 259 runs at d=192 (8 s);
    # the noisy n=3 identity catalyst has the same register cycle
    if setup == "synth2":
        rho, _, asm, tau_eps = _noisy_setup(2)
    else:
        rho, asm, tau_eps = _noisy_identity_setup(int(setup[-1]))
    got = _fixed_point(asm.embedding, rho, tau_eps.matrix)
    want = _block_fixed_point(asm.embedding, rho, tau_eps.matrix)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(got - asm.tau.matrix)) < 1e-12
    assert _herm_dist(tau_eps.matrix, asm.tau.matrix) > 1e-2


def test_fixed_point_returns_the_first_fixed_iterate(step_count):
    rho, _, asm, tau_eps = _noisy_setup(2)
    x = _fixed_point(asm.embedding, rho, tau_eps.matrix)
    _, (x_next,) = _catalytic_step(asm.embedding, (rho.matrix, x), (range(2, 5),))
    assert _herm_dist(x_next, x) < 1e-13
    # one run per iterate tested, the fixed one's included; no block mean
    assert len(step_count) <= 5
    # a fixed start is returned as it is, after one run
    step_count.clear()
    assert _fixed_point(asm.embedding, rho, asm.tau.matrix) is asm.tau.matrix
    assert len(step_count) == 1


def test_skewed_register_reaches_tau_through_the_block_mean(step_count):
    rho, _, asm, _ = _noisy_setup(2)
    start = _skewed_register(asm.tau, [0.8, 0.2])
    assert _herm_dist(start, asm.tau.matrix) > 0.5
    x = _fixed_point(asm.embedding, rho, start)
    assert np.max(np.abs(x - asm.tau.matrix)) < 1e-12
    # no iterate of the first block was fixed, so its mean was taken
    assert 128 < len(step_count) <= 2 * 128
    assert np.max(np.abs(x - _block_fixed_point(asm.embedding, rho, start))) < 1e-12


def test_three_phase_register_block_holds_whole_cycles(step_count):
    # a block of 126 = 3 * 42 iterates averages the 3-phase cycle out, so one
    # mean lands on tau; blocks of 128 left a third of a cycle in each mean
    # and took 897 runs
    rho, _, asm, _ = _noisy_setup(3)
    start = _skewed_register(asm.tau, [0.6, 0.3, 0.1])
    assert _herm_dist(start, asm.tau.matrix) > 0.5
    x = _fixed_point(asm.embedding, rho, start)
    assert np.max(np.abs(x - asm.tau.matrix)) < 1e-12
    assert len(step_count) <= 130


def test_reuse_runs_each_step_once(step_count):
    rho = canonical_pure((0.5, 0.5))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    mix = maximally_mixed(asm.tau.layout)
    tau_eps = QState(asm.tau.layout, 0.97 * asm.tau.matrix + 0.03 * mix.matrix)
    step_count.clear()
    _, cert = iterate_reuse(asm.embedding, tau_eps, rho, 5)
    # was 267 with the block-mean solver: 259 fixed-point runs
    assert len(step_count) <= 12
    assert cert.fixed_point_residual < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_cli_catalyst_commands_run_the_embedding_once_at_tau(n, step_count):
    rho, sigma = "pure:0.5,0.5", "pure:0.75,0.25"
    cli.run({"command": "catalyze", "rho": rho, "sigma": sigma, "protocol": "synth", "n": str(n)})
    # the n-copy run for the marginals, the embedding's run on rho (x) tau
    assert len(step_count) == 2
    step_count.clear()
    cli.run({"command": "synth-catalyst", "rho": rho, "sigma": sigma, "n": str(n), "copies": "3"})
    assert len(step_count) == 2 + 3


def test_cli_synth_catalyst_reuses_through_iterate_reuse(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return iterate_reuse(*args, **kwargs)

    monkeypatch.setattr(cli, "iterate_reuse", counted)
    cli.run({"command": "synth-catalyst", "rho": "pure:0.5,0.5", "sigma": "pure:0.75,0.25",
             "n": "2", "copies": "3"})
    assert len(calls) == 1 and calls[0]["_run"] is not None


def _catalyze_oracle(scen):
    # the catalyze certificate as it was computed: build, then verify_catalysis
    rho = cli._parse_state(scen["rho"], "rho")
    sigma = cli._parse_state(scen["sigma"], "sigma") if "sigma" in scen else rho
    n = int(scen["n"])
    lam = cli._build_protocol(scen.get("protocol", "identity"), rho, sigma, n)
    asm = build_catalyst(lam, rho, n)
    return verify_catalysis(asm.embedding, asm.tau, rho, sigma)


def _synth_catalyst_oracle(scen):
    # the synth-catalyst certificate without the run the build kept: the step at
    # tau runs again
    rho, sigma = (cli._parse_state(scen[k], k) for k in ("rho", "sigma"))
    n, copies = int(scen["n"]), int(scen["copies"])
    asm = build_catalyst(cli._build_protocol("synth", rho, sigma, n), rho, n)
    tau_eps, _ = distill.synthesize_tau_eps(asm.tau, float(scen["f_resource"]))
    return iterate_reuse(asm.embedding, tau_eps, rho, copies, tau=asm.tau, sigma=sigma)[1]


def _noisy_file(tmp_path, n):
    path = str(tmp_path / f"noisy_synth_n{n}.json")
    save_protocol(_noisy_lambda(n, 0.9), path)
    return f"file:{path}"


@pytest.mark.parametrize("n", [2, 3])
def test_catalyze_report_matches_verify_catalysis(n, tmp_path):
    scenarios = [
        {"rho": "werner:0.8"},
        {"rho": "ginibre:11", "sigma": "ginibre:11"},
        {"rho": "pure:0.5,0.5", "sigma": "pure:0.75,0.25", "protocol": "synth"},
        {"rho": "pure:0.5,0.5", "sigma": "pure:0.75,0.25", "protocol": _noisy_file(tmp_path, n)},
    ]
    for scen in scenarios:
        scen = {"command": "catalyze", "n": str(n), **scen}
        got = cli.run(scen)["results"]["certificate"]
        want = _catalyze_oracle(scen)
        assert np.max(np.abs(np.subtract(
            [got["epsilon_achieved"], got["catalyst_drift"], got["correlation"]], want
        ))) < 1e-12
    assert want.epsilon_achieved > 0.01


def test_catalyze_sigma_on_wrong_dims_matches_verify_catalysis():
    scen = {"command": "catalyze", "n": "2", "rho": "werner:0.8", "sigma": "pure:0.5,0.3,0.2"}
    got = _error_of(cli.run, scen)
    assert got == _error_of(_catalyze_oracle, scen)
    assert got[0] is LayoutMismatchError


@pytest.mark.parametrize("n", [2, 3])
def test_synth_catalyst_report_matches_reuse_oracle(n):
    scen = {"command": "synth-catalyst", "rho": "pure:0.5,0.5", "sigma": "pure:0.7,0.3",
            "n": str(n), "copies": "3", "f_resource": "0.93"}
    got = cli.run(scen)["results"]
    want = _synth_catalyst_oracle(scen)
    for key in ("epsilon_initial", "delta_single_shot", "fixed_point_residual"):
        assert abs(got[key] - getattr(want, key)) < 1e-12
    for key in ("per_marginal_errors", "catalyst_drifts"):
        assert np.max(np.abs(np.subtract(got[key], getattr(want, key)))) < 1e-12
    assert want.epsilon_initial > 1e-3


# ---------------------------------------------------------------------------
# pure-target decoupling


def test_decoupled_check_exact_pure_target():
    rho = canonical_pure((0.5, 0.5))
    sigma = canonical_pure((0.75, 0.25))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    cert = verify_catalysis(asm.embedding, asm.tau, rho, sigma)
    assert cert.correlation < 1e-9


def test_decoupled_check_noisy_instance():
    rho = canonical_pure((0.5, 0.5))
    sigma = canonical_pure((0.75, 0.25))
    asm = build_catalyst(_noisy_lambda(2, 0.9), rho, 2)
    cert = verify_catalysis(asm.embedding, asm.tau, rho, sigma)
    e = cert.epsilon_achieved
    assert e > 0.01
    assert cert.correlation <= e + 6 * (e / 2) ** 0.5 + 1e-12

