import numpy as np
import pytest

from catent.catfactory import (
    _fixed_point,
    _induced_step,
    assembly_from_dict,
    assembly_to_dict,
    build_catalyst,
    decoupled_catalysis_check,
    iterate_reuse,
    verify_catalysis,
    verify_marginal_reduction,
)
from catent.errors import (
    DimensionCapError,
    LayoutMismatchError,
    NotPureError,
)
from catent.locc import (
    Channel,
    LoccProtocol,
    apply,
    flatten,
    identity_protocol,
    local_channel,
    run_protocol,
)
from catent.purecat import canonical_pure, synthesize_pure_protocol
from catent.qstate import (
    QState,
    SchmidtVector,
    SystemLayout,
    maximally_mixed,
    n_copies,
    partial_trace,
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
    got = _induced_step(asm.embedding, rho.matrix, x, ds, dc)
    want = _kraus_induced_step(flat.kraus, rho.matrix, x, ds, dc)
    assert np.max(np.abs(got - want)) < 1e-12


def test_fixed_point_recovers_exact_catalyst_n2():
    # the exact catalyst is the fixed point the Kraus-form solver also found
    rho = canonical_pure((0.5, 0.5))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    mix = maximally_mixed(asm.tau.layout)
    tau_eps = QState(asm.tau.layout, 0.97 * asm.tau.matrix + 0.03 * mix.matrix)
    x, res = _fixed_point(asm.embedding, rho, asm.tau.total_dim, tau_eps.matrix)
    assert np.max(np.abs(x - asm.tau.matrix)) < 1e-10
    assert res < 1e-12
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
        build_catalyst(LoccProtocol(PAIR.power(2), (), discard=(3,)), rho, 2)
    with pytest.raises(DimensionCapError):
        build_catalyst(identity_protocol(PAIR.power(5)), rho, 5)


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
    assert out.layout == PAIR.power(4)


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
    bad = LoccProtocol(
        joint,
        asm.embedding.steps + (local_channel(joint, 0, (2,), dep.kraus),),
        classical_factors=asm.embedding.classical_factors,
    )
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
    out_m, cert_m = iterate_reuse(asm.embedding, tau_eps, rho, 3, tau=asm.tau, sigma=sigma)
    out_j, cert_j = iterate_reuse(
        asm.embedding, tau_eps, rho, 3, tau=asm.tau, sigma=sigma, track_joint=True
    )
    assert np.allclose(cert_m.per_marginal_errors, cert_j.per_marginal_errors, atol=1e-12)
    assert out_j.layout == PAIR.power(3)
    for i in range(3):
        a = partial_trace(out_j, range(2 * i, 2 * i + 2))
        b = partial_trace(out_m, range(2 * i, 2 * i + 2))
        assert trace_norm_dist(a, b) < 1e-10


def test_track_joint_dimension_cap():
    rho = canonical_pure((0.5, 0.5))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    with pytest.raises(DimensionCapError):
        iterate_reuse(asm.embedding, asm.tau, rho, 5, tau=asm.tau, track_joint=True)


def test_iterate_validations():
    rho = canonical_pure((0.5, 0.5))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    with pytest.raises(ValueError):
        iterate_reuse(asm.embedding, asm.tau, rho, 0)
    with pytest.raises(LayoutMismatchError):
        iterate_reuse(identity_protocol(PAIR), asm.tau, rho, 1)
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
    lam = LoccProtocol(PAIR.power(3), (), discard=(4, 5))
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
    lam = LoccProtocol(PAIR.power(3), (), discard=(4, 5))
    with pytest.raises(LayoutMismatchError):
        verify_marginal_reduction(lam, rho, rho, 3, 1)


# ---------------------------------------------------------------------------
# pure-target decoupling


def test_decoupled_check_exact_pure_target():
    rho = canonical_pure((0.5, 0.5))
    sigma = canonical_pure((0.75, 0.25))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    cert = decoupled_catalysis_check(asm.embedding, asm.tau, rho, sigma)
    assert cert.correlation < 1e-9


def test_decoupled_check_noisy_instance():
    rho = canonical_pure((0.5, 0.5))
    sigma = canonical_pure((0.75, 0.25))
    asm = build_catalyst(_noisy_lambda(2, 0.9), rho, 2)
    cert = decoupled_catalysis_check(asm.embedding, asm.tau, rho, sigma)
    e = cert.epsilon_achieved
    assert e > 0.01
    assert cert.correlation <= e + 6 * (e / 2) ** 0.5 + 1e-12


def test_decoupled_check_rejects_mixed_target():
    rho = canonical_pure((0.5, 0.5))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    with pytest.raises(NotPureError):
        decoupled_catalysis_check(asm.embedding, asm.tau, rho, maximally_mixed(PAIR))


# ---------------------------------------------------------------------------
# serialization


def test_assembly_serialization_roundtrip():
    rho = canonical_pure((0.5, 0.5))
    asm = build_catalyst(_synth_lambda(2), rho, 2)
    back = assembly_from_dict(assembly_to_dict(asm))
    assert back.n == asm.n
    assert np.array_equal(back.tau.matrix, asm.tau.matrix)
    assert len(back.gamma_marginals) == 2
    a = flatten(asm.embedding).choi()
    b = flatten(back.embedding).choi()
    assert np.max(np.abs(a - b)) < 1e-12
    with pytest.raises(ValueError):
        assembly_from_dict({"format": "other"})
