import math
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catent

from catent.errors import (
    BoundViolationError,
    BudgetError,
    DivergingRateError,
    LayoutMismatchError,
    NotPureError,
    StateInvariantError,
)
from catent.locc import Channel, LoccProtocol, apply, identity_protocol
from catent.measures import (
    _cqmi,
    _extension_factor,
    _factor_cqmi,
    compose_superadditive,
    cqmi,
    decoupling_check,
    hashing_bounds,
    mutual_information,
    rate_bound_report,
    squashed_upper,
)
from catent.qstate import (
    QState,
    SystemLayout,
    _purification_vector,
    basis_state,
    entanglement_entropy,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    pure_state,
    purify,
    random_state,
    singlet,
    tensor,
    trace_norm_dist,
)

PAIR = SystemLayout([(0, 2), (1, 2)])


def _entropy_oracle(probs):
    return float(-sum(p * math.log2(p) for p in probs if p > 0))


# ---------------------------------------------------------------------------
# hashing sandwich


def test_hashing_singlet():
    b = hashing_bounds(singlet())
    assert abs(b.lower - 1.0) < 1e-9
    assert abs(b.upper - 1.0) < 1e-9


def test_hashing_maximally_mixed():
    b = hashing_bounds(maximally_mixed(PAIR))
    assert abs(b.lower - (-1.0)) < 1e-12
    assert abs(b.upper - 1.0) < 1e-12


def test_hashing_werner_oracle():
    from catent.distill import werner

    f = 0.9
    b = hashing_bounds(werner(f).state)
    s_w = _entropy_oracle([f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3])
    assert abs(b.lower - (1.0 - s_w)) < 1e-12
    assert abs(b.upper - 1.0) < 1e-12


def test_hashing_sandwich_invariant():
    for seed in range(20):
        s = random_state(PAIR, "ginibre_mixed", seed=seed)
        b = hashing_bounds(s)
        assert b.lower <= b.upper + 1e-9


def test_hashing_bipartition_errors():
    with pytest.raises(LayoutMismatchError):
        hashing_bounds(singlet(), parties_a=(0, 1))
    with pytest.raises(LayoutMismatchError):
        hashing_bounds(random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=0))


def test_sandwich_tightens_near_pure_states():
    rng = np.random.default_rng(11)
    t = 1e-3
    for seed in range(10):
        phi = random_state(PAIR, "haar_pure", seed=seed)
        junk = random_state(PAIR, "ginibre_mixed", seed=seed + 50)
        near = QState(PAIR, (1 - t) * phi.matrix + t * junk.matrix)
        assert trace_norm_dist(near, phi) <= 2 * t + 1e-9
        b = hashing_bounds(near)
        assert b.upper - b.lower <= 0.05


# ---------------------------------------------------------------------------
# mutual information and CQMI


def test_mutual_information_extremes():
    a = random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=1)
    b = random_state(SystemLayout([(1, 2)]), "ginibre_mixed", seed=2)
    assert abs(mutual_information(tensor(a, b))) < 1e-10
    assert abs(mutual_information(singlet()) - 2.0) < 1e-10


def test_cqmi_uncorrelated_env():
    ab = random_state(PAIR, "ginibre_mixed", seed=5)
    e = random_state(SystemLayout([(2, 2)]), "ginibre_mixed", seed=6)
    assert abs(cqmi(tensor(ab, e)) - mutual_information(ab)) < 1e-10


def test_cqmi_pure_state_trivial_env():
    ext = tensor(singlet(), basis_state(SystemLayout([(2, 2)]), (0,)))
    assert abs(cqmi(ext) - 2.0 * entanglement_entropy(singlet())) < 1e-10


def test_cqmi_classical_correlation():
    lay = SystemLayout([(0, 2), (1, 2), (2, 2)])
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 0.5  # |000>
    m[7, 7] = 0.5  # |111>
    assert abs(cqmi(QState(lay, m))) < 1e-10


def test_cqmi_nonnegative_random():
    lay = SystemLayout([(0, 2), (1, 2), (2, 2)])
    for seed in range(30):
        s = random_state(lay, "ginibre_mixed", seed=seed)
        assert cqmi(s) >= -1e-8


def test_cqmi_layout_check():
    with pytest.raises(LayoutMismatchError):
        cqmi(singlet())


# ---------------------------------------------------------------------------
# squashed entanglement upper bound


def test_squashed_pure_equals_entropy():
    for seed in range(10):
        phi = random_state(PAIR, "haar_pure", seed=seed)
        got = squashed_upper(phi, search_budget=20, seed=seed)
        assert abs(got.value - entanglement_entropy(phi)) < 1e-6


def test_squashed_separable_flagged():
    rng = np.random.default_rng(9)
    for trial in range(5):
        parts = []
        acc = np.zeros((4, 4), dtype=complex)
        weights = rng.dirichlet(np.ones(3))
        for i in range(3):
            a = random_state(SystemLayout([(0, 2)]), "haar_pure", seed=100 * trial + i)
            b = random_state(SystemLayout([(1, 2)]), "haar_pure", seed=200 * trial + i)
            st = tensor(a, b)
            parts.append((float(weights[i]), st))
            acc += weights[i] * st.matrix
        sep = QState(PAIR, acc)
        got = squashed_upper(sep, search_budget=10, seed=trial, decomposition=parts)
        assert got.value <= 1e-6


def test_squashed_below_half_mutual_information():
    for seed in range(8):
        s = random_state(PAIR, "ginibre_mixed", seed=seed)
        got = squashed_upper(s, search_budget=25, seed=seed)
        assert got.value <= 0.5 * mutual_information(s) + 1e-12


def test_squashed_extension_marginal_exact():
    s = random_state(PAIR, "ginibre_mixed", seed=13)
    got = squashed_upper(s, search_budget=30, seed=2)
    ab = partial_trace(got.extension_state, (0, 1))
    assert np.max(np.abs(ab.matrix - s.matrix)) < 1e-8


def test_squashed_budget_monotone():
    # the bench search's bounds.ginibre.0 input.  The deterministic
    # candidates hold through budget 33; random round 33 (E of dimension 2)
    # lowers the value, and so does round 38, a refinement of round 33's
    # stack (every third round refines once a round has won)
    s = random_state(PAIR, "ginibre_mixed", seed=849759)
    runs = [squashed_upper(s, search_budget=b, seed=233119) for b in range(41)]
    vals = [r.value for r in runs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert [b for b in range(1, 41) if vals[b] < vals[b - 1]] == [34, 39]
    assert runs[33].extension_dim == 1 and runs[34].extension_dim == 2
    for r in runs:
        assert abs(0.5 * cqmi(r.extension_state) - r.value) <= 1e-12


def test_squashed_validation():
    s = random_state(PAIR, "ginibre_mixed", seed=0)
    with pytest.raises(BudgetError):
        squashed_upper(s, search_budget=-1)
    with pytest.raises(ValueError):
        squashed_upper(s, max_ext_dim=0)
    junk = [(1.0, maximally_mixed(PAIR))]
    with pytest.raises(ValueError, match="reconstruct"):
        squashed_upper(s, decomposition=junk)
    with pytest.raises(LayoutMismatchError):
        squashed_upper(random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=0))


def _old_chain_extension(rho, w, out_dim):
    """The extension a search round built before it went raw: a Channel on psi."""
    psi = purify(rho)
    ref_layout = psi.layout.subset([len(psi.layout) - 1])
    ks = tuple(w[k * out_dim : (k + 1) * out_dim] for k in range(len(w) // out_dim))
    ch = Channel(ks, ref_layout, SystemLayout([(2, out_dim)]))
    return apply(Channel.identity(rho.layout).tensor(ch), psi)


@pytest.mark.parametrize("ref_dim", [1, 2, 3, 4])
def test_channel_extension_matches_channel_chain(ref_dim):
    # Z Z^dag of the factor against apply(id (x) channel, purify(rho)) for every output
    # dimension the search uses; ref_dim is the rank of rho
    rng = np.random.default_rng(ref_dim)
    g = rng.standard_normal((4, ref_dim)) + 1j * rng.standard_normal((4, ref_dim))
    rho = QState(PAIR, g @ g.conj().T / np.trace(g @ g.conj().T))
    psi = _purification_vector(rho)
    psi = psi / np.linalg.norm(psi)
    assert psi.shape == (4, ref_dim)
    for out_dim in range(1, 9):
        n_kraus = max(1, -(-ref_dim // out_dim))
        h = rng.standard_normal((out_dim * n_kraus, ref_dim))
        w, _ = np.linalg.qr(h + 1j * rng.standard_normal(h.shape))
        z = _extension_factor(psi, w, out_dim)
        got = z @ z.conj().T
        want = _old_chain_extension(rho, w, out_dim)
        assert got.shape == want.matrix.shape
        assert np.max(np.abs(got - want.matrix)) < 1e-12
        assert abs(0.5 * cqmi(want) - 0.5 * _cqmi(got, want.layout)) < 1e-12


def _rank_r_state(layout, rank, seed):
    """A Ginibre state G G^dag / tr with G of shape (total_dim, rank)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((layout.total_dim, rank))
    g = g + 1j * rng.standard_normal(g.shape)
    m = g @ g.conj().T
    return QState(layout, m / np.trace(m))


@pytest.mark.parametrize("layout", [PAIR, PAIR.power(2)], ids=["pair", "interleaved"])
@pytest.mark.parametrize("ref_dim", [1, 2, 3, 4])
def test_factor_cqmi_matches_dense_cqmi(layout, ref_dim):
    # the round score from Z against the dense I(A;B|E) of Z Z^dag.  On
    # PAIR.power(2) each party holds factors 0 and 2 or 1 and 3, so reading
    # Z as (d_A, d_B, out_dim, columns) puts both of copy 0's factors in "A"
    rng = np.random.default_rng(10 * ref_dim + len(layout))
    psi = _purification_vector(_rank_r_state(layout, ref_dim, ref_dim))
    psi = psi / np.linalg.norm(psi)
    assert psi.shape == (layout.total_dim, ref_dim)
    for out_dim in range(1, 9):
        n_kraus = max(1, -(-ref_dim // out_dim))
        h = rng.standard_normal((out_dim * n_kraus, ref_dim))
        w, _ = np.linalg.qr(h + 1j * rng.standard_normal(h.shape))
        z = _extension_factor(psi, w, out_dim)
        ext = layout + SystemLayout([(2, out_dim)])
        want = 0.5 * _cqmi(z @ z.conj().T, ext)
        assert abs(0.5 * _factor_cqmi(z, ext) - want) < 1e-12, out_dim


def _check_squashed_rounds(state, max_ext_dim, seed, budgets):
    """The value of every budget is half the CQMI of its extension, that
    extension's AB marginal is the input, and the values never rise."""
    ab = range(len(state.layout))
    vals = []
    for b in budgets:
        got = squashed_upper(state, max_ext_dim=max_ext_dim, search_budget=b, seed=seed)
        assert abs(got.value - 0.5 * cqmi(got.extension_state)) <= 1e-12
        marginal = partial_trace(got.extension_state, ab)
        assert np.max(np.abs(marginal.matrix - state.matrix)) < 1e-8
        vals.append(got.value)
    assert all(a >= b for a, b in zip(vals, vals[1:])), vals
    return vals


_ROUND_BUDGETS = (0, 100, 200, 300)


@pytest.mark.parametrize("max_ext_dim", range(1, 9))
@pytest.mark.parametrize("interleaved", [False, True], ids=["pair", "interleaved"])
def test_squashed_rounds_win_on_rank_3_states(interleaved, max_ext_dim):
    # a rank-3 Ginibre state on PAIR, alone or next to a Haar pure state on
    # PAIR.power(2): the pure copy adds 2 S(A) to every candidate, so the
    # same search wins there, on a layout whose parties interleave.  At an
    # E of dimension 1 every round is the trivial extension and none wins
    state = _rank_r_state(PAIR, 3, 0)
    if interleaved:
        state = tensor(state, random_state(PAIR, "haar_pure", seed=0))
        assert state.layout == PAIR.power(2)
    vals = _check_squashed_rounds(state, max_ext_dim, 0, _ROUND_BUDGETS)
    assert (vals[-1] < vals[0] - 1e-12) == (max_ext_dim > 1)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), max_ext_dim=st.integers(1, 8), interleaved=st.booleans())
def test_squashed_rounds_property(seed, max_ext_dim, interleaved):
    state = _rank_r_state(PAIR, 3, seed)
    if interleaved:
        state = tensor(state, random_state(PAIR, "haar_pure", seed=seed))
    _check_squashed_rounds(state, max_ext_dim, seed, _ROUND_BUDGETS)


def test_squashed_pure_inputs_tie_at_the_trivial_extension():
    # every extension of a pure state is a product with E, so all candidates
    # tie at its entanglement entropy: the tie rule keeps the trivial one
    for seed in range(10):
        got = squashed_upper(random_state(PAIR, "haar_pure", seed=seed), search_budget=300,
                             seed=seed)
        assert got.extension_dim == 1, seed


def test_squashed_deterministic_candidates_keep_their_bits():
    # the bare purification beats the trivial extension by 2.8e-16, and
    # no search round is lower by more than the tie margin
    from catent.distill import werner

    got = squashed_upper(werner(0.606946).state, search_budget=300, seed=95395)
    assert got.value == 0.20514100072637032
    assert got.extension_dim == 4
    assert got.extension_state.layout == PAIR + SystemLayout([(2, 4)])


def test_squashed_search_builds_no_channel_and_one_state(monkeypatch):
    import catent.qstate as qstate_mod
    from catent.distill import werner

    counts = {"state": 0, "channel": 0}
    validate = qstate_mod._validate_density
    post_init = Channel.__post_init__

    def counting_validate(*args, **kwargs):
        counts["state"] += 1
        return validate(*args, **kwargs)

    def counting_post_init(self):
        counts["channel"] += 1
        post_init(self)

    rho = werner(0.8).state
    monkeypatch.setattr(qstate_mod, "_validate_density", counting_validate)
    monkeypatch.setattr(Channel, "__post_init__", counting_post_init)
    squashed_upper(rho, search_budget=300, seed=3)
    assert counts["state"] <= 3
    assert counts["channel"] == 0


def test_squashed_decomposition_with_negative_weight_refused():
    # 1.5 a - 0.5 * I/4 reconstructs rho, but its flag extension is not PSD
    rho = random_state(PAIR, "ginibre_mixed", seed=4)
    mixed = maximally_mixed(PAIR)
    a = QState(PAIR, (rho.matrix + 0.5 * mixed.matrix) / 1.5)
    with pytest.raises(StateInvariantError):
        squashed_upper(rho, search_budget=5, decomposition=[(1.5, a), (-0.5, mixed)])


def test_purification_vector_matches_unit_vector_loop():
    # the loop purify used to build its vector with, kept as the oracle
    def unit(dim, i):
        e = np.zeros(dim, dtype=complex)
        e[i] = 1.0
        return e

    states = [random_state(PAIR, "ginibre_mixed", seed=s) for s in range(5)]
    states += [random_state(PAIR, "haar_pure", seed=1), maximally_mixed(PAIR),
               random_state(SystemLayout([(0, 3), (1, 2)]), "ginibre_mixed", seed=7)]
    for st in states:
        vals, vecs = np.linalg.eigh(st.matrix)
        sel = vals > 1e-12
        coeffs = np.sqrt(vals[sel] / vals[sel].sum())
        rank = int(sel.sum())
        v = np.zeros(st.total_dim * rank, dtype=complex)
        for i in range(rank):
            v += coeffs[i] * np.kron(vecs[:, sel][:, i], unit(rank, i))
        want = pure_state(st.layout + SystemLayout([(2, rank)]), v)
        assert purify(st).matrix.tobytes() == want.matrix.tobytes()
        assert _purification_vector(st).shape == (st.total_dim, rank)


_CAPPED_SEARCH = """
from catent.distill import werner
from catent.errors import DimensionCapError
from catent.measures import squashed_upper

try:
    squashed_upper(werner(0.8).state, max_ext_dim=2000, search_budget=5000)
except DimensionCapError as exc:
    print(exc)
"""


def test_squashed_extensions_past_cap_refused_first():
    # rounds at output dimension 2000 would build 8000-dim extensions, and
    # one round at 512 already takes seconds: the cap must come first.  A
    # child process under a 1 GiB address-space limit, so a search that
    # runs or allocates fails the test instead of taking the suite down.
    def limit():
        cap = 2**30
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(catent.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_SEARCH],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=15,
        preexec_fn=limit,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "extension dimension 8000 (4 x 2000) exceeds cap 4096"
    # the cap reads the widest round, so a small budget at a wide max_ext_dim still runs
    got = squashed_upper(random_state(PAIR, "ginibre_mixed", seed=0), max_ext_dim=2000,
                         search_budget=3)
    assert 1 <= got.extension_dim <= 4


# ---------------------------------------------------------------------------
# rate bound report


def test_rate_report_pure_pair():
    rep = rate_bound_report(singlet(), singlet(), search_budget=10, seed=0)
    assert abs(rep.ratio_upper - 1.0) < 1e-6
    assert rep.certified


def test_rate_report_two_ebit_source():
    rep = rate_bound_report(maximally_entangled(4), singlet(), search_budget=10, seed=0)
    assert abs(rep.ratio_upper - 2.0) < 1e-6


def test_rate_report_werner_source():
    from catent.distill import werner

    w = werner(0.9).state
    rep = rate_bound_report(w, singlet(), search_budget=40, seed=1)
    up = squashed_upper(w, search_budget=40, seed=1).value
    assert abs(rep.ratio_upper - up) < 1e-12
    assert rep.certified


def test_rate_report_mixed_target_flagged():
    from catent.distill import werner

    rep = rate_bound_report(singlet(), werner(0.95).state, search_budget=10, seed=0)
    assert not rep.certified
    assert any("uncertified" in n for n in rep.notes)


def test_rate_report_diverges():
    prod = tensor(
        basis_state(SystemLayout([(0, 2)]), (0,)),
        basis_state(SystemLayout([(1, 2)]), (0,)),
    )
    with pytest.raises(DivergingRateError):
        rate_bound_report(singlet(), prod, search_budget=5, seed=0)


# ---------------------------------------------------------------------------
# decoupling inequality


def test_decoupling_exact_product():
    phi = random_state(PAIR, "haar_pure", seed=0)
    tau = random_state(SystemLayout([(0, 3)]), "ginibre_mixed", seed=1)
    chk = decoupling_check(tensor(phi, tau), phi)
    assert chk.lhs < 1e-10
    assert chk.passed


def test_decoupling_small_perturbation():
    phi = random_state(PAIR, "haar_pure", seed=2)
    tau = random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=3)
    junk = random_state(PAIR + SystemLayout([(0, 2)]), "ginibre_mixed", seed=4)
    mu = QState(
        junk.layout, 0.99 * tensor(phi, tau).matrix + 0.01 * junk.matrix
    )
    chk = decoupling_check(mu, phi)
    assert chk.passed
    assert chk.epsilon <= 0.05


def test_decoupling_random_sweep():
    lay = PAIR + SystemLayout([(0, 2)])
    for seed in range(300):
        mu = random_state(lay, "ginibre_mixed", seed=seed)
        phi = random_state(PAIR, "haar_pure", seed=seed + 10**6)
        chk = decoupling_check(mu, phi)
        assert chk.passed, f"violation at seed {seed}: {chk}"


def test_decoupling_validation():
    phi = random_state(PAIR, "haar_pure", seed=0)
    with pytest.raises(NotPureError):
        decoupling_check(
            random_state(PAIR + PAIR, "ginibre_mixed", seed=1),
            maximally_mixed(PAIR),
        )
    with pytest.raises(LayoutMismatchError):
        decoupling_check(random_state(PAIR, "ginibre_mixed", seed=2), phi)


# ---------------------------------------------------------------------------
# superadditive composition


def _desk_instance(p, seed):
    psi = singlet()
    chi = random_state(PAIR, "haar_pure", seed=seed)
    m = (1 - p) * tensor(psi, psi).matrix + p * tensor(chi, chi).matrix
    return QState(PAIR.power(2), m)


def test_compose_product_exact():
    mu = tensor(singlet(), singlet())
    combined, budget = compose_superadditive(
        identity_protocol(PAIR), identity_protocol(PAIR), mu, singlet(), eps=0.3
    )
    assert combined < 1e-10
    assert abs(budget - 0.0009) < 1e-15


def test_compose_correlated_desk_instances():
    for seed in range(6):
        mu = _desk_instance(2e-4, seed)
        combined, budget = compose_superadditive(
            identity_protocol(PAIR), identity_protocol(PAIR), mu, singlet(), eps=0.3
        )
        assert combined < 0.3
        side = trace_norm_dist(partial_trace(mu, (0, 1)), singlet())
        assert side < budget


def test_compose_two_copy_block_permutation():
    mu = tensor(singlet(), singlet())
    lam1 = identity_protocol(PAIR.power(2))
    lam2 = identity_protocol(PAIR.power(2))
    combined, _ = compose_superadditive(lam1, lam2, mu, singlet(), eps=0.2, n=2)
    assert combined < 1e-10


def test_compose_budget_violation():
    mu = _desk_instance(0.02, 3)
    with pytest.raises(BudgetError, match="budget"):
        compose_superadditive(
            identity_protocol(PAIR), identity_protocol(PAIR), mu, singlet(), eps=0.3
        )


def test_compose_validation():
    mu = tensor(singlet(), singlet())
    with pytest.raises(ValueError):
        compose_superadditive(
            identity_protocol(PAIR), identity_protocol(PAIR), mu, singlet(), eps=0.0
        )
    with pytest.raises(NotPureError):
        compose_superadditive(
            identity_protocol(PAIR),
            identity_protocol(PAIR),
            mu,
            maximally_mixed(PAIR),
            eps=0.3,
        )
    with pytest.raises(LayoutMismatchError):
        compose_superadditive(
            identity_protocol(PAIR),
            identity_protocol(PAIR.power(2)),
            mu,
            singlet(),
            eps=0.3,
        )



_MU = tensor(singlet(), singlet())
Q0 = SystemLayout([(0, 2)])


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: squashed_upper(singlet(), decomposition=[(1.0, maximally_mixed(Q0))]),
         LayoutMismatchError, "decomposition member has wrong dims"),
        # a NaN weight passed the reconstruction test
        (lambda: squashed_upper(singlet(), decomposition=[(math.nan, singlet())]),
         ValueError, "decomposition does not reconstruct the input state"),
        (lambda: compose_superadditive(identity_protocol(SystemLayout([(1, 2), (0, 2)])),
                                       identity_protocol(PAIR), _MU, singlet(), eps=0.3),
         LayoutMismatchError, "first protocol does not match the leading factor block"),
        (lambda: compose_superadditive(identity_protocol(PAIR),
                                       identity_protocol(SystemLayout([(0, 3), (1, 2)])),
                                       _MU, singlet(), eps=0.3),
         LayoutMismatchError, "second protocol does not match the trailing factor block"),
        (lambda: compose_superadditive(LoccProtocol(PAIR, keep=(0,)), identity_protocol(PAIR),
                                       _MU, singlet(), eps=0.3),
         LayoutMismatchError, "SystemLayout(0:2) is not a copy power of SystemLayout(0:2, 1:2)"),
        (lambda: compose_superadditive(identity_protocol(PAIR), identity_protocol(PAIR), _MU,
                                       singlet(), eps=0.3, n=0),
         ValueError, "n must be >= 1, got 0"),
        # past the check, both sides and the joint pass and eps = 2.5 is accepted
        (lambda: compose_superadditive(identity_protocol(PAIR), identity_protocol(PAIR), _MU,
                                       singlet(), eps=2.5),
         ValueError, "eps must be in (0, 2], got 2.5"),
        (lambda: compose_superadditive(identity_protocol(PAIR), identity_protocol(PAIR),
                                       tensor(_MU, singlet()), singlet(), eps=0.3),
         LayoutMismatchError, "protocol inputs (2, 2) do not split 6 joint factors into n=1"),
    ],
    ids=["decomposition-dims", "decomposition-nan", "first-block", "second-block", "copy-power",
         "n-zero", "eps-past-2", "split"],
)
def test_mismatched_inputs_are_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as err:
        call()
    assert type(err.value) is error

def test_compose_combined_bound_holds_generally():
    # the chain guarantees the combined error stays below eps whenever the
    # per-side budgets hold; probe it on random correlated instances
    rng = np.random.default_rng(0)
    for seed in range(10):
        p = float(rng.uniform(0.0, 4e-4))
        mu = _desk_instance(p, 300 + seed)
        try:
            combined, _ = compose_superadditive(
                identity_protocol(PAIR), identity_protocol(PAIR), mu, singlet(), eps=0.3
            )
        except BoundViolationError as exc:  # pragma: no cover - must not happen
            pytest.fail(f"combined bound violated: {exc}")
        assert combined < 0.3
