import math
import os
import re
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catent import qstate
from catent.errors import (
    DimensionCapError,
    DocumentError,
    LayoutMismatchError,
    NotPureError,
    StateInvariantError,
)
from catent.qstate import (
    PSD_TOL,
    PURITY_TOL,
    QState,
    SchmidtVector,
    StateClipWarning,
    SystemLayout,
    basis_state,
    entanglement_entropy,
    fidelity,
    is_pure,
    load_state,
    maximally_entangled,
    maximally_mixed,
    n_copies,
    partial_trace,
    permute_factors,
    pure_state,
    purify,
    random_state,
    save_state,
    schmidt_decompose,
    singlet,
    state_from_dict,
    state_to_dict,
    tensor,
    tensor_all,
    trace_norm_dist,
    von_neumann_entropy,
)
from catent.qstate import _entropy_from_probs, _permute_matrix, _validate_density

QUBIT_PAIR = SystemLayout([(0, 2), (1, 2)])


def _pt_oracle(matrix, dims, keep):
    # independent reduction: trace one axis pair at a time
    dims = list(dims)
    m = np.array(matrix)
    for idx in sorted([i for i in range(len(dims)) if i not in keep], reverse=True):
        n = len(dims)
        t = m.reshape(dims + dims)
        t = np.trace(t, axis1=idx, axis2=idx + n)
        dims.pop(idx)
        d = int(np.prod(dims)) if dims else 1
        m = t.reshape(d, d)
    return m


# ---------------------------------------------------------------------------
# layouts


def test_layout_basics():
    lay = SystemLayout([(0, 2), (1, 3), (0, 4)])
    assert lay.total_dim == 24
    assert lay.dims == (2, 3, 4)
    assert lay.parties == (0, 1)
    assert lay.party_factors(0) == (0, 2)
    assert (lay + lay).total_dim == 24 * 24
    assert lay.power(2) == lay + lay
    assert lay.subset([2, 0]).dims == (4, 2)
    with pytest.raises(ValueError):
        SystemLayout([])
    with pytest.raises(ValueError):
        SystemLayout([(0, 0)])



@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: SystemLayout([(-1, 2)]), ValueError, "party id must be >= 0, got -1"),
        (lambda: QUBIT_PAIR.power(0), ValueError, "tensor power needs n >= 1"),
        (lambda: pure_state(QUBIT_PAIR, [1.0, 0.0]), LayoutMismatchError,
         "vector length 2 != layout dim 4"),
        # passed the norm test and divided by NaN, warning, before validation refused it
        (lambda: pure_state(QUBIT_PAIR, [math.nan] * 4), StateInvariantError,
         "amplitude vector has norm nan"),
        (lambda: basis_state(QUBIT_PAIR, (0,)), LayoutMismatchError,
         "need one basis index per factor"),
        (lambda: tensor_all([]), ValueError, "need at least one state"),
        (lambda: permute_factors(singlet(), (0, 0)), LayoutMismatchError,
         "order (0, 0) is not a permutation of 0..1"),
        (lambda: fidelity(singlet(), maximally_mixed(SystemLayout([(0, 2)]))),
         LayoutMismatchError, "dims (2, 2) vs (2,)"),
        (lambda: SchmidtVector(()), ValueError, "empty Schmidt vector"),
        (lambda: SchmidtVector.of([0.5, math.nan]), ValueError,
         "Schmidt probability 1 is not finite: nan"),
        (lambda: SchmidtVector.of([0.5, 0.5]).padded(1), ValueError,
         "cannot pad length 2 down to 1"),
    ],
    ids=["negative-party", "power-0", "pure-length", "pure-nan", "basis-count", "tensor-none",
         "permute-order", "fidelity-dims", "schmidt-empty", "schmidt-nan", "pad-shorter"],
)
def test_malformed_layouts_states_and_spectra_are_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as err:
        call()
    assert type(err.value) is error

def test_layout_total_dim_is_exact():
    # a fixed-width product wraps to 0 here and would slip past the cap
    with pytest.raises(DimensionCapError, match="^layout dimension 18446744073709551616 exceeds"):
        SystemLayout([(0, 2**32), (1, 2**32)])


def test_layout_refuses_more_than_max_factors():
    # the executor gives each factor two numpy axes, and numpy stops at 64
    assert qstate.MAX_FACTORS == 32 and len(SystemLayout([(0, 1)] * 32)) == 32
    with pytest.raises(DimensionCapError, match="^layout has more than 32 factors$"):
        SystemLayout([(0, 1)] * 33)

    def factors():
        yield from [(0, 1)] * 33
        raise AssertionError("read past the first factor beyond the limit")

    with pytest.raises(DimensionCapError, match="more than 32 factors"):
        SystemLayout(factors())


def test_layout_power_names_the_copies_and_their_dimension():
    pair = SystemLayout([(0, 2), (1, 2)])
    assert pair.power(6).total_dim == 4096
    with pytest.raises(DimensionCapError, match="^7 copies of dimension 4 exceed cap 4096$"):
        pair.power(7)
    assert len(SystemLayout([(0, 1), (1, 1)]).power(16)) == 32
    want = "^17 copies of a 2-factor layout exceed 32 factors$"
    with pytest.raises(DimensionCapError, match=want):
        SystemLayout([(0, 1), (1, 1)]).power(17)


_HUGE_POWER = """
import tracemalloc
from catent.errors import DimensionCapError
from catent.qstate import SystemLayout

tracemalloc.start()
for layout in (SystemLayout([(0, 2)]), SystemLayout([(0, 1)])):
    try:
        layout.power(10**9)
    except DimensionCapError as exc:
        print(exc)
print(tracemalloc.get_traced_memory()[1])
"""


def run_under_1gib(script: str) -> list[str]:
    """The output lines of ``script`` run in a child under a 1 GiB address-space limit.

    A refusal that comes too late then fails the test with a MemoryError
    instead of taking the suite down.
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qstate.__file__))),
        timeout=30,
        preexec_fn=limit,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_layout_power_refused_before_repeating_its_factors():
    # 10**9 copies would be a tuple of 8 GB: the refusal must come first
    refused, refused_1, peak = run_under_1gib(_HUGE_POWER)
    assert refused == "1000000000 copies of dimension 2 exceed cap 4096"
    assert refused_1 == "1000000000 copies of a 1-factor layout exceed 32 factors"
    assert int(peak) < 2**20


# ---------------------------------------------------------------------------
# construction and invariants


def test_tensor_singlet_trace_and_rank():
    s = tensor(singlet(), singlet())
    assert abs(s.matrix.trace() - 1.0) < 1e-12
    eigs = np.linalg.eigvalsh(s.matrix)
    assert np.sum(eigs > 1e-10) == 1


def test_not_hermitian_rejected():
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = 0.5
    with pytest.raises(StateInvariantError, match="hermitian"):
        QState(SystemLayout([(0, 2)]), m)


def test_wrong_trace_rejected():
    with pytest.raises(StateInvariantError, match="trace"):
        QState(SystemLayout([(0, 2)]), np.eye(2, dtype=complex))


def test_negative_eigenvalue_clip_and_reject():
    d = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateClipWarning):
            QState(SystemLayout([(0, 2)]), d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = QState(SystemLayout([(0, 2)]), d)
    assert np.linalg.eigvalsh(s.matrix)[0] >= 0.0
    bad = np.diag([1.0 + 5e-8, -5e-8]).astype(complex)
    with pytest.raises(StateInvariantError, match="PSD"):
        QState(SystemLayout([(0, 2)]), bad)


def test_pure_state_norm_check():
    with pytest.raises(StateInvariantError, match="norm"):
        pure_state(SystemLayout([(0, 2)]), [1.0, 1.0])


def test_basis_state():
    s = basis_state(QUBIT_PAIR, (1, 0))
    assert s.matrix[2, 2] == 1.0


# ---------------------------------------------------------------------------
# partial trace


def test_singlet_marginals_maximally_mixed():
    s = singlet()
    for keep in ((0,), (1,)):
        red = partial_trace(s, keep)
        assert np.max(np.abs(red.matrix - np.eye(2) / 2)) < 1e-12


def test_partial_trace_keeps_original_order():
    a = random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=1)
    b = random_state(SystemLayout([(1, 3)]), "ginibre_mixed", seed=2)
    c = random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=3)
    s = tensor(tensor(a, b), c)
    red = partial_trace(s, (2, 0))
    assert red.layout.dims == (2, 2)
    assert np.max(np.abs(red.matrix - np.kron(a.matrix, c.matrix))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 6))
def test_partial_trace_matches_oracle(seed, keep_code):
    lay = SystemLayout([(0, 2), (1, 2), (0, 3)])
    s = random_state(lay, "ginibre_mixed", seed=seed)
    keep = [k for k in range(3) if keep_code & (1 << k)] or [0]
    got = partial_trace(s, keep)
    want = _pt_oracle(s.matrix, list(lay.dims), sorted(set(keep)))
    assert np.max(np.abs(got.matrix - want)) < 1e-12


def test_partial_trace_errors():
    s = singlet()
    with pytest.raises(ValueError):
        partial_trace(s, ())
    with pytest.raises(LayoutMismatchError):
        partial_trace(s, (5,))


def test_permute_factors_matches_kron():
    a = random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=7)
    b = random_state(SystemLayout([(1, 3)]), "ginibre_mixed", seed=8)
    s = tensor(a, b)
    p = permute_factors(s, (1, 0))
    assert p.layout.dims == (3, 2)
    assert np.max(np.abs(p.matrix - np.kron(b.matrix, a.matrix))) < 1e-12


# ---------------------------------------------------------------------------
# metrics


def test_trace_norm_frozen_value():
    ket0 = basis_state(SystemLayout([(0, 2)]), (0,))
    mixed = maximally_mixed(SystemLayout([(0, 2)]))
    # eigenvalues of the difference are +-1/2, so the trace norm is exactly 1
    assert abs(trace_norm_dist(ket0, mixed) - 1.0) < 1e-12


def test_trace_norm_bits_match_plain_difference():
    # the old form, eigvalsh of the plain difference, kept as the oracle:
    # the difference of two validated matrices is exactly hermitian
    def old(a, b):
        return float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())

    pairs = [
        (random_state(QUBIT_PAIR, "ginibre_mixed", seed=s),
         random_state(QUBIT_PAIR, "haar_pure" if s % 2 else "ginibre_mixed", seed=s + 50))
        for s in range(10)
    ]
    for s in range(4):
        # tensor products carry a derived spectrum, not an eigvalsh one
        a, b = (tensor(random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=s + k),
                       random_state(SystemLayout([(1, 3)]), "ginibre_mixed", seed=s + k + 9))
                for k in (0, 20))
        pairs.append((a, b))
        pairs.append((n_copies(random_state(QUBIT_PAIR, "ginibre_mixed", seed=s), 2),
                      n_copies(random_state(QUBIT_PAIR, "haar_pure", seed=s), 2)))
    for a, b in pairs:
        assert trace_norm_dist(a, b) == old(a, b)


def test_fidelity_frozen_value():
    ket0 = basis_state(SystemLayout([(0, 2)]), (0,))
    mixed = maximally_mixed(SystemLayout([(0, 2)]))
    assert abs(fidelity(ket0, mixed) - 1.0 / math.sqrt(2.0)) < 1e-12


def test_fidelity_pure_pure_is_overlap():
    rng = np.random.default_rng(5)
    lay = SystemLayout([(0, 4)])
    for _ in range(20):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        f = fidelity(pure_state(lay, u), pure_state(lay, v))
        assert abs(f - abs(np.vdot(u, v))) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_metric_properties(seed):
    lay = SystemLayout([(0, 3)])
    a = random_state(lay, "ginibre_mixed", seed=seed)
    b = random_state(lay, "ginibre_mixed", seed=seed + 1)
    c = random_state(lay, "ginibre_mixed", seed=seed + 2)
    dab = trace_norm_dist(a, b)
    assert 0.0 <= dab <= 2.0
    assert abs(dab - trace_norm_dist(b, a)) < 1e-12
    assert dab <= trace_norm_dist(a, c) + trace_norm_dist(c, b) + 1e-12
    assert trace_norm_dist(a, a) < 1e-12
    f = fidelity(a, b)
    assert 0.0 <= f <= 1.0
    assert abs(f - fidelity(b, a)) < 1e-10
    assert fidelity(a, a) > 1.0 - 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_fuchs_van_de_graaf(seed):
    lay = SystemLayout([(0, 3)])
    a = random_state(lay, "ginibre_mixed", seed=seed)
    b = random_state(lay, "haar_pure", seed=seed + 1)
    t = trace_norm_dist(a, b)
    f = fidelity(a, b)
    # lower form against a pure second argument; upper form for any pair
    assert f >= math.sqrt(max(0.0, 1.0 - t / 2.0)) - 1e-10
    assert t / 2.0 <= math.sqrt(max(0.0, 1.0 - f * f)) + 1e-10
    # the weak lower bound holds for arbitrary pairs
    c = random_state(lay, "ginibre_mixed", seed=seed + 2)
    assert 1.0 - fidelity(a, c) <= trace_norm_dist(a, c) / 2.0 + 1e-10


def test_data_processing_partial_trace():
    lay = SystemLayout([(0, 2), (1, 2)])
    for seed in range(15):
        a = random_state(lay, "ginibre_mixed", seed=seed)
        b = random_state(lay, "ginibre_mixed", seed=seed + 100)
        full = trace_norm_dist(a, b)
        red = trace_norm_dist(partial_trace(a, (0,)), partial_trace(b, (0,)))
        assert red <= full + 1e-12


# ---------------------------------------------------------------------------
# entropies


def test_entropy_frozen_binary_value():
    s = QState(SystemLayout([(0, 2)]), np.diag([0.9, 0.1]).astype(complex))
    oracle = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    got = von_neumann_entropy(s)
    assert abs(got - oracle) < 1e-12
    assert abs(got - 0.4690) < 1e-3


def test_entropy_edge_cases():
    assert von_neumann_entropy(singlet()) < 1e-10
    assert abs(von_neumann_entropy(maximally_mixed(SystemLayout([(0, 4)]))) - 2.0) < 1e-12
    # nothing above the cutoff: +0.0, not the -0.0 of an empty sum negated
    for probs in ([], [1e-13, 0.0]):
        assert math.copysign(1.0, _entropy_from_probs(np.array(probs))) == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_entropy_additivity(seed):
    a = random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=seed)
    b = random_state(SystemLayout([(1, 3)]), "ginibre_mixed", seed=seed + 1)
    lhs = von_neumann_entropy(tensor(a, b))
    rhs = von_neumann_entropy(a) + von_neumann_entropy(b)
    assert abs(lhs - rhs) < 1e-8


def test_entanglement_entropy_singlet():
    assert abs(entanglement_entropy(singlet()) - 1.0) < 1e-10


def test_entanglement_entropy_product_state():
    a = random_state(SystemLayout([(0, 2)]), "haar_pure", seed=3)
    b = random_state(SystemLayout([(1, 2)]), "haar_pure", seed=4)
    assert entanglement_entropy(tensor(a, b)) < 1e-8


def test_entanglement_entropy_rejects_mixed():
    with pytest.raises(NotPureError):
        entanglement_entropy(maximally_mixed(QUBIT_PAIR))


def test_entanglement_entropy_bad_bipartition():
    with pytest.raises(LayoutMismatchError):
        entanglement_entropy(singlet(), parties_a=(0, 1))


# ---------------------------------------------------------------------------
# Schmidt machinery


def test_schmidt_singlet():
    sv = schmidt_decompose(singlet())
    assert np.max(np.abs(np.array(sv.probs) - 0.5)) < 1e-12


def test_schmidt_matches_marginal_spectrum():
    for seed in range(10):
        s = random_state(SystemLayout([(0, 2), (1, 3)]), "haar_pure", seed=seed)
        sv = schmidt_decompose(s)
        # oracle: eigenvalues of the A marginal, descending
        eigs = np.sort(np.linalg.eigvalsh(partial_trace(s, (0,)).matrix))[::-1]
        want = np.pad(eigs, (0, len(sv) - len(eigs)))
        assert np.max(np.abs(np.array(sv.probs) - want)) < 1e-10


def test_schmidt_vector_validation():
    sv = SchmidtVector.of([0.1, 0.9])
    assert sv.probs == (0.9, 0.1)
    assert abs(sv.entropy() - 0.4689955935892812) < 1e-12
    assert sv.padded(4).probs == (0.9, 0.1, 0.0, 0.0)
    prod = SchmidtVector.of([0.5, 0.5]).tensor(SchmidtVector.of([0.6, 0.4]))
    assert np.allclose(prod.probs, (0.3, 0.3, 0.2, 0.2), atol=1e-12)
    with pytest.raises(ValueError):
        SchmidtVector((0.1, 0.9))
    with pytest.raises(ValueError):
        SchmidtVector.of([0.5, -0.5])
    with pytest.raises(ValueError):
        SchmidtVector.of([])


def test_schmidt_vector_accepts_every_length_it_normalizes():
    # 1e5 equal terms: the sequential sum of the normalized vector misses 1
    # by 1.9e-12, the exact sum by far less
    sv = SchmidtVector.of([1.0] * 100000)
    assert len(sv) == 100000 and abs(math.fsum(sv.probs) - 1.0) <= 1e-12


def _no_outer(*args):
    raise AssertionError("np.outer called past the cap")


def test_schmidt_tensor_past_the_cap_is_refused_before_the_product(monkeypatch):
    a = SchmidtVector.of([1.0] * 64)
    assert len(a.tensor(a)) == 4096
    monkeypatch.setattr(np, "outer", _no_outer)
    with pytest.raises(DimensionCapError, match="4160 exceeds cap 4096"):
        a.tensor(SchmidtVector.of([1.0] * 65))


def test_pure_state_past_the_cap_is_refused_before_the_outer_product(monkeypatch):
    amps = np.eye(65).reshape(-1) / math.sqrt(65)
    monkeypatch.setattr(np, "outer", _no_outer)
    with pytest.raises(DimensionCapError, match="4225 exceeds cap 4096"):
        pure_state(SystemLayout([(0, 65), (1, 65)]), amps)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_schmidt_vector_refuses_non_finite(bad):
    for probs in ((bad,), (1.0, bad), (bad, 0.0)):
        with pytest.raises(ValueError):
            SchmidtVector(probs)


# ---------------------------------------------------------------------------
# purification


def test_purify_roundtrip():
    for seed in range(6):
        s = random_state(SystemLayout([(0, 2), (1, 2)]), "ginibre_mixed", seed=seed)
        psi = purify(s)
        assert np.linalg.eigvalsh(psi.matrix)[-1] > 1.0 - 1e-10
        back = partial_trace(psi, (0, 1))
        assert trace_norm_dist(back, s) < 1e-10
        assert psi.layout[-1].party == 2


def test_purify_pure_input_trivial_reference():
    psi = purify(singlet())
    assert psi.layout[-1].dim == 1


# ---------------------------------------------------------------------------
# random states


def test_random_state_deterministic():
    lay = SystemLayout([(0, 2), (1, 2)])
    a = random_state(lay, "ginibre_mixed", seed=42)
    b = random_state(lay, "ginibre_mixed", seed=42)
    c = random_state(lay, "ginibre_mixed", seed=43)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)


def test_random_ensembles():
    lay = SystemLayout([(0, 3)])
    p = random_state(lay, "haar_pure", seed=0)
    assert np.linalg.eigvalsh(p.matrix)[-1] > 1.0 - 1e-12
    g = random_state(lay, "ginibre_mixed", seed=0)
    assert np.linalg.eigvalsh(g.matrix)[0] > 0.0
    with pytest.raises(ValueError):
        random_state(lay, "bogus", seed=0)


def test_maximally_entangled():
    s = maximally_entangled(3)
    assert abs(entanglement_entropy(s) - math.log2(3)) < 1e-10


_HUGE_PAIR = """
import tracemalloc
from catent.qstate import maximally_entangled

tracemalloc.start()
try:
    maximally_entangled(10**5)
except Exception as exc:
    print(type(exc).__name__, tracemalloc.get_traced_memory()[1], exc)
"""


def test_maximally_entangled_past_the_cap_is_refused_before_allocating():
    # the 10**10 amplitudes were allocated before the layout: numpy raised
    # an untyped MemoryError for 149 GiB
    (line,) = run_under_1gib(_HUGE_PAIR)
    name, peak, message = line.split(" ", 2)
    assert (name, message) == ("DimensionCapError", "layout dimension 10000000000 exceeds cap 4096")
    assert int(peak) < 2**20


# ---------------------------------------------------------------------------
# serialization


def test_state_serialization_bit_exact(tmp_path):
    s = random_state(SystemLayout([(0, 2), (1, 3)]), "ginibre_mixed", seed=9)
    path = tmp_path / "state.json"
    save_state(s, path)
    loaded = load_state(path)
    assert loaded.layout == s.layout
    assert np.array_equal(loaded.matrix, s.matrix)


def test_state_dict_format_guard():
    doc = state_to_dict(singlet())
    doc["format"] = "nope"
    with pytest.raises(ValueError):
        state_from_dict(doc)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("matrix"),
        lambda d: d.pop("factors"),
        lambda d: d.update(factors=5),
        lambda d: d.update(factors=[[0, "two"], [1, 2]]),
        lambda d: d["matrix"].pop("shape"),
        lambda d: d["matrix"].update(entries=[["0x1p0", 0]] * 16),
        lambda d: d["matrix"].update(entries=[["zz", "0x0p0"]] * 16),
        lambda d: d["matrix"].update(entries=d["matrix"]["entries"][:-1]),
        lambda d: d.update(format="catent-state-v9"),
        lambda d: d.clear(),
    ],
    ids=[
        "no-matrix", "no-factors", "factors-int", "dim-str", "no-shape",
        "entry-float", "entry-not-hex", "entry-count", "format", "empty",
    ],
)
def test_state_dict_malformed_raises_document_error(mutate):
    doc = state_to_dict(singlet())
    mutate(doc)
    with pytest.raises(DocumentError):
        state_from_dict(doc)
    with pytest.raises(DocumentError):
        state_from_dict([doc])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0), (3, 3)])
def test_state_refuses_non_finite_entry(bad, pos):
    # eigvalsh reads one triangle and NaN fails every comparison, so such a
    # matrix used to pass all checks
    for part in (0, 1):
        m = maximally_mixed(QUBIT_PAIR).matrix.copy()
        m[pos] = complex(bad, 0) if part == 0 else complex(m[pos].real, bad)
        bad_doc = state_to_dict(maximally_mixed(QUBIT_PAIR))
        bad_doc["matrix"]["entries"][4 * pos[0] + pos[1]][part] = bad.hex()
        with np.errstate(invalid="ignore"):
            with pytest.raises(StateInvariantError):
                QState(QUBIT_PAIR, m)
            with pytest.raises(StateInvariantError):
                state_from_dict(bad_doc)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("pos", [(0, 0), (0, 1), (2, 1), (3, 3)])
def test_state_names_non_finite_entry_without_warning(bad, pos):
    # numpy warnings are errors here; the entry is named, not an asymmetry
    m = maximally_mixed(QUBIT_PAIR).matrix.copy()
    m[pos] = bad
    with pytest.raises(StateInvariantError, match=rf"matrix entry \({pos[0]}, {pos[1]}\) is not finite"):
        QState(QUBIT_PAIR, m)


def test_n_copies():
    s = n_copies(singlet(), 3)
    assert s.total_dim == 64
    assert len(s.layout) == 6


# ---------------------------------------------------------------------------
# kept spectra: products and permutations derive theirs


def _factor_state(kind, dim, seed, party):
    lay = SystemLayout([(party, dim)])
    rng = np.random.default_rng(seed)
    if kind == "ginibre":
        return random_state(lay, "ginibre_mixed", seed)
    if kind == "haar":
        return random_state(lay, "haar_pure", seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    p = rng.random(dim)
    if kind == "rank_deficient":
        p[: 1 + seed % dim] = 0.0
        p[-1] += 1.0
    p /= p.sum()
    if kind == "clipped" and dim > 1:
        # one eigenvalue in the clip band [-1e-9, -1e-10)
        p[0], p[1] = -5e-10, p[1] + p[0] + 5e-10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StateClipWarning)
        return QState(lay, (q * p) @ q.conj().T)


_FACTORS = st.lists(
    st.tuples(
        st.sampled_from(["ginibre", "haar", "rank_deficient", "clipped"]),
        st.integers(1, 6),
        st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=4,
)


def _full_path(matrix):
    # the eigvalsh-validated matrix: what every product was before spectra were derived
    return _validate_density(matrix, matrix.shape[0])[0]


def _assert_spectrum_is_the_matrix_spectrum(state):
    eigs = np.linalg.eigvalsh(state.matrix)
    assert np.max(np.abs(state.spectrum - eigs)) < 1e-12
    assert abs(von_neumann_entropy(state) - _entropy_from_probs(eigs)) < 1e-12
    assert is_pure(state) == (eigs[-1] >= 1.0 - PURITY_TOL)


@settings(max_examples=60, deadline=None)
@given(_FACTORS, st.data())
def test_derived_spectra_match_full_validation(factors, data):
    states = [_factor_state(k, d, seed, i % 2) for i, (k, d, seed) in enumerate(factors)]
    for s in states:
        _assert_spectrum_is_the_matrix_spectrum(s)

    out = tensor_all(states)
    expect = states[0].matrix
    for s in states[1:]:
        expect = _full_path(np.kron(expect, s.matrix))
    assert out.matrix.tobytes() == expect.tobytes()
    _assert_spectrum_is_the_matrix_spectrum(out)

    a, b = states[0], states[-1]
    pair = tensor(a, b)
    assert pair.matrix.tobytes() == _full_path(np.kron(a.matrix, b.matrix)).tobytes()
    _assert_spectrum_is_the_matrix_spectrum(pair)

    order = data.draw(st.permutations(range(len(states))))
    perm = permute_factors(out, order)
    expect = _full_path(_permute_matrix(out.matrix, out.layout.dims, order))
    assert perm.matrix.tobytes() == expect.tobytes()
    _assert_spectrum_is_the_matrix_spectrum(perm)


def test_clipped_state_keeps_the_stored_spectrum():
    d = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StateClipWarning)
        s = QState(SystemLayout([(0, 2)]), d)
    assert s.spectrum.tolist() == [0.0, 1.0]
    _assert_spectrum_is_the_matrix_spectrum(s)
    assert not s.spectrum.flags.writeable


def test_products_and_metrics_reuse_the_kept_spectrum(eigvalsh_calls):
    states = [
        random_state(SystemLayout([(i % 2, 4)]), "ginibre_mixed", seed=i) for i in range(5)
    ]
    eigvalsh_calls.clear()
    out = tensor_all(states)
    assert out.total_dim == 1024
    von_neumann_entropy(states[0])
    is_pure(states[0])
    permute_factors(out, [4, 3, 2, 1, 0])
    assert eigvalsh_calls == []


def test_product_near_the_psd_tolerance_takes_the_full_path(eigvalsh_calls):
    lay = SystemLayout([(0, 2)])
    dusty = QState(lay, np.diag([1.0 + 0.8 * PSD_TOL, -0.8 * PSD_TOL]).astype(complex))
    clean = random_state(SystemLayout([(1, 2)]), "haar_pure", seed=3)
    eigvalsh_calls.clear()
    out = tensor(dusty, clean)
    assert eigvalsh_calls == [(4, 4)]
    assert out.matrix.tobytes() == _full_path(np.kron(dusty.matrix, clean.matrix)).tobytes()
    _assert_spectrum_is_the_matrix_spectrum(out)


def test_tensor_rechecks_the_trace():
    # each factor passes at 1 + 0.9e-10; their product's trace does not
    a = QState(SystemLayout([(0, 2)]), np.diag([0.5, 0.5 + 0.9e-10]).astype(complex))
    with pytest.raises(StateInvariantError, match="trace"):
        tensor(a, a)


def test_tensor_cap_checked_before_allocating(monkeypatch):
    a = maximally_mixed(SystemLayout([(0, 64)]))
    b = maximally_mixed(SystemLayout([(1, 65)]))

    def no_kron(*args):
        raise AssertionError("np.kron called past the cap")

    monkeypatch.setattr(np, "kron", no_kron)
    with pytest.raises(DimensionCapError, match="4160"):
        tensor(a, b)


# ---------------------------------------------------------------------------
# one-pass products and exactly hermitian matrices


def _chained(states):
    # the product as it was built: a validated two-factor product per factor
    out = states[0]
    for s in states[1:]:
        spectrum = np.sort(np.outer(out.spectrum, s.spectrum), axis=None)
        out = QState(out.layout + s.layout, np.kron(out.matrix, s.matrix), _spectrum=spectrum)
    return out


def _symmetrized(m):
    # what validation stored for every matrix before exact ones were kept
    return (m + m.conj().T) / 2.0


@settings(max_examples=60, deadline=None)
@given(_FACTORS)
def test_tensor_all_is_chained_tensor_bit_for_bit(factors):
    states = [_factor_state(k, d, seed, i % 2) for i, (k, d, seed) in enumerate(factors)]
    got, want = tensor_all(states), _chained(states)
    assert got.layout == want.layout
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.spectrum.tobytes() == want.spectrum.tobytes()


def test_tensor_all_past_a_partial_spectrum_recomputed_by_the_chain():
    # the chain decomposes dusty (x) clean (its derived minimum is below
    # -PSD_TOL / 2); tensor_all derives the whole product, whose minimum is not
    dust = np.diag([1.0 + 0.8 * PSD_TOL, -0.8 * PSD_TOL]).astype(complex)
    dusty = QState(SystemLayout([(0, 2)]), dust)
    clean = random_state(SystemLayout([(1, 2)]), "haar_pure", seed=3)
    states = [dusty, clean, maximally_mixed(SystemLayout([(1, 3)]))]
    got, want = tensor_all(states), _chained(states)
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert np.max(np.abs(got.spectrum - want.spectrum)) < 1e-15
    assert -PSD_TOL / 2 < got.spectrum[0] < 0
    _assert_spectrum_is_the_matrix_spectrum(got)


def test_tensor_all_of_one_state_is_that_state():
    s = random_state(QUBIT_PAIR, "ginibre_mixed", seed=2)
    assert tensor_all([s]) is s is _chained([s])


def test_tensor_all_validates_once(monkeypatch):
    states = [random_state(QUBIT_PAIR, "ginibre_mixed", seed=i) for i in range(5)]
    seen = []
    inner = qstate._validate_density
    monkeypatch.setattr(qstate, "_validate_density",
                        lambda m, *a: seen.append(m.shape) or inner(m, *a))
    out = tensor_all(states)
    assert seen == [(1024, 1024)] and out.total_dim == 1024


def test_tensor_all_cap_checked_before_allocating(monkeypatch):
    pair = random_state(QUBIT_PAIR, "ginibre_mixed", seed=1)

    def refuse(*args, **kwargs):
        raise AssertionError("a product was built past the cap")

    monkeypatch.setattr(np, "kron", refuse)
    monkeypatch.setattr(np, "outer", refuse)
    # the product layout is refused before any spectrum or matrix is built
    want = "^layout dimension 16384 exceeds cap 4096$"
    with pytest.raises(DimensionCapError, match=want):
        tensor_all([pair] * 7)
    with pytest.raises(DimensionCapError, match="dimension 4160 exceeds"):
        tensor_all([maximally_mixed(SystemLayout([(0, 64)])),
                    maximally_mixed(SystemLayout([(1, 65)]))])


@pytest.mark.parametrize("seed", range(6))
def test_exactly_hermitian_matrix_is_kept_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    d = 1 + seed
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m = _symmetrized(m / m.trace().real)
    assert np.max(np.abs(m - m.conj().T)) == 0.0
    lay = SystemLayout([(0, d)])
    got = QState(lay, m)
    assert got.matrix.tobytes() == _symmetrized(m).tobytes()
    # the stored matrix is a copy; the caller's array stays writable and its own
    assert not np.shares_memory(got.matrix, m) and m.flags.writeable
    # 1e-13 of asymmetry takes the symmetrization, as every matrix did
    if d > 1:
        a = m.copy()
        a[0, d - 1] += 1e-13
        assert QState(lay, a).matrix.tobytes() == _symmetrized(a).tobytes()
        assert not np.array_equal(_symmetrized(a), a)


def test_exact_product_differs_from_its_symmetrization_only_in_zero_signs():
    # a Kronecker product of stored matrices is exactly hermitian, and kept as
    # it is; symmetrizing it moves no value, only the sign bit of some zeros
    a = pure_state(QUBIT_PAIR, [math.sqrt(0.7), 0, 0, math.sqrt(0.3)])
    b = random_state(QUBIT_PAIR, "ginibre_mixed", seed=5)
    m = np.kron(a.matrix, b.matrix)
    got, want = QState(a.layout + b.layout, m).matrix, _symmetrized(m)
    assert np.array_equal(got, want)
    moved = got.view(np.uint64) != want.view(np.uint64)
    assert np.any(moved) and np.all(got.view(np.float64)[moved] == 0.0)


def test_non_finite_pair_in_an_exactly_hermitian_matrix_is_named():
    m = maximally_mixed(QUBIT_PAIR).matrix.copy()
    m[0, 1] = m[1, 0] = complex(math.nan, 0.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(StateInvariantError, match=r"matrix entry \(0, 1\) is not finite"):
            QState(QUBIT_PAIR, m)
