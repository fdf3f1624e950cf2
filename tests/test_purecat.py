import gc
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catent.errors import DimensionCapError, DivergingRateError, NotConvertibleError
from catent.locc import (
    Instrument,
    LocalChannel,
    LocalInstrument,
    LoccProtocol,
    _run_matrix,
    apply,
    embed_protocol,
    flatten,
)
from catent.purecat import (
    SUM_TOL,
    _mixing_chain,
    _padded_pair,
    canonical_pure,
    catalytic_convertible,
    majorizes,
    pure_target_rate,
    synthesize_pure_protocol,
)
from catent.qstate import (
    SchmidtVector,
    SystemLayout,
    fidelity,
    maximally_entangled,
    n_copies,
    random_state,
    singlet,
    tensor,
)

JP_SOURCE = SchmidtVector.of((0.4, 0.4, 0.1, 0.1))
JP_TARGET = SchmidtVector.of((0.5, 0.25, 0.25))
JP_CATALYST = SchmidtVector.of((0.6, 0.4))


def _random_spectrum(rng, d):
    p = rng.random(d) + 1e-3
    return SchmidtVector.of(p / p.sum())


def _dominates_oracle(t, s):
    # independent partial-sum comparison on padded raw arrays
    d = max(len(t), len(s))
    tt = np.sort(np.pad(np.asarray(t, dtype=float), (0, d - len(t))))[::-1]
    ss = np.sort(np.pad(np.asarray(s, dtype=float), (0, d - len(s))))[::-1]
    return bool(np.all(np.cumsum(tt) >= np.cumsum(ss) - 1e-12))


# ---------------------------------------------------------------------------
# majorization decisions


def test_pure_to_product_always_convertible():
    rep = majorizes(SchmidtVector.of((1.0,)), SchmidtVector.of((0.5, 0.5)))
    assert rep.convertible
    assert rep.violated_index is None


def test_gate_example_blocked_without_catalyst():
    rep = majorizes(JP_TARGET, JP_SOURCE)
    assert not rep.convertible
    assert rep.violated_index == 2
    assert np.allclose(rep.partial_sums_target, (0.5, 0.75, 1.0, 1.0), atol=1e-12)
    assert np.allclose(rep.partial_sums_source, (0.4, 0.8, 0.9, 1.0), atol=1e-12)


def test_gate_example_enabled_by_catalyst():
    rep = catalytic_convertible(JP_SOURCE, JP_TARGET, JP_CATALYST)
    assert rep.convertible
    # independent oracle on the raw product spectra
    t = np.outer(JP_TARGET.probs, JP_CATALYST.probs).ravel()
    s = np.outer(JP_SOURCE.probs, JP_CATALYST.probs).ravel()
    assert _dominates_oracle(t, s)


def test_trivial_catalyst_changes_nothing():
    rng = np.random.default_rng(0)
    one = SchmidtVector.of((1.0,))
    for _ in range(20):
        s = _random_spectrum(rng, 4)
        t = _random_spectrum(rng, 4)
        plain = majorizes(t, s)
        cat = catalytic_convertible(s, t, one)
        assert plain.convertible == cat.convertible


def test_identity_not_falsely_enabled():
    s = SchmidtVector.of((0.5, 0.3, 0.2))
    rep = catalytic_convertible(s, s, s)
    assert rep.convertible  # identity conversion is always allowed
    rep2 = catalytic_convertible(JP_TARGET, JP_SOURCE, JP_SOURCE)
    # the reverse of a strictly blocked conversion stays blocked under
    # a catalyst equal to the source spectrum here
    assert rep2.convertible == _dominates_oracle(
        np.outer(JP_SOURCE.probs, JP_SOURCE.probs).ravel(),
        np.outer(JP_TARGET.padded(4).probs, JP_SOURCE.probs).ravel(),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_majorizes_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    t = _random_spectrum(rng, int(rng.integers(1, 6)))
    s = _random_spectrum(rng, int(rng.integers(1, 6)))
    assert majorizes(t, s).convertible == _dominates_oracle(t.probs, s.probs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_majorizes_reflexive_transitive(seed):
    rng = np.random.default_rng(seed)
    a = _random_spectrum(rng, 4)
    assert majorizes(a, a).convertible
    b = _random_spectrum(rng, 4)
    c = _random_spectrum(rng, 4)
    if majorizes(a, b).convertible and majorizes(b, c).convertible:
        assert majorizes(a, c).convertible


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_catalyst_never_hurts(seed):
    rng = np.random.default_rng(seed)
    s = _random_spectrum(rng, 4)
    t = _random_spectrum(rng, 4)
    c = _random_spectrum(rng, 3)
    if majorizes(t, s).convertible:
        assert catalytic_convertible(s, t, c).convertible


# ---------------------------------------------------------------------------
# protocol synthesis


def test_synthesize_to_product():
    proto = synthesize_pure_protocol(SchmidtVector.of((0.5, 0.5)), SchmidtVector.of((1.0,)))
    out = apply(flatten(proto), canonical_pure(SchmidtVector.of((0.5, 0.5))))
    want = canonical_pure(SchmidtVector.of((1.0,)).padded(2))
    assert fidelity(out, want) > 1.0 - 1e-10


def test_synthesize_half_to_biased():
    src = SchmidtVector.of((0.5, 0.5))
    tgt = SchmidtVector.of((0.75, 0.25))
    proto = synthesize_pure_protocol(src, tgt)
    out = apply(flatten(proto), canonical_pure(src))
    assert fidelity(out, canonical_pure(tgt)) > 1.0 - 1e-8


def test_synthesize_rejects_nonconvertible():
    with pytest.raises(NotConvertibleError):
        synthesize_pure_protocol(SchmidtVector.of((0.8, 0.2)), SchmidtVector.of((0.7, 0.3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_synthesize_random_convertible_pairs(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    t = _random_spectrum(rng, d)
    # mix the target toward uniform: mixing can only go down in domination
    probs = np.asarray(t.probs)
    lam = rng.random()
    s = SchmidtVector.of(lam * probs + (1 - lam) * np.full(d, 1.0 / d))
    assert majorizes(t, s).convertible
    proto = synthesize_pure_protocol(s, t)
    out = apply(flatten(proto), canonical_pure(s))
    assert fidelity(out, canonical_pure(t.padded(len(s)))) > 1.0 - 1e-8


def test_synthesize_on_copy_layout():
    # two copies of a two-qubit pair, measurement on the joint A side
    pair = SystemLayout([(0, 2), (1, 2)])
    src = SchmidtVector.of((0.5, 0.5))
    tgt = SchmidtVector.of((0.75, 0.25))
    proto = synthesize_pure_protocol(
        src.tensor(src), tgt.tensor(tgt), layout=pair.power(2)
    )
    rho = canonical_pure(src)
    out = apply(flatten(proto), n_copies(rho, 2))
    want = n_copies(canonical_pure(tgt), 2)
    assert fidelity(out, want) > 1.0 - 1e-8


def test_synthesize_layout_validation():
    src = SchmidtVector.of((0.5, 0.5))
    tgt = SchmidtVector.of((1.0,))
    with pytest.raises(ValueError):
        synthesize_pure_protocol(src, tgt, layout=SystemLayout([(0, 2), (1, 3)]))
    with pytest.raises(ValueError):
        synthesize_pure_protocol(src, tgt, layout=SystemLayout([(0, 2), (2, 2)]))
    # party dimension 2**64: an int64 product wraps to 0 here; the whole
    # 2**128-dim layout is refused where it is built, before any protocol
    with pytest.raises(DimensionCapError, match=f"^layout dimension {2**128} exceeds cap 4096$"):
        SystemLayout([(0, 2**32), (0, 2**32), (1, 2**32), (1, 2**32)])


@pytest.mark.parametrize(
    "src,tgt,layout,error,message",
    [
        # past the check, the mixing chain's internal consistency checks fired
        ((0.9, 0.1), (0.5, 0.5), None, NotConvertibleError,
         "target does not dominate source (first violation at prefix 1)"),
        # past the check, the party-2 factor was left out of a silently built protocol
        ((0.5, 0.5), (1.0,), SystemLayout([(0, 2), (1, 2), (2, 2)]), ValueError,
         "layout must contain exactly parties 0 and 1"),
        ((0.5, 0.5), (1.0,), SystemLayout([(0, 2), (1, 4)]), ValueError,
         "party dimensions (2, 4) cannot hold a length-2 spectrum"),
    ],
    ids=["not-dominated", "third-party", "unequal-parties"],
)
def test_synthesis_refuses_inputs_outside_its_domain(src, tgt, layout, error, message):
    with pytest.raises(error, match=re.escape(message)) as err:
        synthesize_pure_protocol(SchmidtVector.of(src), SchmidtVector.of(tgt), layout=layout)
    assert type(err.value) is error


def _dict_mixing_chain(target, source):
    """The mixing chain as a dict of permutation tuples: the oracle of ``_mixing_chain``.

    Each step walks the terms in insertion order, adding the keep branch
    and then the swap branch; a permutation already present is merged
    into its first occurrence.
    """
    d = len(target)
    w = target.astype(float).copy()
    terms = {tuple(range(d)): 1.0}
    for _ in range(d):
        over = np.where(w > source + SUM_TOL)[0]
        if over.size == 0:
            break
        j = int(over[-1])
        k = int(np.where((np.arange(d) > j) & (w < source - SUM_TOL))[0][0])
        delta = min(w[j] - source[j], source[k] - w[k])
        frac = delta / (w[j] - w[k])
        swap = list(range(d))
        swap[j], swap[k] = k, j
        new_terms = {}
        for sigma, weight in terms.items():
            new_terms[sigma] = new_terms.get(sigma, 0.0) + weight * (1.0 - frac)
            comp = tuple(sigma[swap[i]] for i in range(d))
            new_terms[comp] = new_terms.get(comp, 0.0) + weight * frac
        terms = new_terms
        w[j] -= delta
        w[k] += delta
    return [(sigma, wt) for sigma, wt in terms.items() if wt > 1e-15]


def _assert_chain_matches_dict(target, source):
    sigmas, wts = _mixing_chain(target, source)
    want = _dict_mixing_chain(target, source)
    assert sigmas.shape == (len(want), len(target)) and wts.shape == (len(want),)
    assert [tuple(int(i) for i in row) for row in sigmas] == [sigma for sigma, _ in want]
    assert wts.tobytes() == np.array([wt for _, wt in want]).tobytes()
    return len(want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_mixing_chain_matches_dict_chain(seed):
    # random dominated pairs, some with ties and zero tails; the dict
    # would merge a permutation reached twice, so equal rows also show
    # that no two branches meet
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 10))
    t = np.sort(rng.random(d) ** int(rng.integers(1, 4)))[::-1]
    t[int(rng.integers(1, d + 1)) :] = 0.0
    t = t / t.sum()
    lam = rng.choice([rng.random(), 0.5, 0.25])
    s = lam * t + (1 - lam) * np.full(d, 1.0 / d)
    _assert_chain_matches_dict(t, s)


def test_mixing_chain_drops_negligible_branches():
    # two steps of fraction 1e-8 each: the branch swapped twice has weight
    # 1e-16, under the 1e-15 cut, so 3 of the 4 branches are kept
    e = 1e-9
    t = np.array([0.4, 0.3, 0.2, 0.1])
    s = np.array([0.4 - e, 0.3 + e, 0.2 - e, 0.1 + e])
    assert _assert_chain_matches_dict(t, s) == 3


def _copies_pair(src, tgt, n):
    """The n-copy spectra of a (src, tgt) pair of Schmidt spectra."""
    src, tgt = SchmidtVector.of(src), SchmidtVector.of(tgt)
    s, t = src, tgt
    for _ in range(n - 1):
        s, t = s.tensor(src), t.tensor(tgt)
    return s, t


def _width_16_pair():
    """(0.5, 0.5)^4 and (0.7731, 0.2269)^4: the benchmark's n=4 synthesis."""
    return _copies_pair((0.5, 0.5), (0.7731, 0.2269), 4)


def test_mixing_chain_matches_dict_chain_on_uniform_width_16():
    s4, t4 = _width_16_pair()
    t, s = _padded_pair(t4, s4)
    assert _assert_chain_matches_dict(t, s) == 32768


def _reference_outcomes(source, target, layout=None):
    """Per-element builder of the synthesized outcomes: (label, Kraus, correction).

    This is the outcome-by-outcome loop the array construction replaced;
    the synthesized instrument must match it byte for byte.  Every entry
    is real, and the synthesis stores float64 stacks, so the reference is
    float64 too (a real-to-complex cast is exact, so nothing is lost).
    """
    t, s = _padded_pair(target, source)
    if layout is not None:
        da = math.prod(f.dim for f in layout if f.party == 0)
        t, s = np.pad(t, (0, da - len(t))), np.pad(s, (0, da - len(s)))
    d = len(t)
    out = []
    for m, (sigma, wt) in enumerate(zip(*_mixing_chain(t, s))):
        k = np.zeros((d, d))
        corr = np.zeros((d, d))
        for i in range(d):
            si = sigma[i]
            if s[i] > SUM_TOL:
                k[si, i] = math.sqrt(wt * t[si] / s[i])
            else:
                k[si, i] = math.sqrt(wt)
            corr[si, i] = 1.0
        out.append((f"m{m}", k, corr))
    return out


def _assert_matches_reference(source, target, layout=None):
    (step,) = synthesize_pure_protocol(source, target, layout=layout).steps
    cases = step.case_map()
    want = _reference_outcomes(source, target, layout)
    assert step.instrument.labels == tuple(lab for lab, _, _ in want)
    for (lab, k0, c0), (_, ch) in zip(want, step.instrument.outcomes):
        (k,) = ch.kraus
        ((corr,),) = [c.kraus for c in cases[lab]]
        assert k.dtype == corr.dtype == np.float64
        assert k.shape == k0.shape and k.tobytes() == k0.tobytes()
        assert corr.shape == c0.shape and corr.tobytes() == c0.tobytes()
    return want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_synthesis_matches_per_element_builder(seed):
    # random dominated pairs with d <= 8; the spectra are not dyadic, so a
    # reordered amplitude formula would show up in the last bit
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    t = np.asarray(_random_spectrum(rng, int(rng.integers(1, d + 1))).probs)
    t = np.pad(t, (0, d - len(t)))
    lam = rng.random()
    s = SchmidtVector.of(lam * t + (1 - lam) * np.full(d, 1.0 / d))
    target = SchmidtVector.of(t)
    # a wider party dimension pads both spectra with zero-weight coordinates
    da = int(rng.integers(d, 9))
    layout = SystemLayout([(0, da), (1, da)]) if da > d else None
    _assert_matches_reference(s, target, layout)


def test_synthesis_matches_per_element_builder_on_padded_layout():
    # the source has no weight on coordinate 3 of each party's 4 levels
    src = SchmidtVector.of((0.5, 0.3, 0.2))
    tgt = SchmidtVector.of((0.6, 0.4))
    layout = SystemLayout([(0, 2), (0, 2), (1, 2), (1, 2)])
    want = _assert_matches_reference(src, tgt, layout)
    assert len(want) > 1
    # there every Kraus operator takes the sqrt(weight) completion
    assert all(np.max(np.abs(k[:, 3])) > 0 for _, k, _ in want)


def test_synthesis_validates_outcomes_in_batches(eigvalsh_calls):
    # per-outcome validation would call eigvalsh once for each of the 128
    # outcomes; batched validation calls it once per 256
    src = SchmidtVector.of((0.5, 0.5))
    tgt = SchmidtVector.of((0.7, 0.3))
    proto = synthesize_pure_protocol(src.tensor(src).tensor(src), tgt.tensor(tgt).tensor(tgt))
    outcomes = len(proto.steps[0].instrument.outcomes)
    assert outcomes == 128
    assert 1 <= len(eigvalsh_calls) <= -(-outcomes // 256)


def test_wide_synthesis_checks_outcomes_through_their_total(eigvalsh_calls):
    # 32768 outcomes: one eigvalsh on the instrument's total clears them all
    (step,) = synthesize_pure_protocol(*_width_16_pair()).steps
    assert len(step.instrument.outcomes) == 32768
    assert len(eigvalsh_calls) <= 2
    # every outcome and correction is a read-only float64 view of one stack
    cases = step.case_map()
    kraus = [ch.kraus[0] for _, ch in step.instrument.outcomes]
    corrs = [cases[lab][0].kraus[0] for lab in step.instrument.labels]
    for ops in (kraus, corrs):
        assert len({id(k.base) for k in ops}) == 1
        base = ops[0].base
        assert not base.flags.writeable and base.dtype == np.float64
        assert base.shape == (32768, 1, 16, 16) and ops[0].shape == (16, 16)


def test_wide_synthesis_memory_peak():
    # two complex (32768, 1, 16, 16) stacks are 268 MB, and the synthesis
    # peaked at about 307 MB with them; float64 stacks hold half of that
    pair = _width_16_pair()
    tracemalloc.start()
    try:
        synthesize_pure_protocol(*pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20


def test_wide_synthesis_runs_no_garbage_collection():
    # the 32768-outcome build made hundreds of collections, three of them
    # full ones; it holds the collector off and gives back its setting
    pair = _width_16_pair()
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()  # no collection is due as the call starts
    gc.callbacks.append(count)
    try:
        synthesize_pure_protocol(*pair)
    finally:
        gc.callbacks.remove(count)
    assert starts == [] and gc.isenabled()
    gc.disable()  # a caller that turned the collector off keeps it off
    try:
        synthesize_pure_protocol(*pair)
        assert not gc.isenabled()
    finally:
        gc.enable()
    with pytest.raises(NotConvertibleError):
        synthesize_pure_protocol(pair[1], pair[0])
    assert gc.isenabled()


def _synthesis_digest(n):
    """SHA-256 over the labels, then the Kraus operators and the corrections as complex128."""
    (step,) = synthesize_pure_protocol(*_copies_pair((0.5, 0.5), (0.7731, 0.2269), n)).steps
    cases = step.case_map()
    outcomes = step.instrument.outcomes
    h = hashlib.sha256()
    for lab, _ in outcomes:
        h.update(lab.encode() + b"\0")
    for ops in (
        lambda chunk: [k for _, ch in chunk for k in ch.kraus],
        lambda chunk: [k for lab, _ in chunk for c in cases[lab] for k in c.kraus],
    ):
        for lo in range(0, len(outcomes), 2048):
            h.update(np.stack(ops(outcomes[lo : lo + 2048])).astype(complex).tobytes())
    return len(outcomes), h.hexdigest()


@pytest.mark.parametrize(
    "n,count,digest",
    [
        (2, 8, "f61c8cd57687b1b4bba73879cba36e906a9fc5f6c78e73a743d75ad5c0085220"),
        (3, 128, "75f9616e520419cf63dab9872a65ca980f24d6f68aa2b18976a24403ec67ea9d"),
        (4, 32768, "6acc88a0ddae81c381117910dfe5828b85a831052b5ba99b19e27049119720ca"),
    ],
)
def test_synthesis_digest_is_unchanged(n, count, digest):
    # the digests of the complex-stack synthesis: storing the stacks as
    # float64 changes no label, no value and no order
    assert _synthesis_digest(n) == (count, digest)


def _complex_rebuild(proto):
    """A synthesized protocol with every outcome and correction rebuilt as
    complex128 by the public constructors."""
    (step,) = proto.steps
    inst = Instrument.from_kraus(
        step.instrument.input_layout, [(lab, ch.kraus) for lab, ch in step.instrument.outcomes]
    )
    fixes = tuple(
        tuple(LocalChannel(c.party, c.factors, c.kraus) for c in cont) for cont in step.cases
    )
    return LoccProtocol(
        proto.input_layout, (LocalInstrument(step.party, step.factors, inst, fixes),)
    )


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("src,tgt", [((0.5, 0.5), (0.7731, 0.2269)), ((0.6, 0.4), (0.8, 0.2))])
def test_real_stacks_run_like_complex_ones(n, src, tgt):
    # the same protocol rebuilt with complex stacks gives byte-equal outputs
    layout = SystemLayout([(0, 2), (1, 2)]).power(n)
    proto = synthesize_pure_protocol(*_copies_pair(src, tgt, n), layout=layout)
    (step,) = proto.steps
    ref = _complex_rebuild(proto)
    inst = ref.steps[0].instrument
    assert step.instrument.outcomes[0][1]._stack.dtype == np.float64
    assert inst.outcomes[0][1]._stack.dtype == ref.steps[0].cases[0][0]._stack.dtype == complex
    for rho in (
        n_copies(canonical_pure(SchmidtVector.of(src)), n),
        random_state(layout, "ginibre_mixed", seed=5),
    ):
        got, want = _run_matrix(proto, rho.matrix), _run_matrix(ref, rho.matrix)
        assert got.dtype == complex and got.tobytes() == want.tobytes()


def _catalyst_fmap(n):
    """Where ``build_catalyst`` puts the n pair copies of its protocol in the joint."""
    return [i if j == n - 1 else (j + 1) * 2 + i for j in range(n) for i in range(2)]


def _catalyst_embedding(proto, n):
    """``proto`` on n pair copies, embedded in the catalyst joint as ``build_catalyst`` does."""
    joint = SystemLayout([(0, 2), (1, 2)]).power(n) + SystemLayout([(0, n)])
    return embed_protocol(proto, joint, _catalyst_fmap(n))


def test_embedding_shares_the_synthesis_stacks():
    # remapping a step makes views, not complex copies: the n=4 embedding
    # peaked at 157 MB when every correction was copied into its own stack
    proto = synthesize_pure_protocol(
        *_width_16_pair(), layout=SystemLayout([(0, 2), (1, 2)]).power(4)
    )
    tracemalloc.start()
    try:
        emb = _catalyst_embedding(proto, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    fmap = _catalyst_fmap(4)
    (step,) = proto.steps
    base = step.cases[0][0]._stack.base
    (moved,) = emb.steps
    assert moved.factors == tuple(fmap[i] for i in step.factors)
    assert moved.instrument is step.instrument
    for cont, cont0 in zip(moved.cases, step.cases):
        (c,), (c0,) = cont, cont0
        assert c.factors == tuple(fmap[i] for i in c0.factors)
        assert c._stack.base is base and c.kraus[0].base is base
    assert np.shares_memory(moved.cases[-1][0]._stack, step.cases[-1][0]._stack)


def test_embedding_runs_like_complex_rebuild():
    n = 3
    proto = synthesize_pure_protocol(
        *_copies_pair((0.5, 0.5), (0.7731, 0.2269), n),
        layout=SystemLayout([(0, 2), (1, 2)]).power(n),
    )
    emb, ref = _catalyst_embedding(proto, n), _catalyst_embedding(_complex_rebuild(proto), n)
    assert emb.steps[0].cases[0][0]._stack.dtype == np.float64
    assert ref.steps[0].cases[0][0]._stack.dtype == complex
    rho = random_state(emb.input_layout, "ginibre_mixed", seed=8)
    got, want = _run_matrix(emb, rho.matrix), _run_matrix(ref, rho.matrix)
    assert got.dtype == complex and got.tobytes() == want.tobytes()


def test_canonical_pure_spectrum():
    sv = SchmidtVector.of((0.7, 0.2, 0.1))
    state = canonical_pure(sv)
    from catent.qstate import schmidt_decompose

    got = schmidt_decompose(state)
    assert np.max(np.abs(np.asarray(got.probs) - np.asarray(sv.probs))) < 1e-12


# ---------------------------------------------------------------------------
# rates


def test_rate_singlet_to_singlet():
    rate = pure_target_rate(singlet(), SchmidtVector.of((0.5, 0.5)))
    assert abs(rate.lower - 1.0) < 1e-10
    assert abs(rate.upper - 1.0) < 1e-10


def test_rate_two_ebits_to_singlet():
    rate = pure_target_rate(maximally_entangled(4), SchmidtVector.of((0.5, 0.5)))
    assert abs(rate.lower - 2.0) < 1e-10
    assert abs(rate.upper - 2.0) < 1e-10


def test_rate_diverges_on_product_target():
    with pytest.raises(DivergingRateError):
        pure_target_rate(singlet(), SchmidtVector.of((1.0,)))


def test_rate_werner_interval():
    from catent.distill import werner

    w = werner(0.9).state
    rate = pure_target_rate(w, SchmidtVector.of((0.5, 0.5)))
    # oracle: Bell-basis spectrum (F, (1-F)/3 x3) entropy
    probs = np.array([0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3])
    s_w = float(-(probs * np.log2(probs)).sum())
    assert abs(rate.lower - (1.0 - s_w)) < 1e-10
    assert abs(rate.upper - 1.0) < 1e-10
