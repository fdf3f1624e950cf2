import math

import numpy as np
import pytest

from catent.errors import DocumentError, LayoutMismatchError, LocalityError
from catent.locc import (
    Channel,
    Instrument,
    LoccProtocol,
    apply,
    apply_to_factors,
    controlled_on_register,
    embed_protocol,
    flatten,
    identity_protocol,
    instrument_apply,
    local_channel,
    local_instrument,
    local_unitary,
    perm_unitary,
    protocol_from_dict,
    protocol_to_dict,
    save_protocol,
    load_protocol,
    swap_factors,
    teleport_channel,
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
    with pytest.raises(LayoutMismatchError):
        apply(ch, singlet())
    leaky = Channel((0.5 * np.eye(2, dtype=complex),), Q0, Q0)
    with pytest.raises(ValueError):
        apply(leaky, maximally_mixed(Q0))


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


def test_instrument_apply_probabilities():
    inst = _z_measurement()
    plus = pure_state(Q0, np.array([1.0, 1.0]) / math.sqrt(2.0))
    branches = instrument_apply(inst, plus)
    assert [lab for lab, _, _ in branches] == ["0", "1"]
    for _, prob, post in branches:
        assert abs(prob - 0.5) < 1e-12
        assert post is not None
        assert abs(np.linalg.eigvalsh(post.matrix)[-1] - 1.0) < 1e-12
    # impossible branch comes back with probability 0 and no state
    zero = instrument_apply(inst, basis_state(Q0, (0,)))
    assert zero[1][1] < 1e-15
    assert zero[1][2] is None


def test_instrument_apply_changes_dimension():
    # qutrit -> qubit: outcome "a" keeps level 0, outcome "b" maps levels 1, 2
    # onto the qubit, so every Kraus operator is 2 x 3
    q3 = SystemLayout([(0, 3)])
    ka = np.zeros((2, 3), dtype=complex)
    ka[0, 0] = 1.0
    kb = np.zeros((2, 3), dtype=complex)
    kb[0, 1] = kb[1, 2] = 1.0
    inst = Instrument((("a", Channel((ka,), q3, Q0)), ("b", Channel((kb,), q3, Q0))))
    rho = random_state(q3, "ginibre_mixed", seed=5)
    branches = instrument_apply(inst, rho)
    assert [lab for lab, _, _ in branches] == ["a", "b"]
    assert abs(sum(p for _, p, _ in branches) - 1.0) < 1e-12
    for (_, p, post), k in zip(branches, (ka, kb)):
        assert post.layout == Q0
        want = k @ rho.matrix @ k.conj().T
        assert abs(p - want.trace().real) < 1e-12
        assert np.max(np.abs(post.matrix * p - want)) < 1e-12


def test_instrument_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Instrument.from_kraus(
            Q0, [("a", [np.diag([1.0, 0.0])]), ("a", [np.diag([0.0, 1.0])])]
        )
    with pytest.raises(ValueError, match="trace-non-increasing"):
        Instrument.from_kraus(
            Q0, [("a", [1.1 * np.eye(2)]), ("b", [np.zeros((2, 2))])]
        )
    with pytest.raises(ValueError, match="trace-preserving"):
        Instrument.from_kraus(
            Q0, [("a", [0.5 * np.eye(2)]), ("b", [0.5 * np.eye(2)])]
        )


# ---------------------------------------------------------------------------
# protocol structure


def test_locality_enforced():
    with pytest.raises(LocalityError):
        local_channel(PAIR, 0, (1,), (X,))
    with pytest.raises(LocalityError):
        local_unitary(PAIR, 1, (0,), Z)
    with pytest.raises(ValueError, match="trace-preserving"):
        local_channel(PAIR, 0, (0,), (0.9 * X,))


def test_case_label_must_exist():
    with pytest.raises(ValueError, match="not an instrument outcome"):
        local_instrument(
            PAIR,
            0,
            (0,),
            [("0", [np.diag([1.0, 0.0])]), ("1", [np.diag([0.0, 1.0])])],
            cases={"2": [local_unitary(PAIR, 1, (1,), X)]},
        )


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
        discard=(0, 1),
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
    ch = flatten(swap_factors(lay, 0, 1))
    a = random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=0)
    b = random_state(SystemLayout([(0, 2)]), "ginibre_mixed", seed=1)
    out = apply(ch, tensor(a, b))
    assert np.max(np.abs(out.matrix - np.kron(b.matrix, a.matrix))) < 1e-13


def test_swap_factor_groups_is_local():
    lay = PAIR + PAIR
    proto = swap_factors(lay, (0, 1), (2, 3))
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
    with pytest.raises(LayoutMismatchError):
        swap_factors(lay, 0, 1)  # different parties
    with pytest.raises(ValueError):
        swap_factors(PAIR + PAIR, (0, 1), (1, 2))


def test_perm_unitary_action():
    u = perm_unitary((2, 2), (1, 0))
    v = np.zeros(4)
    v[1] = 1.0  # |01>
    assert np.argmax(np.abs(u @ v)) == 2  # |10>
    with pytest.raises(ValueError):
        perm_unitary((2, 2), (0, 0))
    with pytest.raises(LayoutMismatchError):
        perm_unitary((2, 3), (1, 0))


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
    dropped = apply(flatten(proto, keep_classical=False), src)
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
        embed_protocol(LoccProtocol(PAIR, discard=(0,)), big, (1, 0))


# ---------------------------------------------------------------------------
# terminal discard / relabel


def test_discard_is_partial_trace():
    proto = LoccProtocol(PAIR, discard=(1,))
    s = random_state(PAIR, "ginibre_mixed", seed=12)
    out = apply(flatten(proto), s)
    want = partial_trace(s, (0,))
    assert out.layout == want.layout
    assert np.max(np.abs(out.matrix - want.matrix)) < 1e-13


def test_relabel_reorders_output():
    lay = SystemLayout([(0, 2), (1, 3)])
    proto = LoccProtocol(lay, relabel=(1, 0))
    s = random_state(lay, "ginibre_mixed", seed=13)
    out = apply(flatten(proto), s)
    want = permute_factors(s, (1, 0))
    assert out.layout == want.layout
    assert np.max(np.abs(out.matrix - want.matrix)) < 1e-13
    with pytest.raises(ValueError):
        LoccProtocol(lay, relabel=(0, 0))
    with pytest.raises(ValueError):
        LoccProtocol(lay, discard=(0, 1))


def test_output_layout_consistency():
    lay = SystemLayout([(0, 2), (0, 2), (1, 2)])
    proto = LoccProtocol(lay, discard=(1,), classical_factors=(0,))
    assert proto.output_layout().dims == (2, 2)
    assert proto.output_layout(keep_classical=False).dims == (2,)
    assert flatten(proto).output_layout == proto.output_layout()
    assert (
        flatten(proto, keep_classical=False).output_layout
        == proto.output_layout(keep_classical=False)
    )


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
    return LoccProtocol(
        lay, ctrl.steps, discard=(1,), classical_factors=(0,)
    )


def test_protocol_dict_roundtrip_bit_exact():
    proto = _rich_protocol()
    doc = protocol_to_dict(proto)
    back = protocol_from_dict(doc)
    k1 = flatten(proto).kraus
    k2 = flatten(back).kraus
    assert len(k1) == len(k2)
    for a, b in zip(k1, k2):
        assert np.array_equal(a, b)
    assert back.discard == proto.discard
    assert back.classical_factors == proto.classical_factors


def test_protocol_file_roundtrip(tmp_path):
    proto = _rich_protocol()
    path = tmp_path / "proto.json"
    save_protocol(proto, path)
    back = load_protocol(path)
    assert np.max(np.abs(flatten(back).choi() - flatten(proto).choi())) == 0.0


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
