"""Robustness: a protocol that constructs runs, and malformed inputs raise typed errors.

Random step trees over small layouts cover every step kind: local
channels, instruments with and without a correction stack (only ever
handed in, its cases views of its rows; cases of one correction each
keep none), nested cases, register branches and the terminal ``keep``.
Faults are injected at random.  A tree without a fault must construct,
run on a random state and match ``flatten``; a tree with one must be
refused at construction with a ``catent.errors`` type or a
``ValueError`` that catent raises itself, never with an error from
inside numpy or Python.  Protocol documents of
every step kind are mutated the same way: each one loads, or raises
``DocumentError`` (CLI exit 2) or a typed domain error (exit 1).  So are
state documents.  Scenarios are drawn from the CLI's key
table, ``cli._COMMANDS``, and run through ``cli.main``: each ends in a
report, in exit 2, or in exit 1 from a typed error, with no numpy warning.
Scenario text, line by line, parses to the dict a model of its grammar
gives, or fails naming the first bad line.
"""

import contextlib
import functools
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

import catent
from catent import cli, errors, locc
from catent.errors import BudgetError, DocumentError, LayoutMismatchError
from catent.locc import (
    KRAUS_CAP,
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
    perm_unitary,
    permute_protocol,
    protocol_from_dict,
    protocol_to_dict,
    run_protocol,
)
from catent.qstate import (
    DIM_CAP,
    SystemLayout,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    random_state,
    state_from_dict,
    state_to_dict,
)
from test_executor import _kraus, _kraus_count

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
_TYPED = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
)
_PACKAGE = os.path.dirname(catent.__file__)


def _assert_typed(exc: BaseException) -> None:
    """``exc`` is a catent.errors type, or a ValueError raised by catent code itself."""
    if isinstance(exc, _TYPED):
        return
    assert isinstance(exc, ValueError), f"untyped {type(exc).__name__}: {exc}"
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    where = tb.tb_frame.f_code.co_filename
    assert os.path.dirname(where) == _PACKAGE, f"ValueError from {where}: {exc}"


class _Tree:
    """Draws a random step tree on ``layout``, injecting faults now and then.

    ``faults`` lists the faults injected; a tree with none is valid.
    """

    def __init__(self, data, layout, rng):
        self.data, self.layout, self.rng = data, layout, rng
        self.faults: list[str] = []

    def draw(self, strategy):
        return self.data.draw(strategy)

    def fault(self, *kinds):
        kind = self.draw(st.sampled_from((None,) * 10 + kinds))
        if kind is not None:
            self.faults.append(kind)
        return kind

    def dim(self, factors):
        return math.prod(self.layout[i].dim for i in factors)

    def place(self, free):
        """A party and 1-2 of its factors among ``free``, or None if ``free`` is empty."""
        if not free:
            return None
        party = self.draw(st.sampled_from(sorted({self.layout[i].party for i in free})))
        own = [i for i in free if self.layout[i].party == party]
        return party, tuple(self.draw(st.permutations(own))[: self.draw(st.integers(1, 2))])

    def misplace(self, party, factors, fault):
        """Factors after a placement fault."""
        other = [i for i in range(len(self.layout)) if self.layout[i].party != party]
        if fault == "party" and other:
            return (self.draw(st.sampled_from(other)),)
        if fault == "range":
            return factors + (self.draw(st.sampled_from([len(self.layout), -1])),)
        if fault == "repeat":
            return factors + factors[:1]
        if fault == "party":  # no factor of another party: no fault after all
            self.faults.remove(fault)
        return factors

    def damage(self, kraus, fault):
        """Kraus operators after a content fault (each is a fresh array)."""
        d = len(kraus[0])
        if fault == "non_tp":
            return [1.1 * kraus[0]] + kraus[1:]
        if fault == "nan":
            k = kraus[-1].copy()
            k[self.draw(st.integers(0, d - 1)), self.draw(st.integers(0, d - 1))] = math.nan
            return kraus[:-1] + [k]
        if fault == "shape":
            return [np.eye(d + 1, dtype=complex)] * len(kraus)
        if fault == "ragged":
            return kraus + [np.eye(d + 1, dtype=complex)]
        if fault == "empty":
            return []
        return kraus

    def channel(self, party, factors):
        """A local channel step at (party, factors), through either constructor."""
        kraus = _kraus(self.rng, self.dim(factors), self.draw(st.integers(1, 2)))
        fault = self.fault("non_tp", "nan", "shape", "ragged", "empty", "party", "range",
                           "repeat")
        kraus, factors = self.damage(kraus, fault), self.misplace(party, factors, fault)
        if self.draw(st.booleans()):
            return local_channel(self.layout, party, factors, kraus)
        return LocalChannel(party, factors, kraus)

    def instrument(self, free, depth):
        party, factors = self.place(free)
        d = self.dim(factors)
        counts = self.draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
        ks = _kraus(self.rng, d, sum(counts))
        edges = np.cumsum([0] + counts)
        outcomes = [(str(m), ks[edges[m] : edges[m + 1]]) for m in range(len(counts))]
        labels = [lab for lab, _ in outcomes]
        fault = self.fault("non_tp", "nan", "shape", "party", "range", "repeat",
                           "label", "repeat_label")
        if fault in ("non_tp", "nan", "shape"):
            m = self.draw(st.integers(0, len(outcomes) - 1))
            outcomes[m] = (outcomes[m][0], self.damage(list(outcomes[m][1]), fault))
        mode = self.draw(st.sampled_from(["loop", "corrected", "handed"]))
        off = self.place([i for i in free if i not in factors])
        if mode != "loop" and off is None:
            mode = "loop"
        event(f"instrument: {mode}")
        fix = None
        if mode == "loop":
            cases = [tuple(self.steps(free, depth - 1)) if depth > 0 and self.draw(st.booleans())
                     else () for _ in labels]
        elif mode == "corrected":  # one channel a case, all at one place: still no stack
            cases = [(self.channel(*off),) if self.draw(st.booleans()) else () for _ in labels]
        else:  # the stack handed in, as the synthesis does; the step makes its cases from it
            dc = self.dim(off[1])
            rows = len(labels) + (fault == "label")  # a label fault's case too many: a row
            stack = np.array([_kraus(self.rng, dc, 2) for _ in range(rows)])
            cfault = self.fault("non_tp", "nan", "party")
            if cfault == "non_tp":
                stack[-1] *= 1.1
            elif cfault == "nan":
                stack[0, 1, 0, 0] = math.nan
            stack.setflags(write=False)
            cparty = 1 - off[0] if cfault == "party" else off[0]
            cases = [()] * len(labels)
            fix = (cparty, off[1], stack)
        sub = self.layout.subset(factors)
        factors = self.misplace(party, factors, fault)
        # by label: a key for no outcome, or a second key for outcome 0 (its int)
        keyed = dict(zip(labels, cases))
        if fault == "label":
            keyed["x"] = ()
        elif fault == "repeat_label":
            keyed[0] = ()
        if fix is None and self.draw(st.booleans()) or fault == "repeat_label":
            step = local_instrument(self.layout, party, factors, outcomes, keyed)
        else:  # by position: one case too many
            cases += [()] * (fault == "label")
            inst = Instrument.from_kraus(sub, outcomes)
            step = LocalInstrument(party, factors, inst, () if fix else tuple(cases), fix)
        assert (step._fix is None) == (fix is None)
        return step

    def controlled(self, free, depth):
        reg = self.draw(st.sampled_from(free))
        event("controlled")
        rd = self.layout[reg].dim
        inner = [i for i in free if i != reg]
        branches = [self.steps(inner, depth - 1) for _ in range(rd)]
        updates = [self.draw(st.integers(0, rd - 1)) for _ in range(rd)]
        fault = self.fault("branches", "update", "touch", "range")
        if fault == "branches":
            branches = branches[1:] if rd > 1 and self.draw(st.booleans()) else branches + [[]]
        elif fault == "update":
            updates[0] = self.draw(st.sampled_from([rd, -1]))
        elif fault == "touch":  # a channel on the register, or a branch on it again
            touch = (self.channel(self.layout[reg].party, (reg,)) if self.draw(st.booleans())
                     else RegisterControlled(reg, ((),) * rd, tuple(range(rd))))
            branches[0] = list(branches[0]) + [touch]
        elif fault == "range":
            reg = len(self.layout)
        return RegisterControlled(reg, tuple(branches), tuple(updates))

    def steps(self, free, depth):
        kinds = ["channel", "instrument"] + (["controlled"] if depth > 0 else [])
        out = []
        for _ in range(self.draw(st.integers(depth == 2, 2))):  # a top-level step at least
            if not free:
                break
            kind = self.draw(st.sampled_from(kinds))
            if kind == "channel":
                out.append(self.channel(*self.place(free)))
            elif kind == "instrument":
                out.append(self.instrument(free, depth))
            else:
                out.append(self.controlled(free, depth))
        return out

    def protocol(self):
        n = len(self.layout)
        steps = self.steps(list(range(n)), depth=2)
        keep = self.draw(st.permutations(range(n)))[: self.draw(st.integers(1, n))]
        fault = self.fault("keep_empty", "keep_repeat", "keep_range")
        if fault == "keep_empty":
            keep = []
        elif fault == "keep_repeat":
            keep.append(keep[0])
        elif fault == "keep_range":
            keep.append(self.draw(st.sampled_from([n, -1])))
        elif self.draw(st.booleans()):
            keep = None
        return LoccProtocol(self.layout, steps, keep=keep)


_layouts = st.lists(
    st.tuples(st.integers(0, 1), st.integers(1, 3)), min_size=2, max_size=4
).filter(lambda fs: math.prod(d for _, d in fs) <= 36).map(SystemLayout)


@SETTINGS
@given(_layouts, st.integers(0, 2**32 - 1), st.data())
def test_protocol_that_constructs_runs(layout, seed, data):
    tree = _Tree(data, layout, np.random.default_rng(seed))
    try:
        protocol = tree.protocol()
    except Exception as exc:  # refused: a fault was injected, and the error is typed
        _assert_typed(exc)
        assert tree.faults, f"valid protocol refused: {exc!r}"
        event(f"refused: {type(exc).__name__}")
        return
    assert not tree.faults, f"faults {tree.faults} were not refused"
    assume(_kraus_count(protocol.steps) <= 400)
    event(f"ran: {len(protocol.steps)} steps")
    rho = random_state(layout, "ginibre_mixed", seed=seed % 2**16)
    got = run_protocol(protocol, rho)
    want = apply(flatten(protocol), rho)
    assert got.layout == want.layout == protocol.output_layout()
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-10


# ---------------------------------------------------------------------------
# protocol documents


def _nodes(doc, path=()):
    """Every (path, value) of a JSON tree."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_WRONG = ["x", 3, -1, 2**70, 1.5, math.inf, math.nan, None, True, [], {}, [[0]], {"a": 1}]


_PROTOCOL_MUTATIONS = [
    "drop", "type", "factor", "register", "party", "shape", "square", "nan", "hex",
    "label", "repeat_label", "branches", "keep",
]
_FORMATS = [
    "catent-state-v1", "catent-protocol-v1", "catent-protocol-v2", "catent-assembly-v1",
    "catent-state-v9",
]


def _mutate(doc, data, kinds=_PROTOCOL_MUTATIONS):
    """Apply one random mutation of ``kinds`` to ``doc`` in place; False if none applies."""
    nodes = list(_nodes(doc))
    kind = data.draw(st.sampled_from(kinds))

    def pick(pred):
        hits = [p for p, v in nodes if p and pred(p, v)]
        return data.draw(st.sampled_from(hits)) if hits else None

    if kind == "drop":
        path = pick(lambda p, v: isinstance(v, dict) and v)
        if path is None:
            return False
        node = _at(doc, path)
        node.pop(data.draw(st.sampled_from(sorted(node))))
    elif kind == "type":
        path = pick(lambda p, v: True)
        _at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(_WRONG))
    elif kind in ("factor", "register", "party"):
        key = {"factor": "factors", "register": "register", "party": "party"}[kind]
        path = pick(lambda p, v: p[-1] == key or (len(p) > 1 and p[-2] == key and kind == "factor"))
        if path is None:
            return False
        n = len(doc["factors"])
        # a float, a bool or a string holding an integer is refused, not truncated
        if kind == "party":
            value = data.draw(st.sampled_from([0, 1, 2, -1, 1.0, True, "1"]))
        else:
            value = data.draw(st.sampled_from([n, -1, 2**70, n - 1, 0, 0.0, False, "0"]))
        if isinstance(_at(doc, path), list):
            _at(doc, path).append(value)
        else:
            _at(doc, path[:-1])[path[-1]] = value
    elif kind in ("shape", "square", "nan", "hex"):
        path = pick(lambda p, v: isinstance(v, dict) and "entries" in v)
        if path is None:
            return False
        m = _at(doc, path)
        r, c = m["shape"]
        if kind == "shape":  # mismatched: one row and column more
            m.update(shape=[r + 1, c + 1], entries=[["0x0p+0", "0x0p+0"]] * (r + 1) * (c + 1))
        elif kind == "square":
            m.update(shape=[r, c + 1], entries=[["0x1p+0", "0x0p+0"]] * r * (c + 1))
        else:
            e = data.draw(st.integers(0, len(m["entries"]) - 1))
            big = data.draw(st.sampled_from(["0x1p+5000", "0x1p+700"]))  # past the range, or its root
            m["entries"][e][data.draw(st.integers(0, 1))] = "nan" if kind == "nan" else big
    elif kind in ("label", "repeat_label"):
        path = pick(lambda p, v: p[-1] == "outcomes" and len(v) > 1)
        if path is None:
            return False
        outs = _at(doc, path)
        outs[1]["label"] = outs[0]["label"] if kind == "repeat_label" else data.draw(
            st.sampled_from(["x", 7, None]))
    elif kind == "keep":  # a repeated, past-the-range or negative index, none, or a non-integer
        n = len(doc["factors"])
        doc["keep"] = data.draw(st.sampled_from([[0, 0], [n], [-1], [], [1.5], [True], ["0"]]))
    elif kind == "format":  # any document's, the outer one or one it holds
        paths = [p for p, v in nodes if isinstance(v, dict) and "format" in v]
        node = _at(doc, data.draw(st.sampled_from(paths)))
        node["format"] = data.draw(st.sampled_from([f for f in _FORMATS if f != node["format"]]))
    else:
        path = pick(lambda p, v: p[-1] == "branches" and isinstance(v, list))
        if path is None:
            return False
        branches = _at(doc, path)
        if data.draw(st.booleans()):
            branches.pop()
        else:
            branches.append([])
    return True


def _rich_protocol(layout, rng, data):
    """A random valid tree: the document mutations are its faults."""
    tree = _Tree(data, layout, rng)
    tree.fault = lambda *kinds: None
    return tree.protocol()


@SETTINGS
@given(_layouts, st.integers(0, 2**32 - 1), st.data())
def test_protocol_documents_of_every_step_kind(layout, seed, data):
    protocol = _rich_protocol(layout, np.random.default_rng(seed), data)
    assume(_kraus_count(protocol.steps) <= 400)
    doc = json.loads(json.dumps(protocol_to_dict(protocol)))
    assert protocol_to_dict(protocol_from_dict(doc)) == protocol_to_dict(protocol)
    assume(_mutate(doc, data))
    try:
        back = protocol_from_dict(doc)
    except Exception as exc:
        _assert_typed(exc)
        event(f"refused: {type(exc).__name__}")
        return
    event("loaded")
    # a document that loads is a protocol that runs
    if back.input_layout.total_dim <= 64 and _kraus_count(back.steps) <= 400:
        rho = random_state(back.input_layout, "ginibre_mixed", seed=seed % 2**16)
        want = apply(flatten(back), rho)
        assert np.max(np.abs(run_protocol(back, rho).matrix - want.matrix)) <= 1e-10


# ---------------------------------------------------------------------------
# state documents

_DOCUMENT_MUTATIONS = ["drop", "type", "shape", "square", "nan", "hex", "format"]


@SETTINGS
@given(_layouts, st.integers(0, 99), st.data())
def test_state_documents(layout, seed, data):
    doc = json.loads(json.dumps(state_to_dict(random_state(layout, "ginibre_mixed", seed=seed))))
    assume(_mutate(doc, data, _DOCUMENT_MUTATIONS))
    try:
        state_from_dict(doc)
    except Exception as exc:
        _assert_typed(exc)
        event(f"refused: {type(exc).__name__}")
        return
    event("loaded")


# ---------------------------------------------------------------------------
# scenarios drawn from the CLI's key table

_BIG = str(10**30)
_EDGES = {  # per parser: (values that may run, edge values and junk)
    cli._int: (["1", "2", "3", "16", "17", "40"], ["-1", "0", _BIG, "nan", "", "ten"]),
    cli._float: (["0.75", "0.9", "1", "2"], ["-1", "0", "3", _BIG, "nan", "-inf", "", "ten"]),
    cli._bool: (["true", "false"], ["True", "1", "", "ten"]),
    cli._parse_state: (
        ["singlet", "werner:0.8", "haar:2", "ginibre:1", "pure:0.5,0.5", "pure:0.75,0.25",
         "pure:1", "jp-catalyst"],
        ["werner:nan", "werner:3", "haar:-1", "ginibre:x", "pure:-1,2", "pure:nan,1", "pure:",
         "file:", "", "ten"],
    ),
    cli._parse_spectrum: (
        ["0.5,0.5", "0.75,0.25", "1", "2,1", "jp-catalyst"],
        ["-1,2", "nan,1", "1e308,1e308", "", "ten"],
    ),
    cli._text: (["identity", "synth"], ["file:", "", "ten"]),
}


@contextlib.contextmanager
def _raised_by_run(raised):
    """Record what ``cli.run`` raises while ``cli.main`` turns it into an exit code."""
    run = cli.run

    def recording(*args, **kwargs):
        try:
            return run(*args, **kwargs)
        except Exception as exc:
            raised.append(exc)
            raise

    cli.run = recording
    try:
        yield
    finally:
        cli.run = run


@SETTINGS
@given(st.sampled_from(sorted(cli._COMMANDS)), st.data())
def test_scenarios_from_the_key_table(tmp_path_factory, command, data):
    keys = cli._COMMANDS[command][1]
    table = {**cli._COMMON, **keys}
    chosen = {k for k, (_, default) in keys.items() if default is cli._REQUIRED}
    faulty = data.draw(st.booleans())  # else every value is one that may run
    if faulty and chosen and data.draw(st.booleans()):
        chosen.discard(data.draw(st.sampled_from(sorted(chosen))))  # a missing required key
    chosen |= set(data.draw(st.lists(st.sampled_from(sorted(table)), unique=True, max_size=4)))
    scen = {}
    for key in sorted(chosen):
        parser = getattr(table[key][0], "func", table[key][0])  # _count(lo) wraps _int
        good, bad = _EDGES[parser]
        good = [command] if key == "command" else good
        scen[key] = data.draw(st.sampled_from(good + bad if faulty else good))
    if faulty and data.draw(st.booleans()):
        scen["bogus"] = "1"
    tmp = tmp_path_factory.getbasetemp()
    path, out = tmp / "fuzz.scn", tmp / "fuzz.json"
    path.write_text("".join(f"{k}: {v}\n" for k, v in scen.items()))
    out.unlink(missing_ok=True)
    raised = []
    with _raised_by_run(raised), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--scenario", str(path), "--out", str(out)])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    if code == 2:
        event("exit 2")
    elif out.exists():
        assert code in (0, 1)
        event(f"report, exit {code}")
    else:
        assert code == 1 and raised, scen
        _assert_typed(raised[-1])
        event(f"exit 1: {type(raised[-1]).__name__}")


# scenario text: words have no whitespace and no line break, so the pads
# drawn around them are all that ``parse_scenario`` strips
_WORD = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")).filter(
        lambda c: not c.isspace()
    ),
    min_size=1,
    max_size=4,
)
_PAD = st.text(" \t", max_size=2)
_KEY = st.one_of(st.sampled_from(["command", "seed", "rho"]), _WORD).filter(
    lambda w: ":" not in w and not w.startswith("#")
)
_VALUE = st.lists(_WORD, max_size=3).map(" ".join)  # colons and '#' included


@st.composite
def _scenario_line(draw):
    """(kind, line, key, value) of one scenario line."""
    kinds = ["pair"] * 6 + ["comment", "blank"] * 2 + ["no-colon", "empty-key"]
    kind = draw(st.sampled_from(kinds))
    lpad, mid, rpad = draw(_PAD), draw(_PAD), draw(_PAD)
    if kind == "pair":
        key, value = draw(_KEY), draw(_VALUE)
        return kind, f"{lpad}{key}{mid}:{draw(_PAD)}{value}{rpad}", key, value
    if kind == "comment":
        return kind, f"{lpad}#{draw(_VALUE)}{rpad}", None, None
    if kind == "blank":
        return kind, lpad, None, None
    if kind == "no-colon":
        return kind, f"{lpad}{draw(_KEY)}{rpad}", None, None
    return kind, f"{lpad}{mid}:{draw(_VALUE)}{rpad}", None, None


@SETTINGS
@given(st.lists(_scenario_line(), max_size=8), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_scenario_text_parses_to_its_model(lines, newline, trailing):
    # the model: skip blanks and comments; the first line that is not a
    # key: value pair or repeats a key is the error, named by its number
    want, bad = {}, None
    for ln, (kind, _, key, value) in enumerate(lines, start=1):
        if kind in ("comment", "blank"):
            continue
        if kind != "pair" or key in want:
            bad = ln
            break
        want[key] = value
    text = newline.join(line for _, line, _, _ in lines) + (newline if trailing else "")
    if bad is None:
        assert cli.parse_scenario(text) == want
    else:
        with pytest.raises(errors.ScenarioError, match=rf"^line {bad}: "):
            cli.parse_scenario(text)
    event("error" if bad else f"{len(want)} keys")


# ---------------------------------------------------------------------------
# faults the fuzzing found


PAIR = SystemLayout([(0, 2), (1, 2)])


def _flip_doc():
    flip = local_channel(PAIR, 1, (1,), [np.array([[0.0, 1.0], [1.0, 0.0]])])
    return protocol_to_dict(LoccProtocol(PAIR, [flip]))


@pytest.mark.parametrize("where", ["party", "factor", "entry", "state-entry"])
def test_number_past_the_float_range_is_a_document_error(where, tmp_path, capsys):
    # json reads Infinity, and int() of it raised a bare OverflowError; so did
    # float.fromhex of an exponent past the double range
    doc = _flip_doc()
    step = doc["steps"][0]
    if where == "party":
        step["party"] = math.inf
    elif where == "factor":
        step["factors"] = [math.inf]
    elif where == "entry":
        step["kraus"][0]["entries"][1][0] = "0x1p+5000"
    else:
        doc = state_to_dict(random_state(PAIR, "ginibre_mixed", seed=1))
        doc["matrix"]["entries"][0][0] = "-0x1p+2000"
    load = state_from_dict if where == "state-entry" else protocol_from_dict
    with pytest.raises(DocumentError):
        load(json.loads(json.dumps(doc)))
    # through the CLI: a malformed document, exit 2
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    key = "rho" if where == "state-entry" else "protocol"
    scn = tmp_path / "c.scn"
    scn.write_text(f"rho: werner:0.85\nn: 2\n{key}: file:{path}\n")
    assert cli.main(["catalyze", "--scenario", str(scn)]) == 2
    assert "catent: error" in capsys.readouterr().err


def test_distill_round_budget_is_a_typed_error():
    # a scenario whose max_rounds falls short of its target raised a bare RuntimeError
    scen = {"command": "distill", "f_initial": "0.75", "f_target": "0.9", "max_rounds": "1"}
    with pytest.raises(BudgetError, match="no convergence within 1 rounds"):
        cli.run(scen)


def test_local_instrument_checks_its_factors_first():
    # an out-of-range factor raised a bare IndexError from the layout, and a
    # repeated one was reported as a Kraus shape
    z = [("0", [np.diag([1.0, 0.0])]), ("1", [np.diag([0.0, 1.0])])]
    with pytest.raises(LayoutMismatchError, match="factor index 5 out of range"):
        local_instrument(PAIR, 0, (5,), z)
    with pytest.raises(ValueError, match=r"repeated factor indices \(0, 0\)"):
        local_instrument(PAIR, 0, (0, 0), z)


@SETTINGS
@given(_layouts, st.data())
def test_every_list_of_factor_indices_finishes_or_is_refused_typed(layout, data):
    n = len(layout)
    idx = tuple(data.draw(st.lists(st.integers(-n - 1, 2 * n - 1), max_size=n + 1)))
    # the other arguments fit the factors ``idx`` names, each index read modulo n
    sub = SystemLayout(layout[i % n] for i in idx) if idx else layout
    eye, reg, rho = np.eye(sub.total_dim), (idx or (0,))[0], maximally_mixed(layout)
    calls = [
        lambda: layout.subset(idx),
        lambda: partial_trace(rho, idx),
        lambda: apply_to_factors(Channel.identity(sub), rho, idx),
        lambda: LoccProtocol(layout, keep=idx),
        lambda: local_channel(layout, sub[0].party, idx, (eye,)),
        lambda: local_instrument(layout, sub[0].party, idx, [("0", [eye])]),
        lambda: embed_protocol(identity_protocol(sub), layout, idx),
        lambda: permute_protocol(layout, idx),
        lambda: perm_unitary(layout.dims, idx),
        lambda: controlled_on_register(reg, [identity_protocol(layout)] * layout[reg % n].dim),
    ]
    for call in calls:
        try:
            call()
        except Exception as exc:
            _assert_typed(exc)


def test_local_channel_without_kraus_is_refused_before_allocating():
    # the zero map on a 2048-dim factor used to build its 2048 x 2048 (64 MB)
    # completeness before the trace-preservation check refused it
    big = SystemLayout([(0, 2048), (1, 2)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="local channel step must be trace-preserving"):
            LoccProtocol(big, [LocalChannel(0, (0,), ())])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# the most entries a draw inside the caps may build and still be run: larger
# ones would only cost memory, and the refusal tests of test_locc and
# test_qstate pin the boundary
_BUILD_BUDGET = 2**21


@st.composite
def _kraus_shape(draw, cols):
    """(K, rows, cols) of a Kraus stack of at most 2**16 entries."""
    rows = draw(st.integers(1, min(DIM_CAP, 2**16 // cols)))
    return draw(st.integers(1, 2**16 // (rows * cols))), rows, cols


def _zeros(k, rows, cols):
    return Channel(np.zeros((k, rows, cols)), SystemLayout([(0, cols)]), SystemLayout([(0, rows)]))


@SETTINGS
@given(st.sampled_from(["depolarizing", "then", "tensor", "maximally_entangled"]), st.data())
def test_channel_and_pair_builders_finish_or_refuse_before_allocating(kind, data):
    # dimensions up to DIM_CAP: a build past a cap raises DimensionCapError
    # within 1 MB; any other build finishes with the expected shape
    dim = st.one_of(st.integers(1, 64), st.integers(1, DIM_CAP))
    if kind in ("depolarizing", "maximally_entangled"):
        d, keep = data.draw(dim), data.draw(st.floats(0.0, 1.0))
        refused, size, shape = d * d > DIM_CAP, (d * d + 1) * d * d, (d, d)
        if kind == "depolarizing":
            build = functools.partial(Channel.depolarizing, SystemLayout([(0, d)]), keep)
        else:
            build = functools.partial(maximally_entangled, d)
    else:
        k1, r1, c1 = data.draw(_kraus_shape(data.draw(dim)))
        if kind == "then":
            k2, r2, c2 = data.draw(_kraus_shape(r1))
            count, rows, cols = k1 * k2, r2, c1
            build = _zeros(k1, r1, c1).then
        else:
            k2, r2, c2 = data.draw(_kraus_shape(data.draw(dim)))
            count, rows, cols = k1 * k2, r1 * r2, c1 * c2
            build = _zeros(k1, r1, c1).tensor
        second, size, shape = _zeros(k2, r2, c2), count * rows * cols, (count, rows, cols)
        refused = max(rows, cols) > DIM_CAP or count > KRAUS_CAP or size > DIM_CAP**2
        build = functools.partial(build, second)
    if not refused and size > _BUILD_BUDGET:
        event(f"{kind}: inside the caps, not run")
        return
    event(f"{kind}: {'refused' if refused else 'finishes'}")
    tracemalloc.start()
    try:
        out = build()
    except errors.DimensionCapError:
        assert refused and tracemalloc.get_traced_memory()[1] < 2**20
        return
    finally:
        tracemalloc.stop()
    assert not refused
    if kind == "maximally_entangled":
        assert out.layout.total_dim == d * d
    else:
        assert out._stack.shape[-len(shape):] == shape


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 3])
def test_instrument_with_a_non_finite_total_is_refused_by_name(d):
    # at d=3 a NaN entry made eigvalsh of the outcomes' total raise a bare
    # LinAlgError; an entry whose square overflows warned and read "(nan)"
    layout = SystemLayout([(0, d)])
    k = np.eye(d) / math.sqrt(2)
    for entry, match in ((math.nan, r"outcome 'a': Kraus operator 0 has a non-finite entry"),
                         (1e200, r"do not sum to a trace-preserving map \(inf\)")):
        bad = k.copy()
        bad[0, 0] = entry
        with pytest.raises(ValueError, match=match):
            Instrument.from_kraus(layout, [("a", [bad]), ("b", [k])])


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.sampled_from([0.0, 1e-10, 1e-9, 3e-9]), st.booleans())
def test_an_accepted_instrument_bounds_every_outcome(seed, d, counts, noise, one):
    # the total's operator-norm check is the only one: C_m <= total, each
    # outcome's C_m = sum_k K^dag K being PSD, so no accepted outcome passes
    # 1 + TP_TOL.  A complete set is perturbed on the scale of TP_TOL, in
    # every outcome or in one only.
    rng = np.random.default_rng(seed)
    ks = np.array(_kraus(rng, d, sum(counts)))
    if one:
        ks[0] *= 1.0 + noise * rng.uniform(-1.0, 3.0)
    else:
        ks *= 1.0 + noise * rng.standard_normal(ks.shape)
    edges = np.cumsum([0] + counts)
    outcomes = [(str(m), ks[edges[m] : edges[m + 1]]) for m in range(len(counts))]
    try:
        inst = Instrument.from_kraus(SystemLayout([(0, d)]), outcomes)
    except ValueError as exc:
        assert "do not sum to a trace-preserving map" in str(exc)
        event("refused")
        return
    event("accepted")
    for _, ch in inst.outcomes:
        assert np.linalg.eigvalsh(ch.completeness())[-1] <= 1.0 + locc.TP_TOL
