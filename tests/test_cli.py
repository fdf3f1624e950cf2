"""End-to-end checks of the scenario runner: parsing, reports, exit codes."""

import ast
import importlib
import json
import math
import os
import pkgutil
import re
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catent
from catent import cli, errors
from catent.catfactory import EXACTNESS_TOL, verify_marginal_reduction
from catent.errors import (
    DimensionCapError,
    DocumentError,
    LayoutMismatchError,
    MissingSeriesError,
    ScenarioError,
)
from catent.locc import (
    Channel,
    LoccProtocol,
    identity_protocol,
    local_channel,
    local_instrument,
    protocol_from_dict,
    protocol_to_dict,
    save_protocol,
)
from catent.qstate import (
    SystemLayout,
    pure_state,
    save_state,
    singlet,
    state_from_dict,
    state_to_dict,
)

PAIR = SystemLayout([(0, 2), (1, 2)])


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _report(tmp_path, command, text, extra=()):
    scn = _write(tmp_path, f"{command}.scn", text)
    out = str(tmp_path / f"{command}.json")
    code = cli.main([command, "--scenario", scn, "--out", out, *extra])
    with open(out) as fh:
        return code, json.load(fh)


# ---------------------------------------------------------------------------
# scenario grammar


def test_parse_scenario_skips_comments_and_blanks():
    text = "# header\n\n  command : bounds \nstate: singlet\n # trailing\n"
    assert cli.parse_scenario(text) == {"command": "bounds", "state": "singlet"}


def test_parse_scenario_value_may_contain_colons():
    assert cli.parse_scenario("state: file:/tmp/a.json\n") == {
        "state": "file:/tmp/a.json"
    }


@pytest.mark.parametrize(
    "text",
    ["command bounds\n", ": lost\n", "seed: 1\nseed: 2\n"],
    ids=["no-colon", "empty-key", "duplicate"],
)
def test_parse_scenario_rejects_malformed_lines(text):
    with pytest.raises(ScenarioError):
        cli.parse_scenario(text)


@pytest.mark.parametrize(
    "scen,message",
    [
        ({}, "does not name"),
        ({"command": "teleport"}, "unknown command"),
        ({"command": "bounds", "state": "singlet", "extra": "1"}, "unknown keys"),
        ({"command": "bounds"}, "missing keys"),
        ({"command": "bounds", "state": "nope"}, "unknown state family"),
        ({"command": "bounds", "state": "singlet", "budget": "ten"}, "integer"),
        # the key-table bounds: these read "samples must be >= 1", "no
        # convergence within 0 rounds" (both exit 1) and "need 1 <= m <= n"
        ({"command": "distill", "f_initial": "0.8", "f_target": "0.9", "mc_samples": "-3"},
         "mc_samples must be >= 0, got -3"),
        ({"command": "distill", "f_initial": "0.8", "f_target": "0.9", "max_rounds": "0"},
         "max_rounds must be >= 1, got 0"),
        ({"command": "reduce", "rho": "singlet", "sigma": "singlet", "n": "2", "m": "0"},
         "m must be >= 1, got 0"),
        # each value parser and the checks made when the command runs
        ({"command": "distill", "f_initial": "ten", "f_target": "0.9"},
         "f_initial must be a number, got 'ten'"),
        ({"command": "pure-rate", "source": "1", "target": "1", "expect_plain": "yes"},
         "expect_plain must be true or false, got 'yes'"),
        ({"command": "pure-rate", "source": "a,b", "target": "1"},
         "source must be a spectrum or jp-\\* name, got 'a,b'"),
        ({"command": "catalyze", "rho": "singlet", "n": "2", "protocol": "magic"},
         "unknown protocol 'magic'"),
        ({"command": "distill", "f_initial": "0.75", "f_target": "0.9", "sweep_points": "3",
          "sweep_lo": "0.9", "sweep_hi": "0.8"},
         "sweep needs points >= 2 and 0.25 < lo < hi <= 1, got 3, 0.9, 0.8"),
    ],
)
def test_run_rejects_bad_scenarios(scen, message):
    with pytest.raises(ScenarioError, match=message):
        cli.run(scen)


def test_jp_names_are_state_families():
    # the module docstring lists jp-source as a state: the pure state of that spectrum
    rep = cli.run({"command": "bounds", "state": "jp-source", "budget": "0"})
    h = -sum(p * math.log2(p) for p in (0.4, 0.4, 0.1, 0.1))
    assert rep["results"]["mutual_information"] == pytest.approx(2 * h, abs=1e-12)
    assert rep["results"]["hashing"] == pytest.approx({"lower": h, "upper": h}, abs=1e-12)


@pytest.mark.parametrize(
    "text,extra,env",
    [
        ("state: haar:-1\n", [], None),
        ("state: singlet\nseed: -1\n", [], None),
        ("state: singlet\n", ["--seed", "-3"], None),
        ("state: singlet\n", [], "-1"),
    ],
    ids=["state-family", "scenario-key", "flag", "env"],
)
def test_negative_seed_exits_2_and_names_the_key(text, extra, env, tmp_path, monkeypatch, capsys):
    # numpy refused each with "expected non-negative integer", exit 1, no key named
    monkeypatch.delenv("CATENT_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("CATENT_SEED", env)
    scn = _write(tmp_path, "b.scn", "command: bounds\nbudget: 6\n" + text)
    assert cli.main(["bounds", "--scenario", scn, *extra]) == 2
    assert "seed must be >= 0, got -" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,text",
    [
        ("catalyze", "rho: werner:0.85\nn: 2\nmax_epsilon: nan\n"),
        ("reduce", "rho: singlet\nsigma: singlet\nn: 2\nm: 1\nmax_error: nan\n"),
        ("bounds", "state: werner:nan\n"),
        ("superadd", "eps: inf\n"),
        ("distill", "f_initial: 0.8\nf_target: -inf\n"),
        ("pure-rate", "source: nan,1\ntarget: 1\n"),
    ],
    ids=["max_epsilon", "max_error", "werner", "eps", "f_target", "spectrum"],
)
def test_non_finite_scenario_number_exits_2_with_no_report(command, text, tmp_path, capsys):
    # a NaN bound failed every comparison: the run wrote a report, then exited 1
    scn = _write(tmp_path, "s.scn", text)
    out = tmp_path / "r.json"
    assert cli.main([command, "--scenario", scn, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_command_mismatch():
    with pytest.raises(ScenarioError, match="does not match"):
        cli.run({"command": "bounds", "state": "singlet"}, command="distill")


def _readme():
    return open(os.path.join(os.path.dirname(_SRC), "README.md"), encoding="utf-8").read()


def _readme_section(heading):
    """The text under ``heading`` (a whole line) up to the next heading."""
    return re.split(r"\n#+ ", _readme().split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]


_KINDS = {cli._int: "integer", cli._float: "number", cli._bool: "true/false",
          cli._parse_state: "state", cli._parse_spectrum: "spectrum", cli._text: "protocol"}


def _key_cell(key, parser, default):
    lo = getattr(parser, "keywords", {}).get("lo")  # _count(lo) is a partial of _int
    text = f"`{key}` {_KINDS[getattr(parser, 'func', parser)]}"
    text += "" if lo is None else f" ≥ {lo}"
    if default is cli._REQUIRED:
        return text
    return text + (" (unset)" if default is None else f" (`{default}`)")


def test_readme_key_table_is_the_command_table():
    rows = ["| command | required keys | optional keys (default) |", "|---|---|---|"]
    for command, (_, keys) in cli._COMMANDS.items():
        cells = [(d is cli._REQUIRED, _key_cell(k, p, d)) for k, (p, d) in keys.items()]
        required = ", ".join(c for r, c in cells if r) or "—"
        optional = ", ".join(c for r, c in cells if not r) or "—"
        rows.append(f"| `{command}` | {required} | {optional} |")
    assert "\n".join(rows) + "\n" in _readme()


def test_readme_command_table_is_the_command_list():
    table = _readme_section("### Commands").strip().split("\n\n")[0]
    listed = re.findall(r"^\| `([a-z0-9-]+)` *\|", table, re.M)
    assert listed == [*cli._COMMANDS, "plotdata"]


def test_readme_exit_codes_are_the_codes_main_returns(monkeypatch, tmp_path, capsys):
    listed = dict(re.findall(r"^\| `([\w.]+)` \| (\d) \|$", _readme_section("### Exit codes"),
                             re.M))
    raised = {name: cls for name, cls in vars(errors).items()
              if isinstance(cls, type) and issubclass(cls, Exception)
              and cls.__module__ == errors.__name__}
    raised.update({"OSError": OSError, "json.JSONDecodeError": json.JSONDecodeError})
    assert set(listed) == set(raised)
    scn = _write(tmp_path, "s.scn", "command: superadd\n")
    keys = cli._COMMANDS["superadd"][1]
    for name, cls in raised.items():
        exc = cls("listed", "", 0) if cls is json.JSONDecodeError else cls("listed")

        def runner(values, exc=exc):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "superadd", (runner, keys))
        assert cli.main(["superadd", "--scenario", scn]) == int(listed[name]), name
        assert "listed" in capsys.readouterr().err


def test_readme_environment_variables_are_the_ones_main_reads():
    source = open(cli.__file__, encoding="utf-8").read()
    read = {cli.ENV_PREFIX + node.args[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_env", "_env_int")
            and isinstance(node.args[0], ast.Constant)}
    assert set(re.findall(r"CATENT_[A-Z_]+", _readme())) == read


def test_readme_constants_are_the_packages():
    listed = re.findall(r"`([A-Z][A-Z0-9_]*) = ([^`]+)`", _readme())
    modules = [importlib.import_module(info.name)
               for info in pkgutil.iter_modules(catent.__path__, "catent.")]
    for name, value in listed:
        found = {getattr(m, name) for m in modules if hasattr(m, name)}
        assert found == {ast.literal_eval(value)}, name
    assert {name for name, _ in listed} >= {
        "DIM_CAP", "MAX_FACTORS", "KRAUS_CAP", "MC_COPY_BUDGET", "LEMMA1_SAMPLE_BUDGET",
        "SUPERADD_SAMPLE_BUDGET", "BOUNDS_ROUND_BUDGET", "SWEEP_POINT_BUDGET"}


def test_readme_library_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", _readme(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("5 SystemLayout(0:2, 1:2)\n")


# ---------------------------------------------------------------------------
# command reports


def test_catalyze_report(tmp_path):
    code, rep = _report(
        tmp_path,
        "catalyze",
        "command: catalyze\nrho: werner:0.85\nn: 2\nmax_epsilon: 1e-9\n",
    )
    assert code == 0 and rep["passed"] is True
    res = rep["results"]
    assert res["catalyst_dim"] == 8
    assert res["certificate"]["catalyst_drift"] < 1e-12
    assert max(res["copy_errors"]) < 1e-12


def test_catalyze_synthesized_protocol(tmp_path):
    code, rep = _report(
        tmp_path,
        "catalyze",
        "command: catalyze\nrho: pure:0.5,0.5\nsigma: pure:0.75,0.25\n"
        "protocol: synth\nn: 2\nmax_epsilon: 1e-9\n",
    )
    assert code == 0 and rep["passed"] is True
    assert max(rep["results"]["copy_errors"]) < 1e-9


_SCHMIDT_ERRORS = {
    "catalyze": ({"n": "2", "protocol": "synth"}, lambda res: res["copy_errors"]),
    "reduce": ({"n": "2", "m": "2", "protocol": "synth"},
               lambda res: res["per_marginal_errors"]),
    # the error of the output at the exact catalyst: the protocol's own error
    "synth-catalyst": ({"n": "2"}, lambda res: [res["delta_single_shot"]]),
}


@pytest.mark.parametrize("rho,sigma", [("singlet", "pure:0.99,0.01"),
                                       ("haar:11", "pure:0.99,0.01"), ("haar:5", "pure:1,0")])
@pytest.mark.parametrize("command", sorted(_SCHMIDT_ERRORS))
def test_synth_converts_in_each_states_schmidt_bases(command, rho, sigma):
    # singlet and haar states are sum_i sqrt(p_i)|ii> only up to local
    # unitaries; a protocol acting in the computational basis missed sigma
    # by more than 1.2 in trace norm and still passed
    keys, copy_errors = _SCHMIDT_ERRORS[command]
    rep = cli.run({"command": command, "rho": rho, "sigma": sigma, **keys})
    assert rep["passed"] is True
    assert max(copy_errors(rep["results"])) <= EXACTNESS_TOL


def _rotated(probs, layout, seed):
    """(U x V) sum_i sqrt(p_i)|ii>, U and V random unitaries on the parties' joint factors."""
    rng = np.random.default_rng(seed)
    a, b = layout.party_factors(0), layout.party_factors(1)
    u, v = (np.linalg.qr(g)[0] for g in (
        rng.standard_normal((len(probs),) * 2) + 1j * rng.standard_normal((len(probs),) * 2)
        for _ in range(2)))
    amps = (u * np.sqrt(probs)) @ v.T  # rows: party 0's joint index, columns: party 1's
    dims = [layout.dims[i] for i in a + b]
    return pure_state(layout, amps.reshape(dims).transpose(np.argsort(a + b)).reshape(-1))


def test_synth_reads_a_party_of_several_factors_in_layout_order(tmp_path):
    # party 0 holds factors 0 and 2: its Schmidt basis is on their joint
    # space, factor 0 the more significant, as the synthesis reads it
    layout = SystemLayout([(0, 2), (1, 4), (0, 2)])
    paths = {}
    for name, probs, seed in [("rho", (0.4, 0.3, 0.2, 0.1), 1), ("sigma", (0.7, 0.1, 0.1, 0.1), 2)]:
        paths[name] = str(tmp_path / f"{name}.json")
        save_state(_rotated(probs, layout, seed), paths[name])
    rep = cli.run({"command": "reduce", "rho": f"file:{paths['rho']}",
                   "sigma": f"file:{paths['sigma']}", "n": "1", "m": "1", "protocol": "synth"})
    assert rep["passed"] is True and rep["results"]["epsilon"] <= EXACTNESS_TOL


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 0.99), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_synth_is_exact_under_random_local_unitaries(p, frac, seed):
    # two-term spectra at n=2, where the lexicographic products are sorted:
    # sigma's top weight q >= p, so sigma majorizes rho.  Sources nearer a
    # product state than p = 0.99 are left out: from p = 0.9999 on, the
    # synthesis fails on canonical pairs too (not trace-preserving, or
    # errors up to 6e-7)
    q = p + frac * (1.0 - p)
    rho = _rotated((p, 1.0 - p), PAIR, seed)
    sigma = _rotated((q, 1.0 - q), PAIR, seed + 1)
    lam = cli._build_protocol("synth", rho, sigma, 2)
    cert = verify_marginal_reduction(lam, rho, sigma, 2, 2)
    assert max(cert.per_marginal_errors) <= EXACTNESS_TOL


def test_reduce_report(tmp_path):
    code, rep = _report(
        tmp_path,
        "reduce",
        "command: reduce\nrho: pure:0.5,0.5\nsigma: pure:0.5,0.5\n"
        "n: 3\nm: 2\nmax_error: 1e-9\n",
    )
    assert code == 0 and rep["passed"] is True
    res = rep["results"]
    assert res["rate"] == pytest.approx(2.0 / 3.0)
    assert res["delta"] == pytest.approx(1.0 / 3.0)
    assert len(res["per_marginal_errors"]) == 2


def _save_noisy_copy_0(path, keep):
    """Three singlet slots, copy 0's first qubit depolarized (keep 0.5), the
    output handed back as ``keep``."""
    lay = SystemLayout([(0, 2), (1, 2)]).power(3)
    noise = Channel.depolarizing(SystemLayout([(0, 2)]), 0.5).kraus
    save_protocol(LoccProtocol(lay, [local_channel(lay, 0, (0,), noise)], keep=keep), path)


@pytest.mark.parametrize("m,want", [(3, [0.0, 0.0, 0.75]), (2, [0.0, 0.0])])
def test_reduce_keeps_the_first_m_copies_of_a_file_protocols_output(tmp_path, m, want):
    # the noisy copy 0 is handed back last, so the first two copies are clean
    path = tmp_path / "p.json"
    _save_noisy_copy_0(path, (4, 5, 2, 3, 0, 1))
    code, rep = _report(
        tmp_path, "reduce",
        f"rho: singlet\nsigma: singlet\nn: 3\nm: {m}\nprotocol: file:{path}\n",
    )
    assert code == 0
    assert rep["results"]["per_marginal_errors"] == pytest.approx(want, abs=1e-12)


def test_reduce_refuses_a_file_protocol_that_keeps_fewer_than_m_copies(tmp_path, capsys):
    path = tmp_path / "p.json"
    _save_noisy_copy_0(path, (2, 3))
    text = f"rho: singlet\nsigma: singlet\nn: 3\nm: 2\nprotocol: file:{path}\n"
    scn = _write(tmp_path, "r.scn", text)
    assert cli.main(["reduce", "--scenario", scn]) == 1
    assert "is not 2 copies" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys,error,text,code",
    [
        ({"keep": [4]}, LayoutMismatchError, "factor index 4 out of range for", 1),
        ({"keep": [-1, 0]}, LayoutMismatchError, "factor index -1 out of range for", 1),
        ({"keep": [0, 2, 0]}, LayoutMismatchError, r"repeated factor indices \(0, 2, 0\)", 1),
        ({"keep": []}, ValueError, "layout needs at least one factor", 1),
        ({"keep": [0, "1"]}, DocumentError, r"expected a list of JSON integers, got \[0, '1'\]", 2),
        ({"keep": 7}, DocumentError, "expected a list of JSON integers, got 7", 2),
        ({"keep": {"0": 1}}, DocumentError, r"expected a list of JSON integers, got \{'0': 1\}", 2),
        ({"format": "catent-protocol-v1", "discard": [3]}, DocumentError,
         "unsupported protocol format 'catent-protocol-v1'", 2),
    ],
    ids=["keep-past", "keep-negative", "keep-repeat", "keep-empty", "keep-str-entry",
         "keep-int", "keep-object", "v1-document"],
)
def test_malformed_keep_keeps_its_error_type(tmp_path, capsys, keys, error, text, code):
    doc = {**protocol_to_dict(identity_protocol(SystemLayout([(0, 2), (1, 2)]).power(2))), **keys}
    with pytest.raises(ValueError, match=text) as err:
        protocol_from_dict(doc)
    assert type(err.value) is error
    path = _write(tmp_path, "p.json", json.dumps(doc))
    scn = _write(tmp_path, "c.scn", f"rho: singlet\nn: 2\nprotocol: file:{path}\n")
    assert cli.main(["catalyze", "--scenario", scn]) == code
    prefix = {1: "failed", 2: "error"}[code]
    assert re.search(f"^catent: {prefix}: .*{text}", capsys.readouterr().err)


def _x_on_factor_0_doc():
    # party 0 flips factor 0 of two singlets, through a JSON round trip
    lay = SystemLayout([(0, 2), (1, 2)]).power(2)
    flip = local_channel(lay, 0, (0,), [[[0.0, 1.0], [1.0, 0.0]]])
    return json.loads(json.dumps(protocol_to_dict(LoccProtocol(lay, [flip]))))


@pytest.mark.parametrize(
    "kind,fields",
    [
        ("protocol", {("keep",): [1.0, 0]}),
        ("protocol", {("keep",): [True, 0]}),
        ("protocol", {("keep",): ["1", 0]}),
        ("protocol", {("factors", 0, 1): 2.7}),
        ("protocol", {("factors", 0, 0): 0.9}),
        ("protocol", {("steps", 0, "party"): 0.5}),
        ("protocol", {("steps", 0, "factors"): [0.2]}),
        ("protocol", {("steps", 0, "kraus", 0, "shape"): [2.0, 2.9]}),
        ("state", {("factors", 0): [1.7, 2]}),
    ],
    ids=["keep-float", "keep-bool", "keep-str", "factor-dim-float", "factor-party-float",
         "step-party-float", "step-factor-float", "kraus-shape-floats", "state-factor-floats"],
)
def test_integer_fields_must_be_json_integers(kind, fields):
    # each of these used to load, its floats truncated and its bools and strings read by int()
    if kind == "state":
        doc, load = json.loads(json.dumps(state_to_dict(singlet()))), state_from_dict
    else:
        doc, load = _x_on_factor_0_doc(), protocol_from_dict
    load(doc)  # as written, it loads
    for path, value in fields.items():
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    with pytest.raises(DocumentError, match="expected a list of JSON integers"):
        load(doc)


def test_catalyze_refuses_a_protocol_file_with_a_float_party(tmp_path, capsys):
    doc = _x_on_factor_0_doc()
    path = _write(tmp_path, "p.json", json.dumps(doc))
    scn = _write(tmp_path, "c.scn", f"rho: singlet\nn: 2\nprotocol: file:{path}\n")
    assert cli.main(["catalyze", "--scenario", scn, "--out", str(tmp_path / "r.json")]) == 0
    doc["steps"][0]["party"] = 0.5
    _write(tmp_path, "p.json", json.dumps(doc))
    assert cli.main(["catalyze", "--scenario", scn, "--out", str(tmp_path / "r.json")]) == 2
    assert "expected a list of JSON integers, got [0.5]" in capsys.readouterr().err


def _measure_factor_0_doc():
    # party 0 measures factor 0 of two singlets and flips it on "m1", through a JSON round trip
    lay = SystemLayout([(0, 2), (1, 2)]).power(2)
    flip = local_channel(lay, 0, (0,), [[[0.0, 1.0], [1.0, 0.0]]])
    z = [("m0", [[[1.0, 0.0], [0.0, 0.0]]]), ("m1", [[[0.0, 0.0], [0.0, 1.0]]])]
    step = local_instrument(lay, 0, (0,), z, {"m1": [flip]})
    return json.loads(json.dumps(protocol_to_dict(LoccProtocol(lay, [step]))))


@pytest.mark.parametrize("label", [None, 1, [1.5], True, {"x": 1}],
                         ids=["null", "int", "list", "bool", "object"])
def test_outcome_labels_must_be_json_strings(label):
    # each used to load, read by str() as 'None', '1', '[1.5]', 'True' and "{'x': 1}"
    doc = _measure_factor_0_doc()
    assert protocol_to_dict(protocol_from_dict(doc)) == doc
    doc["steps"][0]["outcomes"][1]["label"] = label
    with pytest.raises(DocumentError, match=re.escape(
            f"outcome label must be a JSON string, got {label!r}")):
        protocol_from_dict(doc)


def test_catalyze_refuses_a_protocol_file_with_a_non_string_label(tmp_path, capsys):
    doc = _measure_factor_0_doc()
    path = _write(tmp_path, "p.json", json.dumps(doc))
    scn = _write(tmp_path, "c.scn", f"rho: singlet\nn: 2\nprotocol: file:{path}\n")
    assert cli.main(["catalyze", "--scenario", scn, "--out", str(tmp_path / "r.json")]) == 0
    doc["steps"][0]["outcomes"][0]["label"] = None
    _write(tmp_path, "p.json", json.dumps(doc))
    assert cli.main(["catalyze", "--scenario", scn, "--out", str(tmp_path / "r.json")]) == 2
    assert "outcome label must be a JSON string, got None" in capsys.readouterr().err


def test_lemma1_report(tmp_path):
    code, rep = _report(
        tmp_path, "verify-lemma1", "command: verify-lemma1\nsamples: 6\n"
    )
    assert code == 0 and rep["passed"] is True
    res = rep["results"]
    assert res["violations"] == 0
    assert len(res["scatter"]) == 6 and rep["samples"] == 6
    for eps, lhs, rhs in res["scatter"]:
        assert lhs <= rhs and rhs == pytest.approx(eps + 6 * math.sqrt(eps / 2))


def test_bounds_report(tmp_path):
    code, rep = _report(
        tmp_path, "bounds", "command: bounds\nstate: werner:0.9\nbudget: 12\n"
    )
    assert code == 0 and rep["passed"] is True
    res = rep["results"]
    assert res["hashing"]["lower"] <= res["hashing"]["upper"] + 1e-9
    assert res["squashed_upper"] <= 0.5 * res["mutual_information"] + 1e-9


def test_superadd_report(tmp_path):
    code, rep = _report(
        tmp_path, "superadd", "command: superadd\nsamples: 2\nmix: 0.0002\n"
    )
    assert code == 0 and rep["passed"] is True
    rows = rep["results"]["instances"]
    assert len(rows) == 2 and all(r["ok"] for r in rows)
    assert all(r["combined"] < rep["results"]["eps"] for r in rows)


def test_superadd_mix_outside_budget_fails(tmp_path):
    code, rep = _report(
        tmp_path, "superadd", "command: superadd\nsamples: 1\nmix: 0.02\n"
    )
    assert code == 1 and rep["passed"] is False


# ---------------------------------------------------------------------------
# verdicts: each branch of a command's ``passed`` is seen false


@pytest.mark.parametrize(
    "name,fake",
    [
        ("squashed_upper",
         lambda sq, state: sq._replace(value=0.5 * cli.mutual_information(state) + 2e-9)),
        ("squashed_upper", lambda sq, state: sq._replace(value=-2e-12)),
        ("hashing_bounds", lambda hb, state: hb._replace(lower=hb.upper + 2e-9)),
    ],
    ids=["squashed-above-half-mi", "squashed-negative", "hashing-lower-above-upper"],
)
def test_bounds_verdict_fails_outside_the_sandwich(monkeypatch, tmp_path, name, fake):
    # no true input leaves the sandwich, so the runner's measure is replaced
    # by fake(real result, state); each fake is past its margin by twice
    # that margin, not ten times
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda state, *a, **k: fake(real(state, *a, **k), state))
    code, rep = _report(tmp_path, "bounds", "command: bounds\nstate: werner:0.9\nbudget: 3\n")
    assert code == 1 and rep["passed"] is False


@pytest.mark.parametrize(
    "command,text,error",
    [
        ("catalyze",
         "command: catalyze\nrho: werner:0.85\nsigma: werner:0.9\nn: 2\nmax_epsilon: {!r}\n",
         lambda res: res["certificate"]["epsilon_achieved"]),
        ("reduce",
         "command: reduce\nrho: pure:0.5,0.5\nsigma: pure:0.75,0.25\nn: 2\nm: 1\n"
         "max_error: {!r}\n",
         lambda res: res["epsilon"]),
    ],
    ids=["catalyze", "reduce"],
)
def test_error_bound_verdict_is_the_achieved_error(tmp_path, command, text, error):
    # the identity protocol leaves rho, so its error is ||rho - sigma||_1 > 0:
    # a bound at that error passes and one just below it fails
    code, rep = _report(tmp_path, command, text.format(1.0))
    eps = error(rep["results"])
    assert code == 0 and rep["passed"] is True and 0.01 < eps < 1.0
    code, rep = _report(tmp_path, command, text.format(eps))
    assert code == 0 and rep["passed"] is True and error(rep["results"]) == eps
    code, rep = _report(tmp_path, command, text.format(math.nextafter(eps, 0.0)))
    assert code == 1 and rep["passed"] is False and error(rep["results"]) == eps


@pytest.mark.parametrize(
    "expect,convertible",
    [
        ("expect_plain: true\n", ("plain", False)),
        ("expect_plain: false\ntarget: 0.75,0.25\n", ("plain", True)),
        ("expect_catalytic: false\ncatalyst: jp-catalyst\n", ("catalytic", True)),
        ("expect_catalytic: true\ncatalyst: 0.5,0.5\n", ("catalytic", False)),
    ],
    ids=["plain-true", "plain-false", "catalytic-false", "catalytic-true"],
)
def test_pure_rate_verdict_fails_on_the_wrong_expectation(tmp_path, expect, convertible):
    # jp-source is 0.4,0.4,0.1,0.1; a key given twice would be refused, so
    # the default target jp-target is replaced only where the case names one
    target = "" if "target:" in expect else "target: jp-target\n"
    code, rep = _report(
        tmp_path, "pure-rate", f"command: pure-rate\nsource: jp-source\n{target}{expect}"
    )
    kind, want = convertible
    assert rep["results"][kind]["convertible"] is want
    assert code == 1 and rep["passed"] is False


def test_catalyze_verdict_fails_on_catalyst_drift(monkeypatch, tmp_path):
    # the embedding returns the catalyst exactly, so the drift is faked at
    # the tolerance, which the strict test refuses
    real = cli.verify_catalysis
    monkeypatch.setattr(cli, "verify_catalysis", lambda *a, **k: real(*a, **k)._replace(
        catalyst_drift=EXACTNESS_TOL))
    code, rep = _report(tmp_path, "catalyze", "command: catalyze\nrho: werner:0.85\nn: 2\n")
    assert code == 1 and rep["passed"] is False


def test_lemma1_verdict_fails_on_a_violation(monkeypatch, tmp_path):
    real = cli.decoupling_check
    monkeypatch.setattr(cli, "decoupling_check",
                        lambda *a, **k: real(*a, **k)._replace(passed=False))
    code, rep = _report(tmp_path, "verify-lemma1", "command: verify-lemma1\nsamples: 2\n")
    assert code == 1 and rep["passed"] is False and rep["results"]["violations"] == 2


@pytest.mark.parametrize("below,code", [(False, 0), (True, 1)], ids=["at-target", "below"])
def test_distill_verdict_is_the_final_fidelity(monkeypatch, tmp_path, below, code):
    # distill_to stops at the first round past the target, so its last round
    # is faked to end at the target or one ulp below it
    real = cli.distill_to

    def fake(f_target, *a, **k):
        run = real(f_target, *a, **k)
        f = math.nextafter(f_target, 0.0) if below else f_target
        return type(run)(rounds=(*run.rounds[:-1], run.rounds[-1]._replace(fidelity_after=f)))

    monkeypatch.setattr(cli, "distill_to", fake)
    got, rep = _report(tmp_path, "distill", "command: distill\nf_initial: 0.8\nf_target: 0.9\n")
    assert got == code and rep["passed"] is (code == 0)


@pytest.mark.parametrize(
    "field,past,code",
    [("catalyst_drifts", 0.0, 0), ("catalyst_drifts", 2e-9, 1),
     ("per_marginal_errors", 0.0, 0), ("per_marginal_errors", 2e-9, 1)],
    ids=["drift-at-bound", "drift-past", "error-at-bound", "error-past"],
)
def test_synth_catalyst_verdict_holds_drifts_and_errors_to_their_bounds(monkeypatch, tmp_path,
                                                                        field, past, code):
    # monotonicity keeps both within their bounds, so the first copy's value
    # is faked at its bound (as the runner computes it) or 2e-9 past it
    real = cli.iterate_reuse

    def fake(*a, **k):
        outs, cert = real(*a, **k)
        eps = cert.epsilon_initial
        bound = eps + 1e-9 if field == "catalyst_drifts" else eps + cert.delta_single_shot + 1e-9
        values = (bound + past, *getattr(cert, field)[1:])
        return outs, cert._replace(**{field: values})

    monkeypatch.setattr(cli, "iterate_reuse", fake)
    got, rep = _report(tmp_path, "synth-catalyst",
                       "command: synth-catalyst\nrho: pure:0.5,0.5\nsigma: pure:0.75,0.25\n")
    assert got == code and rep["passed"] is (code == 0)


def test_superadd_verdict_fails_at_the_budget(monkeypatch, tmp_path):
    # the combined error must stay strictly below eps
    real = cli.compose_superadditive
    monkeypatch.setattr(cli, "compose_superadditive",
                        lambda *a, eps, **k: (eps, real(*a, eps=eps, **k)[1]))
    code, rep = _report(tmp_path, "superadd", "command: superadd\nsamples: 1\n")
    assert code == 1 and rep["passed"] is False
    assert rep["results"]["instances"][0]["combined"] == rep["results"]["eps"]


def test_distill_report(tmp_path):
    code, rep = _report(
        tmp_path,
        "distill",
        "command: distill\nf_initial: 0.8\nf_target: 0.9\n"
        "sweep_points: 3\nmc_samples: 40\n",
    )
    assert code == 0 and rep["passed"] is True
    res = rep["results"]
    assert res["round_count"] == 3
    assert res["copies_consumed"] == pytest.approx(15.237039080745603, abs=1e-9)
    assert res["final_fidelity"] == pytest.approx(0.90454021676213, abs=1e-9)
    assert [r["F_in"] for r in res["sweep"]] == pytest.approx([0.55, 0.75, 0.95])
    assert res["expected_copies_mc"] > 0


def test_synth_catalyst_report(tmp_path):
    code, rep = _report(
        tmp_path,
        "synth-catalyst",
        "command: synth-catalyst\nrho: pure:0.5,0.5\nsigma: pure:0.75,0.25\n"
        "n: 2\ncopies: 3\nf_resource: 0.97\n",
    )
    assert code == 0 and rep["passed"] is True
    res = rep["results"]
    eps = res["epsilon_initial"]
    assert res["synthesis_distance"] > 0
    assert len(res["per_marginal_errors"]) == 3
    assert all(d <= eps + 1e-9 for d in res["catalyst_drifts"])


def test_pure_rate_report(tmp_path):
    code, rep = _report(
        tmp_path,
        "pure-rate",
        "command: pure-rate\nsource: jp-source\ntarget: jp-target\n"
        "catalyst: jp-catalyst\nexpect_plain: false\nexpect_catalytic: true\n",
    )
    assert code == 0 and rep["passed"] is True
    res = rep["results"]
    assert res["plain"]["convertible"] is False
    assert res["catalytic"]["convertible"] is True
    h = lambda probs: -sum(p * math.log2(p) for p in probs)
    ratio = h((0.4, 0.4, 0.1, 0.1)) / h((0.5, 0.25, 0.25))
    assert res["rate"]["lower"] == pytest.approx(ratio, abs=1e-9)
    assert res["rate"]["upper"] == pytest.approx(ratio, abs=1e-9)


def test_pure_rate_product_target_has_no_rate(tmp_path):
    code, rep = _report(
        tmp_path, "pure-rate", "command: pure-rate\nsource: jp-source\ntarget: 1.0\n"
    )
    assert code == 0 and rep["results"]["rate"] is None


def test_state_family_from_file(tmp_path):
    path = tmp_path / "psi.json"
    save_state(singlet(), path)
    code, rep = _report(
        tmp_path, "bounds", f"command: bounds\nstate: file:{path}\nbudget: 6\n"
    )
    assert code == 0
    assert rep["results"]["mutual_information"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# report format and determinism


def test_reports_are_byte_identical_across_runs(tmp_path):
    scn = _write(
        tmp_path, "b.scn", "command: bounds\nstate: werner:0.8\nbudget: 8\nseed: 3\n"
    )
    paths = [str(tmp_path / f"r{i}.json") for i in (0, 1)]
    for p in paths:
        assert cli.main(["bounds", "--scenario", scn, "--out", p]) == 0
    a, b = (open(p, "rb").read() for p in paths)
    assert a == b


def test_report_is_sorted_json_with_trailing_newline(tmp_path):
    scn = _write(tmp_path, "p.scn", "command: pure-rate\nsource: 0.5,0.5\ntarget: 0.5,0.5\n")
    out = str(tmp_path / "p.json")
    assert cli.main(["pure-rate", "--scenario", scn, "--out", out]) == 0
    text = open(out).read()
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    for key in ("command", "scenario", "seed", "samples", "versions", "results", "passed"):
        assert key in json.loads(text)


def test_seed_precedence_flag_env_scenario(tmp_path, monkeypatch):
    scn = _write(tmp_path, "s.scn", "command: verify-lemma1\nsamples: 1\nseed: 7\n")
    out = str(tmp_path / "s.json")

    def seed_of(extra):
        assert cli.main(["verify-lemma1", "--scenario", scn, "--out", out, *extra]) == 0
        return json.load(open(out))["seed"]

    monkeypatch.delenv("CATENT_SEED", raising=False)
    assert seed_of([]) == 7
    monkeypatch.setenv("CATENT_SEED", "9")
    assert seed_of([]) == 9
    assert seed_of(["--seed", "11"]) == 11


def test_samples_env_override(tmp_path, monkeypatch):
    scn = _write(tmp_path, "s.scn", "command: verify-lemma1\nsamples: 9\n")
    out = str(tmp_path / "s.json")
    monkeypatch.setenv("CATENT_SAMPLES", "3")
    assert cli.main(["verify-lemma1", "--scenario", scn, "--out", out]) == 0
    rep = json.load(open(out))
    assert rep["samples"] == 3 and len(rep["results"]["scatter"]) == 3


def test_samples_only_where_there_are_samples(tmp_path, monkeypatch, capsys):
    # verify-lemma1 and superadd read samples; the other commands refuse the
    # key and the flag, and leave CATENT_SAMPLES unread
    scn = _write(tmp_path, "d.scn", "command: distill\nf_initial: 0.8\nf_target: 0.9\n")
    assert cli.main(["distill", "--scenario", scn, "--samples", "3"]) == 2
    assert "unknown keys for distill: samples" in capsys.readouterr().err
    with pytest.raises(ScenarioError, match="unknown keys for bounds: samples"):
        cli.run({"command": "bounds", "state": "singlet", "samples": "3"})
    monkeypatch.setenv("CATENT_SAMPLES", "3")
    out = str(tmp_path / "d.json")
    assert cli.main(["distill", "--scenario", scn, "--out", out]) == 0
    assert json.load(open(out))["samples"] is None
    assert cli.run({"command": "superadd"})["samples"] == 5
    assert cli.run({"command": "verify-lemma1", "samples": "2"})["samples"] == 2


def test_scenario_from_env_and_out_key(tmp_path, monkeypatch):
    out = tmp_path / "via-key.json"
    scn = _write(
        tmp_path, "e.scn", f"command: pure-rate\nsource: 0.5,0.5\ntarget: 0.5,0.5\nout: {out}\n"
    )
    monkeypatch.setenv("CATENT_SCENARIO", scn)
    assert cli.main(["pure-rate"]) == 0
    assert json.load(open(out))["passed"] is True


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "args",
    [
        ["bounds"],
        ["bounds", "--scenario", "/nonexistent/x.scn"],
        ["plotdata"],
        ["plotdata", "--report", "/nonexistent/r.json", "--kind", "distill"],
    ],
    ids=["no-scenario", "missing-file", "plotdata-bare", "plotdata-missing-file"],
)
def test_usage_errors_exit_2(args, monkeypatch, capsys):
    for var in ("SCENARIO", "REPORT", "KIND"):
        monkeypatch.delenv(f"CATENT_{var}", raising=False)
    assert cli.main(args) == 2
    assert "catent:" in capsys.readouterr().err


def test_unparseable_report_exits_2(tmp_path, capsys):
    bad = _write(tmp_path, "r.json", "{not json\n")
    assert cli.main(["plotdata", "--report", bad, "--kind", "distill"]) == 2


def _state_doc(**changes):
    doc = state_to_dict(singlet())
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize(
    "key,doc",
    [
        ("rho", _state_doc(matrix=None)),
        ("rho", _state_doc(format="catent-state-v9")),
        ("protocol", _state_doc()),
        # each "10" used to unpack into the hex digits "1" and "0"
        ("rho", _state_doc(matrix={"shape": [4, 4], "entries": ["10"] * 16})),
    ],
    ids=["state-without-matrix", "unknown-format", "state-as-protocol", "string-entries"],
)
def test_malformed_document_exits_2(key, doc, tmp_path, capsys):
    path = _write(tmp_path, "doc.json", json.dumps(doc))
    keys = {"rho": "werner:0.85", "n": "2", key: f"file:{path}"}
    scn = _write(tmp_path, "c.scn", "".join(f"{k}: {v}\n" for k, v in keys.items()))
    assert cli.main(["catalyze", "--scenario", scn]) == 2
    assert "catent: error" in capsys.readouterr().err


def test_domain_error_exits_1(tmp_path, capsys):
    scn = _write(
        tmp_path, "d.scn", "command: distill\nf_initial: 0.4\nf_target: 0.9\n"
    )
    assert cli.main(["distill", "--scenario", scn]) == 1
    assert "catent: failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,text,message",
    [
        # past the check: NotPureError, exit 1
        ("catalyze", "rho: werner:0.8\nn: 2\nprotocol: synth\n",
         "synth protocol needs pure rho and sigma"),
        # past the check: the reduction's own ValueError, exit 1
        ("reduce", "rho: singlet\nsigma: singlet\nn: 2\nm: 3\n",
         "need 1 <= m <= n, got m=3, n=2"),
        # past the check: a passing report that never read expect_catalytic, exit 0
        ("pure-rate", "source: 0.5,0.5\ntarget: 1\nexpect_catalytic: true\n",
         "expect_catalytic needs a catalyst key"),
    ],
    ids=["synth-mixed-rho", "reduce-m-past-n", "expect-catalytic-alone"],
)
def test_scenario_outside_its_command_domain_exits_2(command, text, message, tmp_path, capsys):
    scn = _write(tmp_path, "s.scn", text)
    out = tmp_path / "r.json"
    assert cli.main([command, "--scenario", scn, "--out", str(out)]) == 2
    assert f"catent: error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_state_file_exits_1(bad, tmp_path, capsys):
    # a well-formed document whose matrix is not a state: a domain error
    doc = state_to_dict(singlet())
    doc["matrix"]["entries"][1][0] = bad
    path = _write(tmp_path, "psi.json", json.dumps(doc))
    scn = _write(tmp_path, "b.scn", f"command: bounds\nstate: file:{path}\nbudget: 6\n")
    assert cli.main(["bounds", "--scenario", scn]) == 1
    assert "catent: failed" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_state_entry_named_with_no_warning(bad, tmp_path):
    # an infinite diagonal entry made numpy print a RuntimeWarning, and
    # the error named an asymmetry of nan; run in a child to see its stderr
    doc = state_to_dict(singlet())
    doc["matrix"]["entries"][5][0] = bad
    path = _write(tmp_path, "psi.json", json.dumps(doc))
    proc = _run_limited(tmp_path, "bounds", f"state: file:{path}\nbudget: 6\n", 1024, 60)
    assert proc.returncode == 1, proc.stderr
    assert "Warning" not in proc.stderr, proc.stderr
    assert f"matrix entry (1, 1) is not finite: ({bad}+0j)" in proc.stderr, proc.stderr


def test_spectrum_past_the_float_range_exits_1_with_no_warning(tmp_path):
    # the sum of the weights overflowed: numpy printed a RuntimeWarning first
    proc = _run_limited(tmp_path, "pure-rate", "source: 1e308,1e308\ntarget: 0.5,0.5\n", 1024, 60)
    assert proc.returncode == 1, proc.stderr
    assert "Warning" not in proc.stderr, proc.stderr
    assert "Schmidt probabilities must have positive finite sum" in proc.stderr, proc.stderr


# ---------------------------------------------------------------------------
# plot series extraction


def test_plotdata_distill_csv(tmp_path):
    scn = _write(
        tmp_path,
        "d.scn",
        "command: distill\nf_initial: 0.8\nf_target: 0.85\nsweep_points: 4\n",
    )
    rep = str(tmp_path / "d.json")
    csv = str(tmp_path / "d.csv")
    assert cli.main(["distill", "--scenario", scn, "--out", rep]) == 0
    assert cli.main(["plotdata", "--report", rep, "--kind", "distill", "--out", csv]) == 0
    lines = open(csv).read().splitlines()
    assert lines[0] == "F_in,F_out,p,expected_copies"
    assert len(lines) == 5
    sweep = json.load(open(rep))["results"]["sweep"]
    first = [float(x) for x in lines[1].split(",")]
    assert first == [sweep[0][k] for k in ("F_in", "F_out", "p", "expected_copies")]


def test_plotdata_decoupling_csv(tmp_path, capsys):
    scn = _write(tmp_path, "l.scn", "command: verify-lemma1\nsamples: 4\n")
    rep = str(tmp_path / "l.json")
    assert cli.main(["verify-lemma1", "--scenario", scn, "--out", rep]) == 0
    assert cli.main(["plotdata", "--report", rep, "--kind", "decoupling"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "eps,lhs,rhs" and len(lines) == 5


def test_plotdata_missing_series_exits_2(tmp_path):
    scn = _write(tmp_path, "p.scn", "command: pure-rate\nsource: 0.5,0.5\ntarget: 0.5,0.5\n")
    rep = str(tmp_path / "p.json")
    assert cli.main(["pure-rate", "--scenario", scn, "--out", rep]) == 0
    assert cli.main(["plotdata", "--report", rep, "--kind", "distill"]) == 2
    assert cli.main(["plotdata", "--report", rep, "--kind", "waterfall"]) == 2


@pytest.mark.parametrize(
    "kind,doc",
    [
        ("distill", [1, 2]),
        ("distill", {"results": [1]}),
        ("distill", {"results": {"sweep": [{"F_in": 1}]}}),
        ("distill", {"results": {"sweep": [1]}}),
        ("decoupling", {"results": {"scatter": 5}}),
        ("decoupling", {"results": {"scatter": [[1, "x"]]}}),
        ("decoupling", {"results": {"scatter": [[1, 2]]}}),
        ("decoupling", {"results": {"scatter": ["123"]}}),
    ],
)
def test_plotdata_malformed_report_exits_2(tmp_path, capsys, kind, doc):
    rep = _write(tmp_path, "r.json", json.dumps(doc))
    assert cli.main(["plotdata", "--report", rep, "--kind", kind]) == 2
    err = capsys.readouterr().err
    assert err.startswith("catent: error: malformed report document") and err.count("\n") == 1


_DEEP = "[" * 10**5 + "]" * 10**5


@pytest.mark.parametrize(
    "argv,doc",
    [
        (["bounds"], '{"format": "catent-state-v1", "factors": %s}' % _DEEP),
        (["catalyze"], '{"format": "catent-protocol-v2", "steps": %s}' % _DEEP),
        (["plotdata", "--kind", "distill", "--report"], _DEEP),
    ],
    ids=["state", "protocol", "report"],
)
def test_documents_nested_past_json_depth_exit_2(tmp_path, capsys, argv, doc):
    path = _write(tmp_path, "deep.json", doc)
    if argv[0] == "bounds":
        argv = [*argv, "--scenario", _write(tmp_path, "s.scn", f"state: file:{path}\n")]
    elif argv[0] == "catalyze":
        text = f"rho: singlet\nn: 2\nprotocol: file:{path}\n"
        argv = [*argv, "--scenario", _write(tmp_path, "s.scn", text)]
    else:
        argv = [*argv, path]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"catent: error: document {path} is nested too deeply to read\n"


@pytest.mark.parametrize("kind", ["distill", "decoupling", "waterfall"])
def test_emit_plotdata_requires_series(kind):
    with pytest.raises(MissingSeriesError):
        cli.emit_plotdata({"results": {}}, kind)


# ---------------------------------------------------------------------------
# inputs that must stop before allocating or looping (run in a child process,
# so an implementation that allocates or loops fails the test instead of
# taking the suite down)

_SRC = os.path.dirname(os.path.dirname(catent.__file__))


def _run_limited(tmp_path, command, text, address_space_mb, timeout_s):
    def limit():
        cap = address_space_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    scn = _write(tmp_path, f"{command}.scn", text)
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-m", "catent.cli", command, "--scenario", scn],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout_s,
        preexec_fn=limit,
    )


@pytest.mark.parametrize("copies", [7, 10**9])
def test_synth_catalyst_copies_past_cap_exits_1(tmp_path, copies):
    # iterate_reuse builds no product of the reused copies, but keeps the cap
    # such a product would have as its bound: 7 copies of a 4-dim pair would be
    # 16384-dim, 4 GiB as a dense matrix.  10**9 copies must neither loop
    # nor build the integer 4**(10**9) to find that out.
    proc = _run_limited(
        tmp_path,
        "synth-catalyst",
        f"rho: pure:0.5,0.5\nsigma: pure:0.75,0.25\nn: 2\ncopies: {copies}\n",
        address_space_mb=512,
        timeout_s=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("catent: failed:"), proc.stderr
    assert f"{copies} copies of dimension 4 exceed cap 4096" in proc.stderr


def test_verify_lemma1_aux_dim_past_cap_exits_1(tmp_path):
    # a 400000-dim Ginibre sample would need terabytes: the cap must come first
    proc = _run_limited(
        tmp_path,
        "verify-lemma1",
        "aux_dim: 100000\nsamples: 1\n",
        address_space_mb=1024,
        timeout_s=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("catent: failed:"), proc.stderr
    assert "layout dimension 400000 exceeds cap 4096" in proc.stderr


@pytest.mark.parametrize(
    "command,text",
    [
        ("catalyze", "rho: singlet\nn: 1000000\n"),
        ("reduce", "rho: singlet\nsigma: singlet\nn: 1000000\nm: 1\n"),
        ("synth-catalyst", "rho: pure:0.5,0.5\nsigma: pure:0.75,0.25\nn: 1000000\n"),
    ],
    ids=["catalyze", "reduce", "synth-catalyst"],
)
def test_copies_past_cap_refused_before_any_layout(tmp_path, command, text):
    # a layout of 2n factors costs time quadratic in n (minutes at n = 10**6),
    # and the synthesized spectra 2**n entries: the cap must come first
    proc = _run_limited(tmp_path, command, text, address_space_mb=1024, timeout_s=20)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("catent: failed:"), proc.stderr
    assert "1000000 copies of dimension 4 exceed cap 4096" in proc.stderr


@pytest.mark.parametrize(
    "command,text",
    [
        ("distill", "f_initial: 0.75\nf_target: 0.9\nsweep_points: 100000000\n"),
        ("superadd", "samples: 1000000000\n"),
        ("verify-lemma1", "samples: 1000000000\n"),
        ("verify-lemma1", "aux_dim: 1024\nsamples: 1\n"),
        ("bounds", "state: werner:0.8\nbudget: 1000000000\n"),
        ("bounds", "state: werner:0.8\nbudget: 2000\nmax_ext_dim: 2000\n"),
    ],
    ids=["distill-sweep", "superadd", "lemma1-samples", "lemma1-aux", "bounds", "bounds-ext"],
)
def test_counts_past_their_work_budget_exit_1(tmp_path, command, text):
    # each would run for hours, or build its report past the memory limit;
    # one 4096-dim lemma1 sample alone would take about a minute, and search
    # rounds at max_ext_dim 2000 would pass DIM_CAP
    proc = _run_limited(tmp_path, command, text, address_space_mb=1024, timeout_s=15)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("catent: failed:"), proc.stderr
    assert "the budget is" in proc.stderr


_TERMS_65 = ",".join(["1"] * 65)


@pytest.mark.parametrize(
    "command,text,dim",
    [
        ("catalyze", f"rho: pure:{_TERMS_65}\nn: 2\n", "layout dimension 4225"),
        ("reduce", f"rho: pure:{_TERMS_65}\nsigma: singlet\nn: 2\nm: 1\n",
         "layout dimension 4225"),
        ("synth-catalyst", f"rho: pure:{_TERMS_65}\nsigma: singlet\nn: 2\n",
         "layout dimension 4225"),
        ("pure-rate", "source: 0.5,0.5\ntarget: 1\ncatalyst: " + ",".join(["1"] * 2049) + "\n",
         "spectrum product length 4098"),
    ],
    ids=["catalyze", "reduce", "synth-catalyst", "pure-rate-catalyst"],
)
def test_spectra_past_cap_exit_1_before_allocating(tmp_path, capsys, command, text, dim):
    # a 65-term spectrum is a 4225-dim pure state, and a product spectrum
    # past 4096 terms the spectrum of a reduced state past the cap
    scn = _write(tmp_path, "s.scn", f"command: {command}\n{text}")
    t0 = time.perf_counter()
    assert cli.main([command, "--scenario", scn]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert f"{dim} exceeds cap 4096" in capsys.readouterr().err


@pytest.mark.parametrize("terms", [65, 10**4])
def test_pure_rate_answers_from_the_source_spectrum(tmp_path, terms):
    # a pure source's rate is its spectrum's entropy over the target's, so
    # no state is built and the source is not held to the state cap (65
    # terms would be a 4225-dim state)
    source = ",".join(["1"] * terms)
    scn = _write(tmp_path, "s.scn", f"command: pure-rate\nsource: {source}\ntarget: 0.5,0.5\n")
    out = str(tmp_path / "r.json")
    t0 = time.perf_counter()
    assert cli.main(["pure-rate", "--scenario", scn, "--out", out]) == 0
    assert time.perf_counter() - t0 < 1.0
    with open(out) as fh:
        rate = json.load(fh)["results"]["rate"]
    assert rate["lower"] == rate["upper"]
    assert abs(rate["upper"] - math.log2(terms)) < 1e-12


_TIMED_MAIN = """
import sys, time
from catent import cli
t0 = time.perf_counter()
code = cli.main(sys.argv[1:])
print(f"seconds: {time.perf_counter() - t0:.3f}", file=sys.stderr)
sys.exit(code)
"""


def _run_timed(tmp_path, command, text, address_space_mb=1024, timeout_s=60):
    """``cli.main`` in a child under an address-space limit; returns the
    process and the seconds ``main`` took, interpreter start excluded.

    The child runs one BLAS thread: spinning OpenBLAS threads on a loaded
    box took a 0.04 s refusal past 1.3 s."""
    def limit():
        cap = address_space_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    scn = _write(tmp_path, f"{command}.scn", text)
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, command, "--scenario", scn],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC, OPENBLAS_NUM_THREADS="1"),
        timeout=timeout_s,
        preexec_fn=limit,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    seconds = float(proc.stderr.strip().splitlines()[-1].removeprefix("seconds: "))
    return proc, seconds


@pytest.mark.parametrize(
    "command,text,outcomes,dim",
    [
        ("catalyze", "rho: pure:0.5,0.3,0.2\nsigma: pure:0.6,0.3,0.1\nprotocol: synth\nn: 3\n",
         32768, 27),
        ("reduce", "rho: pure:0.5,0.5\nsigma: pure:0.75,0.25\nprotocol: synth\nn: 5\nm: 1\n",
         32768, 32),
        ("synth-catalyst", "rho: pure:0.5,0.5\nsigma: pure:0.75,0.25\nn: 5\n", 32768, 32),
    ],
    ids=["catalyze-n3", "reduce-n5", "synth-catalyst-n5"],
)
def test_synthesis_past_the_entry_cap_exits_1_before_allocating(tmp_path, command, text,
                                                                outcomes, dim):
    # the mixing chain doubles its branches each step: these ran out of
    # memory at 2**22 and 2**23 branches (864 MiB and 2 GiB of index rows)
    proc, seconds = _run_timed(tmp_path, command, text)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("catent: failed:"), proc.stderr
    assert f"synthesis of {outcomes} outcomes of dimension {dim} exceeds" in proc.stderr
    assert seconds < 1.0


@pytest.mark.parametrize("dims,width", [((8, 16), 128), ((8, 9), 72)])
def test_squashed_flag_extension_past_cap_exits_1(tmp_path, dims, width):
    # a full-rank state's eigenvector flags extend it by its rank: at 128
    # dims that is a 16384-dim extension, 4 GiB as a matrix; at 72 dims the
    # 5184-dim extension ran for 17 s, past the cap
    from catent.qstate import SystemLayout, random_state

    state = random_state(SystemLayout([(0, dims[0]), (1, dims[1])]), "ginibre_mixed", seed=1)
    path = str(tmp_path / "state.json")
    save_state(state, path)
    proc, seconds = _run_timed(tmp_path, "bounds", f"state: file:{path}\nbudget: 0\n")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("catent: failed:"), proc.stderr
    assert f"extension dimension {width * width} ({width} x {width}) exceeds cap 4096" in proc.stderr
    assert seconds < 1.0


_PURE_1 = {
    "catalyze": "rho: pure:1\n",
    "reduce": "rho: pure:1\nsigma: pure:1\nm: 1\n",
    "synth-catalyst": "rho: pure:1\nsigma: pure:1\n",
}


@pytest.mark.parametrize(
    "command,n",
    [(c, n) for c in _PURE_1 for n in (17, 40, 10**30)] + [("catalyze", 16)],
)
def test_copies_past_the_factor_limit_exit_1(tmp_path, command, n):
    # one-dimensional copies stay within DIM_CAP at any n, but each adds two
    # factors, and numpy holds at most 64 axes, two a factor: 17 copies (or
    # the catalyst of 16 beside its register) pass the 32-factor limit
    proc, seconds = _run_timed(tmp_path, command, f"{_PURE_1[command]}n: {n}\n")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("catent: failed:") and "32 factors" in proc.stderr
    assert seconds < 1.0


def test_reduce_at_the_factor_limit_runs(tmp_path):
    proc, _ = _run_timed(tmp_path, "reduce", f"{_PURE_1['reduce']}n: 16\n")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "factors,want",
    [([[0, 65], [1, 65]], "layout dimension 4225 exceeds cap 4096"),
     ([[0, 1]] * 33, "layout has more than 32 factors")],
    ids=["dimension", "factors"],
)
def test_state_document_past_a_limit_exits_1(tmp_path, capsys, factors, want):
    # a document past a limit is refused like any other state past it
    doc = {**state_to_dict(singlet()), "factors": factors}
    path = _write(tmp_path, "big.json", json.dumps(doc))
    scn = _write(tmp_path, "s.scn", f"state: file:{path}\n")
    assert cli.main(["bounds", "--scenario", scn]) == 1
    assert capsys.readouterr().err == f"catent: failed: {want}\n"


def test_catalyze_copies_past_cap_raise_the_cap_error():
    # the joint dimension 4**100000 * 100000 must not be built as an integer
    with pytest.raises(DimensionCapError, match="100000 copies of dimension 4 .*exceed cap 4096"):
        cli.run({"command": "catalyze", "rho": "singlet", "n": "100000"})


def test_synth_catalyst_builds_no_product_of_the_copies():
    # the six reused copies would form one 4096-dim state, 268 MB as a matrix
    scen = {"command": "synth-catalyst", "rho": "pure:0.5,0.5", "sigma": "pure:0.75,0.25",
            "copies": "6"}
    tracemalloc.start()
    try:
        rep = cli.run(scen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["passed"] and len(rep["results"]["per_marginal_errors"]) == 6
    assert peak < 100 * 2**20


def test_distill_monte_carlo_past_budget_exits_1(tmp_path):
    # one sample of 0.51 -> 0.99 would simulate about 2.3e13 copies
    proc = _run_limited(
        tmp_path,
        "distill",
        "f_initial: 0.51\nf_target: 0.99\nmc_samples: 1\n",
        address_space_mb=512,
        timeout_s=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("catent: failed:"), proc.stderr
    assert "budget" in proc.stderr
