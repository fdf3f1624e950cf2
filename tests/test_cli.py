"""End-to-end checks of the scenario runner: parsing, reports, exit codes."""

import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest

import catent
from catent import cli
from catent.errors import DimensionCapError, MissingSeriesError, ScenarioError
from catent.qstate import save_state, singlet, state_to_dict


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
    ],
)
def test_run_rejects_bad_scenarios(scen, message):
    with pytest.raises(ScenarioError, match=message):
        cli.run(scen)


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
    readme = open(os.path.join(os.path.dirname(_SRC), "README.md"), encoding="utf-8").read()
    assert "\n".join(rows) + "\n" in readme


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
    # the CLI builds no product of the reused copies, but keeps the product
    # cap of iterate_reuse as its bound: 7 copies of a 4-dim pair would be
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
    assert f"{copies} output copies of dimension 4 exceed cap 4096" in proc.stderr


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
    assert "random state dimension 400000 exceeds cap 4096" in proc.stderr


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
        ("catalyze", f"rho: pure:{_TERMS_65}\nn: 2\n", "pure state dimension 4225"),
        ("reduce", f"rho: pure:{_TERMS_65}\nsigma: singlet\nn: 2\nm: 1\n",
         "pure state dimension 4225"),
        ("synth-catalyst", f"rho: pure:{_TERMS_65}\nsigma: singlet\nn: 2\n",
         "pure state dimension 4225"),
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
    process and the seconds ``main`` took, interpreter start excluded."""
    def limit():
        cap = address_space_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    scn = _write(tmp_path, f"{command}.scn", text)
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, command, "--scenario", scn],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
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
