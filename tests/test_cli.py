"""End-to-end checks of the scenario runner: parsing, reports, exit codes."""

import json
import math
import os
import resource
import subprocess
import sys
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
    ],
)
def test_run_rejects_bad_scenarios(scen, message):
    with pytest.raises(ScenarioError, match=message):
        cli.run(scen)


def test_run_rejects_command_mismatch():
    with pytest.raises(ScenarioError, match="does not match"):
        cli.run({"command": "bounds", "state": "singlet"}, command="distill")


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
    ],
    ids=["state-without-matrix", "unknown-format", "state-as-protocol"],
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
    # the reused copies come back as one product: 7 copies of a 4-dim pair
    # are 16384-dim, 4 GiB as a dense matrix.  10**9 copies must neither
    # loop nor build the integer 4**(10**9) to find that out.
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
