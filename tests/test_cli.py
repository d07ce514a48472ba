import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pafmsm
from pafmsm import HazardSpec, analytic_curves, cohort_to_csv, discretize
from pafmsm.cli import run

from conftest import integer_cohort

SPEC = {
    "alpha01": 0.08,
    "alpha02": [{"until": 5, "rate": 0.12}, {"until": 40, "rate": 0.06}],
    "alpha03": 0.04,
    "alpha14": 0.05,
    "alpha15": 0.05,
    "tau": 40,
    "round_days": True,
}


@pytest.fixture
def cohort_file(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text(cohort_to_csv(integer_cohort(3, n=150)))
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


def test_validate_ok(cohort_file, capsys):
    assert run(["validate", "--input", cohort_file]) == 0
    assert "ok: n=" in capsys.readouterr().out


def test_validate_bad_row_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,inf_time,end_time,end_status\nA,9,5,death\n")
    assert run(["validate", "--input", str(bad)]) == 2
    assert "row 2" in capsys.readouterr().err


def test_summary_output(cohort_file, capsys):
    assert run(["summary", "--input", cohort_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("field,value\nn,150")


def test_summary_prints_counts_as_integers_and_person_days_without_exponent(
        cohort_file, capsys, monkeypatch):
    counts = dict(n=1_234_567, exposed=1_000_000, unexposed_deaths=99, unexposed_discharges=5,
                  unexposed_censored=0, exposed_deaths=7, exposed_discharges=123_456_789,
                  exposed_censored=1)
    summary = pafmsm.cohort.CohortSummary(**counts, person_days=11_983_140.314)
    monkeypatch.setattr(pafmsm.cli, "summarize", lambda cohort: summary)
    assert run(["summary", "--input", cohort_file]) == 0
    expected = "".join(f"{k},{v}\n" for k, v in counts.items()) + "person_days,11983140.31\n"
    assert capsys.readouterr().out == "field,value\n" + expected


def test_estimate_at_a_time_point(cohort_file, capsys):
    assert run(["estimate", "--input", cohort_file, "--estimand", "paf_o", "--at", "20"]) == 0
    float(capsys.readouterr().out)  # a single parsable number


@pytest.mark.parametrize("at", ["nan", "inf", "-inf"])
def test_estimate_at_a_non_finite_time_is_a_usage_error(cohort_file, capsys, at):
    assert run(["estimate", "--input", cohort_file, "--estimand", "paf_o", f"--at={at}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: --at must be a finite number" in captured.err


@pytest.mark.parametrize("step", ["nan", "inf", "0", "-1"])
def test_oracle_step_must_be_finite_and_positive(spec_file, capsys, step):
    assert run(["oracle", "--spec", spec_file, f"--step={step}"]) == 1
    assert "usage error: --step must be a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["shift:inf", "shift:1e400", "shift:abc"])
def test_bad_tie_policy_is_a_usage_error_naming_the_option(tmp_path, capsys, policy):
    tied = tmp_path / "tied.csv"
    tied.write_text("id,inf_time,end_time,end_status\nA,5,5,death\n")
    assert run(["validate", "--input", str(tied), "--tie-policy", policy]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: --tie-policy {policy!r}: shift epsilon") and "row" not in err


def test_estimate_curve_to_directory(cohort_file, tmp_path):
    out = tmp_path / "out"
    assert run([
        "estimate", "--input", cohort_file, "--estimand", "paf_c",
        "--grid", "days", "--out", str(out),
    ]) == 0
    text = (out / "paf_c_multistate.csv").read_text()
    assert text.splitlines()[0] == "t,value"


def test_estimate_invalid_pair_is_usage_error(cohort_file, capsys):
    code = run(["estimate", "--input", cohort_file, "--estimand", "paf_o", "--estimator", "ipw"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_input_is_data_error(capsys):
    assert run(["estimate", "--input", "nope.csv", "--estimand", "paf_o"]) == 2


@pytest.mark.parametrize("option, command", [
    ("--input", ["validate"]),
    ("--input", ["estimate", "--estimand", "paf_o"]),
    ("--spec", ["oracle"]),
    ("--spec", ["simulate", "--n", "3", "--seed", "1"]),
])
@pytest.mark.parametrize("kind", ["invalid utf-8", "directory"])
def test_unreadable_input_file_is_data_error(tmp_path, capsys, option, command, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
        message = f"data error: cannot read {option[2:]} file {path}: Is a directory\n"
    else:
        path.write_bytes(b"id,inf_time,end_time,end_status\nA,,5,d\xe9c\xe8s\n")
        message = f"data error: {option[2:]} file {path} is not UTF-8 text: 'utf-8' codec"
    assert run([command[0], option, str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


@pytest.mark.parametrize("command", [
    ["estimate", "--estimand", "paf_o"],
    ["bootstrap", "--estimand", "paf_o", "--B", "2", "--seed", "1"],
    ["cox"],
])
def test_out_naming_an_existing_file_is_a_usage_error(cohort_file, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    assert run(command + ["--input", cohort_file, "--out", str(taken)]) == 1
    assert capsys.readouterr().err == f"usage error: --out {taken}: File exists\n"
    assert taken.read_text() == "keep\n"


def test_out_is_checked_before_any_work(cohort_file, tmp_path, capsys, monkeypatch):
    def bootstrap_ci(*args, **kwargs):
        raise AssertionError("the bootstrap ran before --out was checked")

    monkeypatch.setattr(pafmsm.cli, "bootstrap_ci", bootstrap_ci)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    before = sorted(tmp_path.rglob("*"))
    for out, reason in [(taken, "File exists"), (taken / "sub", "Not a directory"),
                        (taken / "a" / "b", "Not a directory")]:
        assert run(["bootstrap", "--input", cohort_file, "--estimand", "paf_o", "--B", "500",
                    "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: --out {out}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert taken.read_text() == "keep\n"


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_bootstrap_deterministic_output(cohort_file, capsys):
    args = ["bootstrap", "--input", cohort_file, "--estimand", "paf_c",
            "--B", "30", "--seed", "5"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "t,estimate,lower,upper,defined"


def test_bootstrap_manifest_written(cohort_file, tmp_path):
    out = tmp_path / "boot"
    assert run(["bootstrap", "--input", cohort_file, "--estimand", "paf_o",
                "--B", "20", "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["B"] == 20 and manifest["seed"] == 1
    assert manifest["failed_replicates"] == 0
    assert (out / "paf_o_multistate_bands.csv").exists()


@pytest.mark.parametrize("command", [
    ["bootstrap", "--estimand", "paf_c", "--B", "20"],
    ["simulate", "--n", "10"],
])
def test_negative_seed_is_a_usage_error_naming_the_option(cohort_file, spec_file, capsys, command):
    source = ["--spec", spec_file] if command[0] == "simulate" else ["--input", cohort_file]
    assert run(command + source + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command, user", [
    (["estimate", "--estimand", "paf_c"], "--estimator multistate"),
    (["estimate", "--estimand", "paf_o", "--estimator", "naive"], "--estimator naive"),
    (["bootstrap", "--estimand", "paf_o", "--B", "20", "--seed", "1"], "--estimator multistate"),
    (["bootstrap", "--estimand", "paf_o", "--estimator", "naive", "--B", "20", "--seed", "1"],
     "--estimator naive"),
    (["cox", "--markov-test"], "--markov-test"),
])
def test_covariates_that_would_be_ignored_are_a_usage_error(cohort_file, capsys, command, user):
    assert run(command + ["--input", cohort_file, "--covariates", "zz"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: --covariates: {user} uses no covariates")


def test_cox_table(cohort_file, capsys):
    assert run(["cox", "--input", cohort_file, "--outcome", "discharge"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("outcome,term,coef,hr,se,ci_low,ci_high,p,n_events")
    assert "discharge,exposure," in out


def test_cox_markov_test(cohort_file, capsys):
    assert run(["cox", "--input", cohort_file, "--outcome", "death", "--markov-test"]) == 0
    assert "death_after,inf_time," in capsys.readouterr().out


def test_simulate_and_check_pipeline(spec_file, tmp_path, capsys):
    assert run(["simulate", "--spec", spec_file, "--n", "200", "--seed", "4"]) == 0
    csv_text = capsys.readouterr().out
    # check requires an uncensored cohort
    lines = csv_text.strip().splitlines()
    kept = [lines[0]] + [l for l in lines[1:] if not l.endswith("censored")]
    path = tmp_path / "sim.csv"
    path.write_text("\n".join(kept) + "\n")

    assert run(["check", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "all equivalences hold" in out


def test_check_rejects_non_integer_times(tmp_path, capsys):
    path = tmp_path / "frac.csv"
    path.write_text("id,inf_time,end_time,end_status\nA,,1.5,death\n")
    assert run(["check", "--input", str(path)]) == 2


def test_simulate_determinism_bytes(spec_file, capsys):
    args = ["simulate", "--spec", spec_file, "--n", "50", "--seed", "8"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_oracle_csv(spec_file, capsys):
    assert run(["oracle", "--spec", spec_file, "--step", "10"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split(",")
    assert header[0] == "t"
    for name in ("p00", "p030", "overall_death", "cpf", "paf_o", "paf_c"):
        assert name in header


def reference_oracle_csv(spec, step):
    """``oracle`` output written cell by cell, a NaN cell blank."""
    oc = analytic_curves(spec, np.arange(0.0, spec.tau + step / 2, step))
    curves = oc.as_dict()
    lines = ["t," + ",".join(curves)]
    for j, t in enumerate(oc.grid):
        values = [c.values[j] for c in curves.values()]
        cells = ["" if np.isnan(v) else format(v, ".12g") for v in values]
        lines.append(",".join([format(t, ".12g"), *cells]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("step", [10.0, 0.3, 0.007])
def test_oracle_csv_equals_the_per_cell_reference(spec_file, capsys, step):
    assert run(["oracle", "--spec", spec_file, "--step", str(step)]) == 0
    out = capsys.readouterr().out
    assert out == reference_oracle_csv(HazardSpec.from_json(json.dumps(SPEC)), step)
    assert "\n0,1,0,0,0,0,0," in out  # the PAFs are undefined at t = 0


@pytest.mark.parametrize("argv, option", [
    (["oracle", "--step", "1e-9"], "--step"),  # 4e10 grid points on [0, 40]
    (["oracle", "--step", "5e-324"], "--step"),  # more points than a float counts
    (["simulate", "--n", str(10**12), "--seed", "1"], "--n"),
    (["bootstrap", "--estimand", "paf_o", "--B", str(10**12), "--seed", "1"], "--B"),
])
def test_an_oversize_option_is_a_usage_error_before_any_work(
        spec_file, cohort_file, capsys, monkeypatch, argv, option):
    for name in ("analytic_curves", "simulate_cohort", "bootstrap_ci", "parse_cohort"):
        monkeypatch.setattr(pafmsm.cli, name, lambda *a, **k: pytest.fail("work was started"))
    source = ["--spec", spec_file] if argv[0] != "bootstrap" else ["--input", cohort_file]
    assert run([argv[0], *source, *argv[1:]]) == 1
    assert f"usage error: {option} asks for" in capsys.readouterr().err


@pytest.mark.parametrize("bound, argv, code", [
    ("_MAX_GRID_POINTS", ["oracle", "--step", "10"], 0),  # 5 points on [0, 40]
    ("_MAX_GRID_POINTS", ["oracle", "--step", "8"], 1),  # 6 points
    ("_MAX_SUBJECTS", ["simulate", "--n", "5", "--seed", "1"], 0),
    ("_MAX_SUBJECTS", ["simulate", "--n", "6", "--seed", "1"], 1),
    ("_MAX_REPLICATES", ["bootstrap", "--estimand", "paf_o", "--B", "5", "--seed", "1"], 0),
    ("_MAX_REPLICATES", ["bootstrap", "--estimand", "paf_o", "--B", "6", "--seed", "1"], 1),
])
def test_size_bounds_count_what_the_option_asks_for(
        spec_file, cohort_file, capsys, monkeypatch, bound, argv, code):
    monkeypatch.setattr(pafmsm.cli, bound, 5)
    source = ["--spec", spec_file] if argv[0] != "bootstrap" else ["--input", cohort_file]
    assert run([argv[0], *source, *argv[1:]]) == code
    out = capsys.readouterr().out
    if argv[0] == "oracle" and code == 0:
        assert len(out.splitlines()) == 1 + 5


@pytest.mark.parametrize("key, value", [
    ("tau", float("inf")), ("tau", float("nan")),
    ("censor_rate", float("nan")), ("censor_rate", float("inf")),
    ("gamma", float("nan")), ("gamma", float("-inf")),
])
@pytest.mark.parametrize("command", [["oracle"], ["simulate", "--n", "10", "--seed", "1"]])
def test_non_finite_spec_value_is_data_error(tmp_path, capsys, key, value, command):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(SPEC, **{key: value})))  # Infinity / NaN literals
    assert run([command[0], "--spec", str(path), *command[1:]]) == 2
    assert f"data error: {key} must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("until", [[1, float("nan"), 40], [1, float("inf"), float("inf")]])
@pytest.mark.parametrize("command", [["oracle"], ["simulate", "--n", "3", "--seed", "1"]])
def test_non_finite_hazard_breakpoint_is_data_error(tmp_path, capsys, until, command):
    pieces = [{"until": u, "rate": 0.1} for u in until]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(SPEC, alpha01=pieces)))  # NaN / Infinity literals
    assert run([command[0], "--spec", str(path), *command[1:]]) == 2
    assert "data error: hazard breakpoints must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("estimand, estimator", [("paf_c", "ipw"), ("paf_o", "naive")])
def test_bootstrap_jump_grid_of_a_panel_estimator_discretizes_once(
    tmp_path, capsys, monkeypatch, estimand, estimator
):
    path = tmp_path / "censored.csv"
    path.write_text(cohort_to_csv(integer_cohort(5, n=300, censored=True)))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return discretize(*args, **kwargs)

    monkeypatch.setattr(pafmsm.paf, "discretize", counting)
    outputs = {}
    for grid in ("jumps", "days"):
        args = ["bootstrap", "--input", str(path), "--estimand", estimand, "--estimator",
                estimator, "--grid", grid, "--B", "20", "--seed", "3", "--allow-drop-censored"]
        assert run(args) == 0
        outputs[grid] = capsys.readouterr().out
        assert len(calls) == 1
        calls.clear()
    assert outputs["jumps"] == outputs["days"]


NON_FINITE = "id,inf_time,end_time,end_status\np0,,5,death\np1,,inf,death\n"


def test_validate_rejects_non_finite_times(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text(NON_FINITE)
    assert run(["validate", "--input", str(path)]) == 2
    assert "row 3" in capsys.readouterr().err


def test_ipw_on_non_finite_times_is_data_error(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text(NON_FINITE)
    assert run(["estimate", "--input", str(path), "--estimand", "paf_c", "--estimator", "ipw"]) == 2
    assert "data error" in capsys.readouterr().err


def test_input_path_with_a_comma(cohort_file, tmp_path, capsys):
    path = tmp_path / "a,b" / "c.csv"
    path.parent.mkdir()
    path.write_text(Path(cohort_file).read_text())
    assert run(["validate", "--input", str(path)]) == 0
    assert "ok: n=150" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    ("5", "hazard spec must be a JSON object, got '5'"),
    ("null", "hazard spec must be a JSON object, got 'null'"),
    (json.dumps(dict(SPEC, tau=[1])), "tau must be a number, got [1]"),
    (json.dumps(dict(SPEC, gamma="abc")), "gamma must be a number, got 'abc'"),
    (json.dumps(dict(SPEC, alpha03=[{"until": "x", "rate": 0.1}])),
     "hazard pieces must hold numbers, got until ['x'] and rate [0.1]"),
], ids=["number", "null", "tau-list", "gamma-text", "until-text"])
@pytest.mark.parametrize("command", [["oracle"], ["simulate", "--n", "3", "--seed", "1"]])
def test_malformed_spec_is_data_error(tmp_path, capsys, text, message, command):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert run([command[0], "--spec", str(path), *command[1:]]) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


@pytest.mark.parametrize("estimand, estimator", [("paf_c", "ipw"), ("paf_o", "naive")])
def test_empty_cohort_is_data_error(tmp_path, capsys, estimand, estimator):
    path = tmp_path / "empty.csv"
    path.write_text("id,inf_time,end_time,end_status\n")
    args = ["estimate", "--input", str(path), "--estimand", estimand, "--estimator", estimator]
    assert run(args) == 2
    assert "data error: empty cohort" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(cohort_file):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "pafmsm", "validate", "--input", cohort_file],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok: n=150")


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert pafmsm.__version__ == tomllib.load(fh)["project"]["version"]


def test_a_value_error_inside_an_estimator_is_a_bug_not_a_usage_error(
        cohort_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(pafmsm.cli, "estimate_paf", broken)
    with pytest.raises(ValueError, match="broadcast"):
        run(["estimate", "--input", cohort_file, "--estimand", "paf_c"])
    assert "usage error" not in capsys.readouterr().err


# fuzzed cohort files: rows valid by construction, ties included (an
# exposure on the day of death or discharge), then now and then a fault
_FUZZ_VALID = {"x": ["0", "1", "1", "0.5"], "site": ["n", "s", "n,s", 'say "n"']}
_FUZZ_FAULTS = ["", " ", "nan", "inf", "-inf", "-1", "0", "text", "1e400", "death?"]


@st.composite
def fuzzed_cohort_file(draw):
    """Cohort CSV bytes with quoted cells, CR or CRLF line endings, ragged
    rows, NaN/inf, ties, text covariates and, now and then, invalid UTF-8."""
    covariates = draw(st.lists(st.sampled_from(["x", "site"]), max_size=2, unique=True))
    rows = [["id", "inf_time", "end_time", "end_status", *covariates]]
    for i in range(draw(st.integers(1, 10))):
        end = draw(st.sampled_from([1.0, 2.0, 3.0, 3.0, 4.0, 6.5]))
        inf = draw(st.sampled_from([None, None, end, 1.0, 2.0, 0.5]))
        inf = "" if inf is None or inf > end else f"{inf:g}"
        status = draw(st.sampled_from(["death", "death", "discharge", "discharge", "censored"]))
        rows.append([f"s{i}", inf, f"{end:g}", status]
                    + [draw(st.sampled_from(_FUZZ_VALID[c])) for c in covariates])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        r = draw(st.integers(1, len(rows) - 1))
        fault = draw(st.sampled_from(["cell", "cell", "short", "long", "blank", "repeat id"]))
        if not rows[r]:  # blanked by an earlier fault
            continue
        if fault == "cell":
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.sampled_from(_FUZZ_FAULTS))
        elif fault == "short":
            rows[r] = rows[r][:-1]
        elif fault == "long":
            rows[r] = rows[r] + ["1"]
        elif fault == "blank":
            rows[r] = []
        else:
            rows[r][0] = "s0"

    def cell(text):
        if any(c in text for c in ',"') or draw(st.integers(0, 9)) == 0:
            return '"' + text.replace('"', '""') + '"'
        return text

    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    data = newline.join(",".join(map(cell, r)) for r in rows) + draw(st.sampled_from([newline, ""]))
    data = data.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + data[at:]
    return data


_FUZZ_COMMANDS = [
    ["validate"],
    ["summary"],
    ["estimate", "--estimand", "paf_c"],
    ["estimate", "--estimand", "paf_o", "--estimator", "naive", "--allow-drop-censored"],
    ["estimate", "--estimand", "paf_c", "--estimator", "ipw", "--allow-drop-censored"],
    ["estimate", "--estimand", "paf_c", "--estimator", "ipw", "--covariates", "x"],
    ["bootstrap", "--estimand", "paf_c", "--B", "5", "--seed", "1"],
    ["cox"],
    ["cox", "--covariates", "x"],
    ["cox", "--markov-test"],
    ["check"],
]
_HEADER_X = "id,inf_time,end_time,end_status,x\n"


@settings(max_examples=60)
@given(fuzzed_cohort_file())
# tie-heavy edge cases: everyone exposed, nobody exposed, everyone dead on day 1
@example((_HEADER_X + "A,1,3,death,0\nB,2,2,discharge,1\nC,1,4,death,1\n").encode())
@example((_HEADER_X + "A,,3,death,0\nB,,2,discharge,1\nC,,3,death,1\n").encode())
@example((_HEADER_X + "A,,1,death,0\nB,1,1,death,1\nC,0.5,1,death,1\n").encode())
def test_every_fuzzed_cohort_file_ends_in_a_classified_exit(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "cohort.csv"
    path.write_bytes(data)
    for command in _FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command[0], "--input", str(path), *command[1:]])
        assert code in (0, 1, 2, 3), (command, code)
        assert "Traceback" not in err.getvalue()
