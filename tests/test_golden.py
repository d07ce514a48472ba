"""Byte-for-byte comparison of CLI output with recorded golden files.

Two small fixed-seed cohorts are drawn, written with ``cohort_to_csv``
and run through the ``paf-msm`` subcommands; every output file must match
the copy under ``tests/golden/<cohort>/``.  The golden files were made
with an earlier release of the package, so any change in a printed
number shows here.  To record them again after an intended change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from pafmsm import Cohort, HazardSpec, Subject, cohort_to_csv, icu_like_spec, simulate_cohort
from pafmsm.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"


def _constant_cohort():
    """Constant hazards with exponential censoring; no tied times."""
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100.0, censor_rate=0.01)
    return simulate_cohort(spec, 300, seed=11)


def _daily_cohort():
    """Whole-day times with a numeric and a text covariate."""
    drawn = simulate_cohort(icu_like_spec(round_days=True), 300, seed=12)
    rng = np.random.default_rng(13)
    subjects = tuple(
        Subject(s.id, s.inf_time, s.end_time, s.end_status,
                {"x": float(rng.integers(0, 2)), "site": "ab"[int(rng.integers(0, 2))]})
        for s in drawn.subjects
    )
    return Cohort(subjects, horizon=drawn.horizon)


BOOT = ["--B", "50", "--seed", "3"]
CASES = {
    "constant": (_constant_cohort, [
        ("validate.txt", ["validate"]),
        ("summary.txt", ["summary"]),
        ("paf_o_multistate.csv", ["estimate", "--estimand", "paf_o"]),
        ("paf_c_multistate.csv", ["estimate", "--estimand", "paf_c"]),
        ("cox_death.csv", ["cox", "--outcome", "death"]),
        ("markov_death.csv", ["cox", "--outcome", "death", "--markov-test"]),
        ("paf_c_multistate_bands.csv", ["bootstrap", "--estimand", "paf_c"] + BOOT),
    ]),
    "daily": (_daily_cohort, [
        ("validate.txt", ["validate"]),
        ("summary.txt", ["summary"]),
        ("paf_o_multistate.csv", ["estimate", "--estimand", "paf_o", "--grid", "days"]),
        ("paf_c_multistate.csv", ["estimate", "--estimand", "paf_c", "--grid", "days"]),
        ("paf_o_naive.csv", ["estimate", "--estimand", "paf_o", "--estimator", "naive",
                             "--allow-drop-censored"]),
        ("paf_c_ipw.csv", ["estimate", "--estimand", "paf_c", "--estimator", "ipw",
                           "--allow-drop-censored"]),
        ("paf_c_ipw_x.csv", ["estimate", "--estimand", "paf_c", "--estimator", "ipw",
                             "--covariates", "x", "--allow-drop-censored"]),
        ("cox_death.csv", ["cox", "--outcome", "death", "--covariates", "x"]),
        ("markov_discharge.csv", ["cox", "--outcome", "discharge", "--markov-test"]),
        ("paf_c_ipw_bands.csv", ["bootstrap", "--estimand", "paf_c", "--estimator", "ipw",
                                 "--allow-drop-censored"] + BOOT),
    ]),
}


def produce(name, workdir):
    """Every golden output of one cohort: {file name: text}."""
    make, commands = CASES[name]
    workdir = Path(workdir)
    text = cohort_to_csv(make())
    path = workdir / "cohort.csv"
    path.write_text(text)
    outputs = {"cohort.csv": text}
    for filename, argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(argv + ["--input", str(path)])
        if code != 0:
            raise AssertionError(f"{' '.join(argv)} exited {code}")
        outputs[filename] = out.getvalue()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_files(name, tmp_path):
    outputs = produce(name, tmp_path)
    recorded = {p.name: p.read_text() for p in (GOLDEN / name).iterdir()}
    assert sorted(outputs) == sorted(recorded)
    differing = [f for f in sorted(outputs) if outputs[f] != recorded[f]]
    assert not differing, f"{name}: output differs from the golden copy in {differing}"


if __name__ == "__main__":
    import tempfile

    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = produce(name, tmp)
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        for filename, text in outputs.items():
            (target / filename).write_text(text)
        print(f"wrote {len(outputs)} files to {target}", file=sys.stderr)
