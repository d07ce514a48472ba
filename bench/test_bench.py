"""Tests of the benchmark's own checks, reference estimators and spans.

    python3 -m pytest -q bench/test_bench.py

Every check must accept the package's output and reject a slightly wrong
one; the reference estimators must reproduce a cohort worked by hand.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import pafmsm  # noqa: E402
import pafmsm.cli  # noqa: E402,F401
import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def arrays(cohort, keep_censored=True):
    return workloads._subject_arrays(cohort, keep_censored)


@pytest.fixture(scope="module")
def cohort():
    return pafmsm.simulate_cohort(pafmsm.icu_like_spec(), 300, seed=5)


@pytest.fixture(scope="module")
def integer_cohort():
    drawn = pafmsm.simulate_cohort(pafmsm.icu_like_spec(round_days=True), 400, seed=6)
    return pafmsm.Cohort(tuple(s for s in drawn.subjects if s.end_status != "censored"))


def test_reference_reproduces_the_two_patient_cohort():
    # A: never exposed, dies on day 1.  B: exposed on day 1, dies on day 2.
    inf, end = np.array([np.nan, 1.0]), np.array([1.0, 2.0])
    status = np.array([reference.DEATH, reference.DEATH])
    assert reference.paf("paf_o", inf, end, status, np.array([2.0]))[0] == 0.0
    assert reference.paf("paf_c", inf, end, status, np.array([2.0]))[0] == 0.5


@pytest.mark.parametrize("estimand, other", [("paf_o", "paf_c"), ("paf_c", "paf_o")])
def test_paf_check_accepts_the_estimate_and_rejects_the_other_estimand(cohort, estimand, other):
    inf, end, status = arrays(cohort)
    grid = np.arange(1.0, 101.0)
    right = pafmsm.estimate_paf(cohort, estimand)(grid)
    checks.paf_matches_reference("paf", estimand, grid, right, inf, end, status, 1e-12)
    wrong = pafmsm.estimate_paf(cohort, other)(grid)
    with pytest.raises(CheckFailed):
        checks.paf_matches_reference("paf", estimand, grid, wrong, inf, end, status, 1e-12)


def test_band_check_rejects_a_band_shifted_by_1e_6(cohort):
    inf, end, status = arrays(cohort)
    grid = np.array([7.0, 14.0, 28.0])
    bands = pafmsm.bootstrap_ci(cohort, "paf_c", B=40, seed=3, grid=grid)
    lo, hi = bands.lower.values, bands.upper.values
    checks.band_matches_reference("band", "paf_c", lo, hi, inf, end, status, grid, 40, 3, 1e-10)
    with pytest.raises(CheckFailed):
        checks.band_matches_reference("band", "paf_c", lo + 1e-6, hi, inf, end, status,
                                      grid, 40, 3, 1e-10)
    with pytest.raises(CheckFailed):  # another seed's streams
        checks.band_matches_reference("band", "paf_c", lo, hi, inf, end, status, grid, 40, 4, 1e-10)


def test_ipw_band_matches_the_aalen_johansen_reference(integer_cohort):
    inf, end, status = arrays(integer_cohort)
    bands = pafmsm.bootstrap_ci(integer_cohort, "paf_c", "ipw", B=20, seed=8)
    grid = np.arange(1.0, np.ceil(integer_cohort.horizon) + 1.0)
    checks.band_matches_reference("ipw band", "paf_c", bands.lower.values, bands.upper.values,
                                  inf, end, status, grid, 20, 8, 1e-9)


def _cox_rows(cohort):
    inf, end, status = arrays(cohort)
    exposed = ~np.isnan(inf)
    e = np.nonzero(exposed)[0]
    start = np.concatenate([np.zeros(end.size), inf[e]])
    stop = np.concatenate([np.where(exposed, inf, end), end[e]])
    x = np.concatenate([np.zeros(end.size), np.ones(e.size)])
    death = status == reference.DEATH
    return start, stop, np.concatenate([death & ~exposed, death[e]]), x


def test_cox_check_rejects_a_perturbed_beta_or_se():
    cohort = pafmsm.simulate_cohort(pafmsm.icu_like_spec(), 3000, seed=9)
    fit = pafmsm.fit_cox_td(pafmsm.to_transitions(cohort), "death")
    start, stop, event, x = _cox_rows(cohort)
    beta, se = fit.coefficients, fit.standard_errors
    checks.cox_at_root("cox", start, stop, event, x, beta, se)
    with pytest.raises(CheckFailed):
        checks.cox_at_root("cox", start, stop, event, x, beta + 1e-4 * se, se)
    with pytest.raises(CheckFailed):
        checks.cox_at_root("cox", start, stop, event, x, beta, se * (1 + 1e-6))


def _oracle_table(spec, grid):
    oc = pafmsm.analytic_curves(spec, grid)
    curves = oc.as_dict()
    header = ["t"] + list(curves)
    return header, np.column_stack([oc.grid] + [c.values for c in curves.values()])


def test_oracle_check_rejects_a_swapped_or_shifted_curve():
    spec = pafmsm.icu_like_spec(tau=30.0)
    table_spec = workloads._icu_spec_table(spec.to_json())
    header, table = _oracle_table(spec, np.arange(0.0, 31.0))
    checks.oracle_matches_exact(header, table, table_spec)
    swapped = table.copy()
    col = {name: j for j, name in enumerate(header)}
    swapped[:, [col["p03"], col["p030"]]] = swapped[:, [col["p030"], col["p03"]]]
    with pytest.raises(CheckFailed):
        checks.oracle_matches_exact(header, swapped, table_spec)
    shifted = table.copy()
    shifted[:, col["p00"]] += 1e-5
    with pytest.raises(CheckFailed):
        checks.oracle_matches_exact(header, shifted, table_spec)


def test_occupation_check_rejects_a_rescaled_state(cohort):
    occ = pafmsm.aalen_johansen_extended(pafmsm.to_transitions(cohort))
    table = np.column_stack([c.values for c in occ.as_tuple()])
    checks.occupation_sums_to_one(table)
    table[:, 3] *= 1 + 1e-9
    with pytest.raises(CheckFailed):
        checks.occupation_sums_to_one(table)


def test_model_truth_tolerance_separates_the_two_estimands():
    days = np.arange(1.0, 101.0)
    truth = reference.constant_hazard_curves(*workloads.REGISTRY_RATES, days)
    with pytest.raises(CheckFailed):
        checks.close("truth", truth["paf_o"], truth["paf_c"], 0.06)


def test_constant_hazard_truth_matches_the_quadrature_oracle():
    days = np.arange(0.0, 101.0)
    spec = pafmsm.HazardSpec.constant(*workloads.REGISTRY_RATES, tau=100.0)
    oc = pafmsm.analytic_curves(spec, days).as_dict()
    truth = reference.constant_hazard_curves(*workloads.REGISTRY_RATES, days)
    for name in ("p00", "p01", "p02", "p03", "p04", "p05", "p030", "overall_death", "cpf"):
        checks.close(name, oc[name].values, truth[name], 1e-5)


def test_snap_times_reads_a_step_curve_at_its_own_jumps(cohort):
    inf, end, status = arrays(cohort)
    curve = pafmsm.estimate_paf(cohort, "paf_c")
    printed = np.array([float(format(t, ".12g")) for t in curve.times])
    snapped = checks.snap_times(printed, inf, end)
    np.testing.assert_array_equal(snapped, curve.times)
    with pytest.raises(CheckFailed):
        checks.snap_times(printed + 1e-3, inf, end)


def test_spans_add_up_and_hooks_restore_the_package(cohort, tmp_path):
    original = pafmsm.paf.to_transitions
    recorder = spans.SpanRecorder(workloads.COUNTERS)
    targets = workloads.layer_targets(pafmsm)
    path = tmp_path / "c.csv"
    path.write_text(pafmsm.cohort_to_csv(cohort))
    wrap = lambda name, fn: recorder.wrap(workloads.span_name(name), fn)  # noqa: E731
    with spans.Hooks("pafmsm", targets, wrap):
        assert pafmsm.paf.to_transitions is not original
        recorder.begin_pass("pass")
        assert pafmsm.cli.run(["estimate", "--input", str(path), "--estimand", "paf_c",
                               "--out", str(tmp_path)]) == 0
        pafmsm.bootstrap_ci(cohort, "paf_o", B=3, seed=1, grid=np.array([10.0]))
        recorder.end_pass()
    assert pafmsm.paf.to_transitions is original
    assert pafmsm.cli.parse_cohort is pafmsm.cohort.parse_cohort
    self_times = recorder.self_times()[0]
    assert {"cli.estimate", "cohort.parse_cohort", "paf.estimate_paf", "curves.to_csv",
            "paf.bootstrap_ci", "continuous.cpf_unexposed"} <= set(self_times)
    assert sum(self_times.values()) == pytest.approx(recorder.pass_durations()[0], rel=1e-9)
    assert all(v >= 0 for v in self_times.values())
    assert recorder.counts[0]["paf.bootstrap_replicates"] == 3
    assert recorder.counts[0]["continuous.calls"] == 2 + 2 * 4  # estimates + 3 replicates
