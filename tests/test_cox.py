from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from pafmsm import (
    Cohort,
    DataError,
    HazardSpec,
    SeparationError,
    Subject,
    cohort_to_csv,
    fit_cox_td,
    markov_test,
    parse_cohort,
    simulate_cohort,
    to_transitions,
)
from pafmsm import cox
from pafmsm.cli import run
from pafmsm.cohort import STATUS_DEATH, STATUS_DISCHARGE
from pafmsm.cox import _RiskSets, _interval_arrays, _interval_likelihood
from pafmsm.simulate import icu_like_spec

GOLDEN = Path(__file__).resolve().parent / "golden"


def reference_risk_sums(start, stop, w, wx, event_times):
    """Sums of w and w*x over the risk sets {start < t <= stop}, sorting
    both keys on every call."""
    order_stop = np.argsort(stop)
    order_start = np.argsort(start)
    stop_sorted = stop[order_stop]
    start_sorted = start[order_start]

    def tail(values, order, keys, side_keys):
        acc = np.cumsum(values[order][::-1].astype(np.longdouble), axis=0)[::-1]
        cum = np.concatenate([acc, np.zeros((1,) + values.shape[1:], dtype=np.longdouble)])
        pos = np.searchsorted(keys, side_keys, side="left")
        return cum[pos]

    s0 = tail(w[:, None], order_stop, stop_sorted, event_times)[:, 0] - tail(
        w[:, None], order_start, start_sorted, event_times
    )[:, 0]
    s1 = tail(wx, order_stop, stop_sorted, event_times) - tail(
        wx, order_start, start_sorted, event_times
    )
    return s0.astype(float), s1.astype(float)


class ReferenceRiskSets:
    """The fit's risk-set sums by ``reference_risk_sums``: a sort per sum."""

    def __init__(self, start, stop, event_times):
        self.start, self.stop, self.event_times = start, stop, event_times

    def sums(self, values):
        return reference_risk_sums(self.start, self.stop, values[:, 0], values, self.event_times)[1]


def fit_bytes(fit):
    return (fit.coefficients.tobytes(), fit.standard_errors.tobytes(),
            repr(fit.log_likelihood), fit.iterations, fit.n_events)


def small_cohort(seed, n=30):
    spec = HazardSpec.constant(0.1, 0.08, 0.05, 0.09, 0.07, tau=30.0)
    return simulate_cohort(spec, n, seed)


def _analytic_score(start, stop, event, x, beta):
    event_times, inverse = np.unique(stop[event], return_inverse=True)
    d = np.bincount(inverse).astype(float)
    w = np.exp(x @ beta)
    risk = _RiskSets(start, stop, event_times)
    s0, s1 = risk.sums(w[:, None])[:, 0], risk.sums(w[:, None] * x)
    return x[event].sum(axis=0) - (d[:, None] * (s1 / s0[:, None])).sum(axis=0)


def test_score_matches_finite_differences():
    rng = np.random.default_rng(0)
    h = 1e-6
    for k in range(20):
        records = to_transitions(small_cohort(100 + k))
        start, stop, to_state, x = _interval_arrays(records, ())
        event = np.isin(to_state, (3, 5))
        if event.sum() == 0:
            continue
        beta = rng.normal(0.0, 0.5, 1)
        loglik = _interval_likelihood(start, stop, event, x)
        up, down = loglik(beta + h)[0], loglik(beta - h)[0]
        grad = (up - down) / (2 * h)
        score = _analytic_score(start, stop, event, x, beta)[0]
        assert abs(grad - score) / max(1.0, abs(score)) < 1e-6


def test_null_effect_recovered():
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.02, tau=100.0)
    records = to_transitions(simulate_cohort(spec, 20_000, seed=5))
    fit = fit_cox_td(records, "death")
    assert abs(fit.coefficients[0]) < 3 * fit.standard_errors[0]
    assert fit.hazard_ratios[0] == pytest.approx(np.exp(fit.coefficients[0]))
    assert fit.ci_lower[0] > 0


def test_protective_discharge_effect_detected():
    # discharge hazard halves after exposure
    spec = HazardSpec.constant(0.06, 0.1, 0.02, 0.05, 0.02, tau=100.0)
    records = to_transitions(simulate_cohort(spec, 20_000, seed=8))
    fit = fit_cox_td(records, "discharge")
    assert fit.coefficients[0] == pytest.approx(np.log(0.5), abs=3 * fit.standard_errors[0])


def test_markov_null():
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.02, tau=100.0)
    records = to_transitions(simulate_cohort(spec, 20_000, seed=5))
    fit = markov_test(records, "death_after")
    assert abs(fit.coefficients[0]) < 3 * fit.standard_errors[0]
    assert fit.p_values[0] > 0.05


def test_markov_violation_recovered():
    spec = HazardSpec.constant(0.08, 0.05, 0.02, 0.03, 0.02, gamma=0.5, tau=30.0)
    records = to_transitions(simulate_cohort(spec, 20_000, seed=6))
    fit = markov_test(records, "death_after")
    assert fit.coefficients[0] == pytest.approx(0.5, abs=3 * fit.standard_errors[0])


def test_loglik_nondecreasing_over_newton_steps():
    records = to_transitions(small_cohort(7, n=200))
    start, stop, to_state, x = _interval_arrays(records, ())
    event = np.isin(to_state, (3, 5))
    fit = fit_cox_td(records, "death")
    # refitting from zero, the converged log-likelihood dominates the start
    assert fit.log_likelihood >= _interval_likelihood(start, stop, event, x)(np.zeros(1))[0]


def test_time_scaling_leaves_beta_unchanged():
    cohort = small_cohort(3, n=200)
    b1 = fit_cox_td(to_transitions(cohort), "death").coefficients[0]
    scaled = Cohort(
        tuple(
            Subject(s.id, None if s.inf_time is None else s.inf_time * 3.7, s.end_time * 3.7, s.end_status)
            for s in cohort.subjects
        )
    )
    b2 = fit_cox_td(to_transitions(scaled), "death").coefficients[0]
    assert abs(b1 - b2) < 1e-10


@pytest.fixture
def count_route(monkeypatch):
    """Fails any fit that builds risk intervals: the exposure-only fit reads counts."""
    def refuse(*args):
        raise AssertionError("the exposure-only fit built risk intervals")

    monkeypatch.setattr(cox, "_interval_arrays", refuse)


def interval_route_fit(cohort, outcome):
    """The exposure-only fit by the interval engine that fits with covariates
    use; it calls this module's ``_interval_arrays``, which ``count_route``
    leaves alone."""
    start, stop, to_state, x = _interval_arrays(cohort, ())
    event = np.isin(to_state, cox._OUTCOME_STATES[outcome])
    return cox._fit(outcome, ("exposure",), _interval_likelihood(start, stop, event, x), int(event.sum()))


def tie_shifted_cohort():
    """A whole-day cohort where every third exposed subject is exposed at its end time."""
    lines = cohort_to_csv(simulate_cohort(icu_like_spec(round_days=True), 2_000, seed=4)).splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows[::3]:
        if row[1]:
            row[1] = row[2]
    cohort = parse_cohort("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")
    assert cohort.diagnostics  # the parser shifted the ties
    return cohort


def underflow_cohort():
    """10 000 unexposed subjects discharged at t = 100, an unexposed death at
    t = 1 before anyone is exposed, and three subjects exposed at t = 2.  At
    beta = 0 the information is tiny, so the first Newton step of the death
    fit goes past beta = 2000, where Y0(1-) e^-beta underflows to 0: that
    trial is rejected and halved."""
    n = 10_000
    return Cohort.from_columns(
        ["D0", "E1", "E2", "E3", "U2", *(f"u{i}" for i in range(n))],
        [np.nan, 2.0, 2.0, 2.0, np.nan] + [np.nan] * n, [1.0, 3.0, 50.0, 100.0, 4.0] + [100.0] * n,
        [STATUS_DEATH, STATUS_DEATH, STATUS_DISCHARGE, STATUS_DISCHARGE, STATUS_DEATH]
        + [STATUS_DISCHARGE] * n)


@pytest.mark.parametrize("make", [
    *(lambda seed=seed: simulate_cohort(icu_like_spec(), 20_000, seed) for seed in range(1, 6)),
    *(lambda seed=seed: simulate_cohort(icu_like_spec(round_days=True), 20_000, seed)
      for seed in range(1, 4)),
    tie_shifted_cohort, underflow_cohort,
], ids=[*(f"icu-{s}" for s in range(1, 6)), *(f"icu-days-{s}" for s in range(1, 4)), "tie-shifted",
        "underflowed-risk-set"])
def test_the_count_fit_equals_the_interval_engine(make, count_route):
    cohort = make()
    for outcome in ("death", "discharge"):
        want = interval_route_fit(cohort, outcome)
        got = fit_cox_td(cohort, outcome)
        assert got.summary_csv() == want.summary_csv()
        assert (got.iterations, got.n_events) == (want.iterations, want.n_events)
        for a, b in ((got.coefficients, want.coefficients),
                     (got.standard_errors, want.standard_errors),
                     (got.log_likelihood, want.log_likelihood)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


def test_no_events_raises(count_route):
    cohort = Cohort((Subject("A", None, 3.0, "discharge"),), horizon=3)
    with pytest.raises(DataError, match="no events of the requested type"):
        fit_cox_td(to_transitions(cohort), "death")
    with pytest.raises(DataError, match="no events of the requested type"):
        fit_cox_td(parse_cohort("id,inf_time,end_time,end_status\n"), "death")


def test_constant_covariate_raises_separation(count_route):
    # no exposed subjects: the exposure column carries no information
    subjects = tuple(Subject(str(i), None, float(i + 1), "death" if i % 2 else "discharge") for i in range(10))
    with pytest.raises(SeparationError, match="singular information matrix"):
        fit_cox_td(to_transitions(Cohort(subjects)), "death")


def test_all_events_after_exposure_raise_separation(count_route):
    # every death follows an exposure, and the unexposed outnumber the
    # exposed enough that the score stays above tolerance until |beta| > 30
    n = 1_000
    inf = np.r_[np.ones(8), np.full(n, np.nan)]
    end = np.r_[np.arange(2.0, 10.0), np.full(n, 100.0)]
    status = np.r_[np.full(8, STATUS_DEATH), np.full(n, STATUS_DISCHARGE)]
    cohort = Cohort.from_columns([str(i) for i in range(n + 8)], inf, end, status)
    with pytest.raises(SeparationError, match="Cox coefficients diverged .* driven by 'exposure'"):
        fit_cox_td(cohort, "death")


@pytest.mark.parametrize("exposed_die", [True, False], ids=["beta-to-inf", "beta-to-minus-inf"])
def test_a_monotone_count_likelihood_raises_separation(count_route, tmp_path, exposed_die):
    # 8 deaths, at t = 2..9, all after exposure at t = 1 (or all without
    # it), and 10 subjects of the other group discharged at t = 100: the
    # score keeps one sign, yet fell below the tolerance at |beta| = 21.86
    # (se 10 695) before beta passed 30
    inf = np.where(np.r_[np.full(8, exposed_die), np.full(10, not exposed_die)], 1.0, np.nan)
    end = np.r_[np.arange(2.0, 10.0), np.full(10, 100.0)]
    status = np.r_[np.full(8, STATUS_DEATH), np.full(10, STATUS_DISCHARGE)]
    cohort = Cohort.from_columns([str(i) for i in range(18)], inf, end, status)
    with pytest.raises(SeparationError, match=r"^Cox coefficients diverged .* driven by 'exposure'$"):
        fit_cox_td(cohort, "death")
    path = tmp_path / "cohort.csv"
    path.write_text(cohort_to_csv(cohort))
    assert run(["cox", "--input", str(path), "--outcome", "death"]) == 3


def test_divergent_coefficient_raises_separation():
    # a small-scale covariate that perfectly separates deaths pushes its
    # coefficient past the divergence bound
    subjects = [Subject(f"d{i}", 1.0, float(i + 2), "death", {"z": 0.01}) for i in range(8)]
    subjects += [Subject(f"c{i}", None, float(i + 2), "discharge", {"z": 0.0}) for i in range(8)]
    with pytest.raises(SeparationError, match="z"):
        fit_cox_td(to_transitions(Cohort(tuple(subjects))), "death", extra_covariates=("z",))


def test_a_flat_ridge_at_convergence_raises_separation():
    # the score vanishes where the likelihood has flattened out, and the
    # inverse information has a negative variance: no Wald test exists
    cohort = parse_cohort("id,inf_time,end_time,end_status\nA,4,4,death\nB,2,4,discharge\n"
                          "C,,1,death\nD,2,4,discharge\nE,,1,death\nF,1,1,death\n"
                          "G,1,1,discharge\n")
    with pytest.raises(SeparationError, match="not positive definite at convergence"):
        markov_test(to_transitions(cohort), "death_after")


def test_an_upper_bound_past_the_float_range_prints_as_inf():
    # a fit so flat that exp(coef + 1.96 se) passes the float range
    fit = cox.CoxFit("death", ("exposure",), np.array([-21.0]), np.array([400.0]), -5.5, 12, 4)
    assert fit.summary_csv().splitlines()[1].split(",")[5:7] == ["0", "inf"]


def test_markov_test_requires_post_exposure_rows():
    cohort = Cohort((Subject("A", None, 3.0, "death"),), horizon=3)
    with pytest.raises(DataError):
        markov_test(to_transitions(cohort), "death_after")


def test_outcome_names_validated():
    records = to_transitions(small_cohort(1))
    with pytest.raises(ValueError):
        fit_cox_td(records, "relapse")
    with pytest.raises(ValueError):
        markov_test(records, "death")


def test_summary_csv_format():
    records = to_transitions(small_cohort(2, n=200))
    out = fit_cox_td(records, "death").summary_csv()
    header, row = out.strip().splitlines()
    assert header == "outcome,term,coef,hr,se,ci_low,ci_high,p,n_events"
    assert row.startswith("death,exposure,")


def test_risk_sums_equal_the_per_call_sort():
    rng = np.random.default_rng(4)
    for n, p in ((1, 1), (50, 1), (400, 3)):
        start = rng.integers(0, 5, n).astype(float)  # tied entries and exits
        stop = start + rng.integers(1, 6, n)
        event_times = np.unique(rng.choice(stop, max(1, n // 3)))
        event_times = np.concatenate([[0.5], event_times, [stop.max() + 1]])
        w = rng.exponential(1.0, n)
        wx = w[:, None] * rng.normal(size=(n, p))
        risk = _RiskSets(start, stop, event_times)
        for got, want in zip((risk.sums(w[:, None])[:, 0], risk.sums(wx)),
                             reference_risk_sums(start, stop, w, wx, event_times)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("covariates", [(), ("x",)])
@pytest.mark.parametrize("outcome", ["death", "discharge"])
def test_fit_equals_the_per_call_sort_fit(covariates, outcome):
    records = to_transitions(parse_cohort(GOLDEN / "daily" / "cohort.csv"))
    fit = fit_cox_td(records, outcome, extra_covariates=covariates)
    markov = markov_test(records, f"{outcome}_after")
    with mock.patch.object(cox, "_RiskSets", ReferenceRiskSets):
        assert fit_bytes(fit) == fit_bytes(fit_cox_td(records, outcome, extra_covariates=covariates))
        assert fit_bytes(markov) == fit_bytes(markov_test(records, f"{outcome}_after"))
    assert fit.coefficients.size == 1 + len(covariates)
