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
    fit_cox_td,
    markov_test,
    parse_cohort,
    simulate_cohort,
    to_transitions,
)
from pafmsm import cox
from pafmsm.cox import _interval_arrays, _log_partial_likelihood, _risk_sums

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
    s0, s1 = _risk_sums(start, stop, w, w[:, None] * x, event_times)
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
        up = _log_partial_likelihood(start, stop, event, x, beta + h)
        down = _log_partial_likelihood(start, stop, event, x, beta - h)
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
    assert fit.log_likelihood >= _log_partial_likelihood(start, stop, event, x, np.zeros(1))


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


def test_no_events_raises():
    cohort = Cohort((Subject("A", None, 3.0, "discharge"),), horizon=3)
    with pytest.raises(DataError):
        fit_cox_td(to_transitions(cohort), "death")


def test_constant_covariate_raises_separation():
    # no exposed subjects: the exposure column carries no information
    subjects = tuple(Subject(str(i), None, float(i + 1), "death" if i % 2 else "discharge") for i in range(10))
    with pytest.raises(SeparationError):
        fit_cox_td(to_transitions(Cohort(subjects)), "death")


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
    cohort = parse_cohort("id,inf_time,end_time,end_status\nA,,1,death\nB,,1,death\n"
                          "C,,1,death\nD,,1,death\nE,1,1,discharge\n")
    fit = fit_cox_td(to_transitions(cohort), "death")
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
        for got, want in zip(_risk_sums(start, stop, w, wx, event_times),
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
