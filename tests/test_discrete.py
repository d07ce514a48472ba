import numpy as np
import pytest

from pafmsm import (
    Cohort,
    DataError,
    SeparationError,
    Subject,
    cif_counterfactual,
    compute_weights,
    cpf_unexposed,
    discretize,
    expand_person_days,
    fit_pooled_logistic,
    icu_like_spec,
    ipw_f01,
    naive_f01,
    nonparametric_daily_hazard,
    simulate_cohort,
    to_transitions,
)

from conftest import integer_cohort


def panel_of(*subjects, horizon=0.0):
    return discretize(Cohort(tuple(subjects), horizon=horizon))


def test_expand_person_days_stops_at_exposure():
    panel = panel_of(Subject("A", 2.0, 4.0, "death"), horizon=5)
    rec = expand_person_days(panel)
    # at risk of new exposure on days 1 and 2 only
    np.testing.assert_array_equal(rec.days, [1, 2])
    np.testing.assert_array_equal(rec.infected_today, [False, True])


def test_expand_person_days_stops_at_terminal():
    panel = panel_of(Subject("A", None, 3.0, "discharge"), horizon=5)
    rec = expand_person_days(panel)
    np.testing.assert_array_equal(rec.days, [1, 2, 3])
    assert not rec.infected_today.any()


def test_person_day_csv_header():
    panel = panel_of(Subject("A", None, 2.0, "death"), horizon=2)
    out = expand_person_days(panel).to_csv()
    assert out.splitlines()[0] == "id,day,at_risk,infected_today"


def test_naive_equals_cpf_on_integer_cohorts():
    for seed in (1, 2, 3):
        cohort = integer_cohort(seed, n=120)
        panel = discretize(cohort)
        days = np.arange(1.0, panel.n_days + 1.0)
        a = naive_f01(panel)(days)
        b = cpf_unexposed(to_transitions(cohort))(days)
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        mask = ~np.isnan(a)
        assert np.max(np.abs(a[mask] - b[mask])) < 1e-12


def test_ipw_equals_counterfactual_on_integer_cohorts():
    for seed in (4, 5, 6):
        cohort = integer_cohort(seed, n=120)
        panel = discretize(cohort)
        weights = compute_weights(panel, nonparametric_daily_hazard(panel))
        days = np.arange(1.0, panel.n_days + 1.0)
        a = ipw_f01(panel, weights)(days)
        b = cif_counterfactual(to_transitions(cohort))(days)
        assert np.nanmax(np.abs(a - b)) < 1e-12


def test_weights_sum_to_n_each_day():
    cohort = integer_cohort(7, n=150)
    panel = discretize(cohort)
    weights = compute_weights(panel, nonparametric_daily_hazard(panel))
    np.testing.assert_allclose(weights.weights.sum(axis=0), panel.n_subjects, atol=1e-9)


def test_weights_zero_after_exposure():
    panel = panel_of(Subject("A", 2.0, 5.0, "death"), Subject("B", None, 5.0, "death"), horizon=5)
    weights = compute_weights(panel, nonparametric_daily_hazard(panel))
    assert np.all(weights.weights[0, 1:] == 0.0)  # exposed on day 2


def test_ipw_diverges_from_aj_when_exposure_exhausts_the_risk_set():
    # with the last unexposed subject exposed, the self-normalized ratio
    # is forced to 1 while the product-limit estimator keeps the factor 1/2
    cohort = Cohort((Subject("A", None, 1.0, "death"), Subject("B", 1.0, 2.0, "death")), horizon=2)
    panel = discretize(cohort)
    weights = compute_weights(panel, nonparametric_daily_hazard(panel))
    assert ipw_f01(panel, weights)(2.0) == 1.0
    assert cif_counterfactual(to_transitions(cohort))(2.0) == 0.5


def test_naive_undefined_when_everyone_exposed():
    panel = panel_of(Subject("A", 1.0, 3.0, "death"), horizon=3)
    curve = naive_f01(panel)
    assert curve.undefined_from == 1.0


def test_pooled_logistic_recovers_coefficients():
    rng = np.random.default_rng(0)
    n = 20_000
    x = rng.normal(size=n)
    p = 1.0 / (1.0 + np.exp(-(-3.0 + 1.0 * x)))
    y = rng.random(n) < p

    # one person-day per subject: exposed on day 1 or out on day 1
    subjects = tuple(
        Subject(str(i), 1.0 if y[i] else None, 2.0 if y[i] else 1.0, "discharge", {"x": float(x[i])})
        for i in range(n)
    )
    panel = discretize(Cohort(subjects, horizon=2))
    rec = expand_person_days(panel, covariate_names=("x",))
    assert len(rec) == n
    model = fit_pooled_logistic(rec)
    assert model.coefficients[0] == pytest.approx(-3.0, abs=0.15)
    assert model.coefficients[1] == pytest.approx(1.0, abs=0.15)


def test_pooled_logistic_separation():
    subjects = tuple(
        Subject(str(i), 1.0 if i < 5 else None, 2.0, "discharge", {"x": 1.0 if i < 5 else 0.0})
        for i in range(10)
    )
    panel = discretize(Cohort(subjects, horizon=2))
    with pytest.raises(SeparationError):
        fit_pooled_logistic(expand_person_days(panel, covariate_names=("x",)))


def test_pooled_logistic_needs_both_outcomes():
    panel = panel_of(Subject("A", None, 2.0, "death"), Subject("B", None, 2.0, "death"), horizon=2)
    with pytest.raises(DataError, match="no exposure events"):
        fit_pooled_logistic(expand_person_days(panel))


def test_weight_table_shape_checked():
    panel = panel_of(Subject("A", None, 2.0, "death"), horizon=2)
    other = panel_of(Subject("A", None, 3.0, "death"), horizon=3)
    weights = compute_weights(other, nonparametric_daily_hazard(other))
    with pytest.raises(DataError):
        ipw_f01(panel, weights)


def test_pooled_logistic_converges_where_the_likelihood_is_flat():
    # near this fit's optimum a Newton step changes the log-likelihood
    # (about -2e3) by less than its rounding; without a relative slack the
    # step-halving rejects every step and the fit stops after 100 iterations
    drawn = simulate_cohort(icu_like_spec(round_days=True), 2000, 2)
    rng = np.random.default_rng(3)
    subjects = tuple(
        Subject(s.id, s.inf_time, s.end_time, s.end_status, {"x": float(rng.integers(0, 2))})
        for s in drawn.subjects if s.end_status != "censored"
    )
    model = fit_pooled_logistic(expand_person_days(discretize(Cohort(subjects)), ("x",)))
    assert model.iterations < 20
