import json

import numpy as np
import pytest

from pafmsm import (
    Cohort,
    DataError,
    HazardSpec,
    PiecewiseHazard,
    Subject,
    StepCurve,
    analytic_curves,
    cif_counterfactual,
    cpf_unexposed,
    icu_like_spec,
    overall_death_risk,
    simulate_cohort,
    to_transitions,
)

CONST = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100.0)


def reference_brute_force(cohort):
    """The overall death risk, the unexposed death proportion and the
    counterfactual CIF of an uncensored cohort, by plain per-event loops
    (no product-integral code): an independent check on the estimators."""
    subjects = cohort.subjects
    assert all(s.end_status != "censored" for s in subjects)
    n = len(subjects)
    times = sorted({s.end_time for s in subjects} | {s.inf_time for s in subjects if s.exposed})
    times = np.array(times, dtype=float)

    death = np.array([
        sum(1 for s in subjects if s.end_status == "death" and s.end_time <= t) / n for t in times
    ])

    cpf_vals, cpf_undef = [], None
    for t in times:
        unexposed = [s for s in subjects if not s.exposed or s.inf_time > t]
        dead = sum(1 for s in unexposed if not s.exposed and s.end_status == "death" and s.end_time <= t)
        if unexposed:
            cpf_vals.append(dead / len(unexposed))
        else:
            cpf_vals.append(float("nan"))
            if cpf_undef is None:
                cpf_undef = float(t)

    # censor-at-exposure Kaplan-Meier CIF of death, events before censorings
    obs = [(s.inf_time if s.exposed else s.end_time, None if s.exposed else s.end_status)
           for s in subjects]
    surv, cif = 1.0, 0.0
    cif_vals = []
    for t in times:
        at_risk = sum(1 for o, _ in obs if o >= t)
        d_death = sum(1 for o, e in obs if o == t and e == "death")
        d_disch = sum(1 for o, e in obs if o == t and e == "discharge")
        if at_risk > 0:
            cif += surv * d_death / at_risk
            surv *= 1.0 - (d_death + d_disch) / at_risk
        cif_vals.append(cif)

    return (StepCurve(times, death),
            StepCurve(times, np.array(cpf_vals), undefined_from=cpf_undef),
            StepCurve(times, np.array(cif_vals)))


def test_piecewise_hazard_rate_and_cumulative():
    h = PiecewiseHazard(np.array([2.0, 5.0]), np.array([0.3, 0.1]))
    assert h.rate_at(1.0) == 0.3
    assert h.rate_at(2.0) == 0.1  # segments are [start, until)
    assert h.rate_at(99.0) == 0.1  # last rate continues
    assert h.cumulative(2.0) == pytest.approx(0.6)
    assert h.cumulative(4.0) == pytest.approx(0.6 + 0.2)


def test_piecewise_hazard_validation():
    with pytest.raises(DataError):
        PiecewiseHazard(np.array([2.0, 1.0]), np.array([0.1, 0.1]))
    with pytest.raises(DataError):
        PiecewiseHazard(np.array([2.0]), np.array([-0.1]))
    for until in ([np.nan, 5.0], [1.0, np.nan, 40.0], [1.0, np.inf, np.inf], [0.0, 5.0], [-np.inf]):
        with pytest.raises(DataError, match="breakpoints must be finite"):
            PiecewiseHazard(np.array(until), np.full(len(until), 0.1))


@pytest.mark.parametrize("last", [None, float("inf")])
def test_piecewise_hazard_last_endpoint_may_be_open(last):
    h = PiecewiseHazard.from_json([{"until": 10, "rate": 0.08}, {"until": last, "rate": 0.04}])
    np.testing.assert_array_equal(h.breakpoints, [10.0])
    assert h.rate_at(99.0) == 0.04
    assert h.cumulative(20.0) == pytest.approx(0.8 + 0.4)
    assert h.to_json()[-1]["until"] is None  # JSON null, not NaN or Infinity


def test_hazard_spec_json_round_trip():
    spec = icu_like_spec(tau=50.0, censor_rate=0.01)
    again = HazardSpec.from_json(spec.to_json())
    assert again.to_json() == spec.to_json()
    assert again.tau == 50.0


def test_hazard_spec_json_accepts_scalars():
    spec = HazardSpec.from_json(json.dumps({
        "alpha01": 0.1, "alpha02": 0.1, "alpha03": 0.1, "alpha14": 0.1, "alpha15": 0.1,
        "tau": 10,
    }))
    assert spec.alpha01.rate_at(3.0) == 0.1


def test_hazard_spec_json_errors():
    with pytest.raises(DataError, match="alpha15"):
        HazardSpec.from_json('{"alpha01": 0.1, "alpha02": 0.1, "alpha03": 0.1, "alpha14": 0.1}')
    with pytest.raises(DataError):
        HazardSpec.from_json("not json")


def test_same_seed_same_cohort():
    a = simulate_cohort(CONST, 500, seed=9)
    b = simulate_cohort(CONST, 500, seed=9)
    assert a.subjects == b.subjects
    c = simulate_cohort(CONST, 500, seed=10)
    assert a.subjects != c.subjects


def test_zero_exposure_hazard_means_no_exposed():
    spec = HazardSpec.constant(0.0, 0.05, 0.02, 0.05, 0.03, tau=50.0)
    cohort = simulate_cohort(spec, 1000, seed=1)
    assert not any(s.exposed for s in cohort.subjects)


def test_all_zero_rates_rejected():
    spec = HazardSpec.constant(0.0, 0.0, 0.0, 0.0, 0.0, tau=10.0)
    with pytest.raises(DataError):
        simulate_cohort(spec, 10, seed=0)


def test_empirical_exposure_cif_matches_closed_form():
    cohort = simulate_cohort(CONST, 50_000, seed=42)
    a0 = 0.05 + 0.05 + 0.02
    grid = np.linspace(0.5, 80.0, 160)
    n = len(cohort)
    emp = np.array([sum(1 for s in cohort.subjects if s.exposed and s.inf_time <= t) for t in grid]) / n
    closed = 0.05 / a0 * (1.0 - np.exp(-a0 * grid))
    assert np.max(np.abs(emp - closed)) < 0.01


def test_round_days_yields_integer_times():
    spec = HazardSpec.constant(0.1, 0.1, 0.05, 0.1, 0.05, tau=20.0, round_days=True)
    cohort = simulate_cohort(spec, 300, seed=2)
    for s in cohort.subjects:
        assert s.end_time == int(s.end_time)
        if s.exposed:
            assert s.inf_time == int(s.inf_time)
            assert s.end_time >= s.inf_time + 1


def test_censor_rate_censors():
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, censor_rate=0.05, tau=100.0)
    cohort = simulate_cohort(spec, 2000, seed=3)
    assert sum(1 for s in cohort.subjects if s.end_status == "censored") > 100


def test_analytic_p00_exact():
    oc = analytic_curves(CONST, np.linspace(0.0, 100.0, 101))
    a0 = 0.12
    np.testing.assert_allclose(oc.p00(oc.grid), np.exp(-a0 * oc.grid), atol=1e-12)


def test_analytic_p03_closed_form():
    oc = analytic_curves(CONST, np.linspace(0.0, 100.0, 101))
    a0 = 0.12
    closed = 0.02 / a0 * (1.0 - np.exp(-a0 * oc.grid))
    np.testing.assert_allclose(oc.p03(oc.grid), closed, atol=1e-6)


def test_analytic_p030_closed_form_without_discharge():
    spec = HazardSpec.constant(0.05, 0.0, 0.03, 0.05, 0.03, tau=50.0)
    oc = analytic_curves(spec, np.linspace(0.0, 50.0, 51))
    np.testing.assert_allclose(oc.p030(oc.grid), 1.0 - np.exp(-0.03 * oc.grid), atol=1e-6)


def test_analytic_rows_sum_to_one():
    oc = analytic_curves(icu_like_spec(tau=60.0), np.linspace(0.0, 60.0, 61))
    total = sum(c(oc.grid) for c in (oc.p00, oc.p01, oc.p02, oc.p03, oc.p04, oc.p05))
    np.testing.assert_allclose(total, 1.0, atol=1e-6)


def test_analytic_constant_hazard_paf_identity():
    spec = HazardSpec.constant(0.08, 0.1, 0.05, 0.1, 0.06, tau=300.0)
    oc = analytic_curves(spec, np.array([0.0, 300.0]))
    assert abs(oc.paf_o(300.0) - oc.paf_c(300.0)) < 1e-6


def test_analytic_requires_markov():
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, gamma=0.2, tau=10.0)
    with pytest.raises(DataError):
        analytic_curves(spec, np.array([1.0]))


def test_brute_force_hand_cohort():
    cohort = Cohort((Subject("A", None, 1.0, "death"), Subject("B", 1.0, 2.0, "death")), horizon=2)
    overall_death, cpf, p030 = reference_brute_force(cohort)
    assert cpf(1.0) == 1.0
    assert overall_death(2.0) == 1.0
    assert p030(1.0) == 0.5


def test_brute_force_zero_death_cohort():
    cohort = Cohort(tuple(Subject(str(i), None, float(i + 1), "discharge") for i in range(5)))
    overall_death, _, p030 = reference_brute_force(cohort)
    assert np.all(overall_death.values == 0.0)
    assert np.all(p030.values == 0.0)


def test_brute_force_matches_estimators():
    spec = HazardSpec.constant(0.1, 0.08, 0.05, 0.09, 0.07, tau=40.0, round_days=True)
    cohort = simulate_cohort(spec, 300, seed=9)
    cohort = Cohort(tuple(s for s in cohort.subjects if s.end_status != "censored"))
    records = to_transitions(cohort)
    grid = np.arange(1.0, 41.0)
    estimators = (overall_death_risk(records), cpf_unexposed(records), cif_counterfactual(records))
    for ours, theirs in zip(reference_brute_force(cohort), estimators):
        a, b = np.atleast_1d(ours(grid)), np.atleast_1d(theirs(grid))
        mask = ~(np.isnan(a) | np.isnan(b))
        assert np.max(np.abs(a[mask] - b[mask])) < 1e-12


def _constant_closed_form(a01, a02, a03, a14, a15, t):
    a0, a1 = a01 + a02 + a03, a14 + a15
    p00 = np.exp(-a0 * t)
    p01 = a01 * (np.exp(-a1 * t) - p00) / (a0 - a1)
    left_1 = a01 / a0 * (1.0 - p00) - p01  # exposed, then left state 1
    p03 = a03 / a0 * (1.0 - p00)
    p05 = a15 / a1 * left_1
    p030 = a03 / (a02 + a03) * (1.0 - np.exp(-(a02 + a03) * t))
    pd = p03 + p05
    p02 = a02 / a0 * (1.0 - p00)
    cpf = p03 / (p00 + p02 + p03)
    with np.errstate(invalid="ignore", divide="ignore"):
        paf_o, paf_c = (pd - cpf) / pd, (pd - p030) / pd
    return {
        "p00": p00, "p01": p01, "p02": p02, "p03": p03, "p04": a14 / a1 * left_1,
        "p05": p05, "p030": p030, "overall_death": pd, "cpf": cpf, "paf_o": paf_o, "paf_c": paf_c,
    }


def test_analytic_curves_equal_the_constant_hazard_closed_form():
    t = np.append(np.linspace(0.0, 100.0, 201), 400.0)  # one long step: many squarings
    oc = analytic_curves(CONST, t).as_dict()
    want = _constant_closed_form(0.05, 0.05, 0.02, 0.05, 0.03, t)
    assert set(oc) == set(want)
    for name, curve in oc.items():
        np.testing.assert_allclose(curve.values, want[name], rtol=0, atol=1e-12, err_msg=name)


def _exit_integral(until, exit_rates, target_rates, t):
    """int_0^t target(u) exp(-int_0^u exit) du, summed segment by segment."""
    total, cum_exit = np.zeros_like(t), np.zeros_like(t)
    start = 0.0
    for end, q, r in zip(until, exit_rates, target_rates):
        span = np.clip(t - start, 0.0, end - start)
        total += r / q * np.exp(-cum_exit) * -np.expm1(-q * span)
        cum_exit += q * span
        start = end
    return total, np.exp(-cum_exit)


def test_analytic_curves_equal_exact_integrals_between_the_knots():
    spec = icu_like_spec()
    grid = np.array([0.0, 10.0, 20.0, 30.0, 60.0])  # skips the knots 7, 14 and 28
    oc = analytic_curves(spec, grid)
    until = np.array([7.0, 14.0, 28.0, np.inf])
    a01, a02, a03 = (np.append(h.rates, h.rates[-1]) for h in (spec.alpha01, spec.alpha02, spec.alpha03))
    a0 = a01 + a02 + a03
    p02, p00 = _exit_integral(until, a0, a02, grid)
    p03, _ = _exit_integral(until, a0, a03, grid)
    p030, _ = _exit_integral(until, a02 + a03, a03, grid)
    for curve, want in ((oc.p00, p00), (oc.p02, p02), (oc.p03, p03), (oc.p030, p030)):
        np.testing.assert_allclose(curve.values, want, rtol=0, atol=1e-12)


def test_analytic_exposed_branch_when_entry_and_exit_rates_coincide():
    # a01 + a02 + a03 = a14 + a15 = a: the generator has a repeated
    # eigenvalue, p01(t) = a01 t exp(-a t), and leaving state 1 by t has
    # probability a01 ((1 - exp(-a t)) / a - t exp(-a t))
    spec = HazardSpec.constant(0.05, 0.04, 0.03, 0.07, 0.05, tau=200.0)
    t = np.linspace(0.0, 200.0, 401)
    oc = analytic_curves(spec, t)
    a = 0.12
    np.testing.assert_allclose(oc.p01.values, 0.05 * t * np.exp(-a * t), rtol=0, atol=1e-12)
    left_1 = 0.05 * (-np.expm1(-a * t) / a - t * np.exp(-a * t))
    np.testing.assert_allclose(oc.p04.values, 0.07 / a * left_1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(oc.p05.values, 0.05 / a * left_1, rtol=0, atol=1e-12)


def test_analytic_rows_sum_to_one_exactly():
    oc = analytic_curves(icu_like_spec(tau=300.0), np.linspace(0.0, 300.0, 301))
    total = sum(c.values for c in (oc.p00, oc.p01, oc.p02, oc.p03, oc.p04, oc.p05))
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)
