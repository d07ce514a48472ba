import json
import math

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
from pafmsm.simulate import _invert_linear, _sum_knots

from conftest import integer_spec

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


def reference_simulate_cohort(spec, n, seed):
    """The draw written out once per state, as the simulator had it before
    one competing-exit draw served both: a check on that draw's bits for
    specs that raise no DataError."""
    u = np.random.default_rng(seed).random((n, 4))
    c = spec.censor_rate

    # state 0: competing 01 / 02 / 03 / censor
    knots0 = _sum_knots(spec.alpha01, spec.alpha02, spec.alpha03)
    slope0 = spec.alpha01.rate_at(knots0) + spec.alpha02.rate_at(knots0) + spec.alpha03.rate_at(knots0) + c
    cum0 = np.concatenate([[0.0], np.cumsum(slope0[:-1] * np.diff(knots0))])
    t0 = _invert_linear(knots0, cum0, slope0, -np.log(u[:, 0]))
    r01, r02, r03 = spec.alpha01.rate_at(t0), spec.alpha02.rate_at(t0), spec.alpha03.rate_at(t0)
    tot = r01 + r02 + r03 + c
    pick = u[:, 1] * np.where(tot > 0, tot, 1.0)
    cause0 = np.full(n, 9)  # 9 = censored by the exponential clock
    cause0[pick < r01 + r02 + r03] = 3
    cause0[pick < r01 + r02] = 2
    cause0[pick < r01] = 1
    admin0 = ~(t0 < spec.tau)
    exposed = (cause0 == 1) & ~admin0
    inf_time = np.where(exposed, t0, np.nan)
    end_time = np.where(admin0, spec.tau, t0)
    status = np.zeros(n, dtype=int)
    status[(cause0 == 3) & ~admin0] = 1
    status[(cause0 == 2) & ~admin0] = 2

    if np.any(exposed):
        idx = np.nonzero(exposed)[0]
        tinf = t0[idx]
        factor = np.exp(spec.gamma * tinf) if spec.gamma != 0 else np.ones(idx.size)
        knots1 = _sum_knots(spec.alpha14, spec.alpha15)
        base_rate = spec.alpha14.rate_at(knots1) + spec.alpha15.rate_at(knots1)
        base_cum = np.concatenate([[0.0], np.cumsum(base_rate[:-1] * np.diff(knots1))])
        k = np.minimum(np.searchsorted(knots1, tinf, side="right") - 1, base_rate.size - 1)
        a1_tinf = base_cum[k] + base_rate[k] * (tinf - knots1[k])
        cum1 = factor[:, None] * (base_cum[None, :] - a1_tinf[:, None]) + c * (knots1[None, :] - tinf[:, None])
        slope1 = factor[:, None] * base_rate[None, :] + c
        t1 = _invert_linear(knots1, cum1, slope1, -np.log(u[idx, 2]))
        r14 = factor * spec.alpha14.rate_at(t1)
        r15 = factor * spec.alpha15.rate_at(t1)
        tot1 = r14 + r15 + c
        pick1 = u[idx, 3] * np.where(tot1 > 0, tot1, 1.0)
        cause1 = np.full(idx.size, 9)
        cause1[pick1 < r14 + r15] = 5
        cause1[pick1 < r14] = 4
        admin1 = ~(t1 <= spec.tau)
        end_time[idx] = np.where(admin1, spec.tau, t1)
        st1 = np.zeros(idx.size, dtype=int)
        st1[(cause1 == 5) & ~admin1] = 1
        st1[(cause1 == 4) & ~admin1] = 2
        status[idx] = st1

    if spec.round_days:
        inf_time = np.ceil(inf_time)
        end_time = np.ceil(end_time)
        bump = exposed & (end_time <= inf_time)
        end_time[bump] = inf_time[bump] + 1.0
        tau = math.ceil(spec.tau)
        horizon = tau + 1.0 if np.any(end_time > tau) else float(tau)
    else:
        horizon = spec.tau
    return inf_time, end_time, status, max(horizon, float(end_time.max()))


def _odd_knots(rates, until=(0.3, 1.7, 13.1)):
    return PiecewiseHazard(np.array(until), np.array(rates))


REFERENCE_SPECS = {
    "constant-censored": HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, censor_rate=0.01),
    "icu": icu_like_spec(),
    "icu-censored": icu_like_spec(censor_rate=0.01),
    "icu-whole-days": icu_like_spec(round_days=True),
    "gamma": HazardSpec.constant(0.08, 0.05, 0.02, 0.03, 0.02, gamma=0.5, tau=30.0),
    "odd-knots-censored-gamma": HazardSpec(
        _odd_knots([0.11, 0.0, 0.04]), _odd_knots([0.07, 0.13, 0.05], (2.2, 9.9, 31.4)),
        _odd_knots([0.01, 0.03, 0.02]), _odd_knots([0.09, 0.02, 0.06], (0.7, 5.1, 17.3)),
        _odd_knots([0.04, 0.0, 0.05]), gamma=-0.07, censor_rate=0.013, tau=57.3),
    "odd-knots-whole-days": HazardSpec(
        _odd_knots([0.11, 0.02, 0.0]), _odd_knots([0.07, 0.13, 0.05]), _odd_knots([0.01, 0.03, 0.02]),
        _odd_knots([0.09, 0.02, 0.06], (0.7, 5.1, 17.3)), _odd_knots([0.04, 0.01, 0.05]),
        gamma=0.1, censor_rate=0.07, tau=20.5, round_days=True),
    "zero-rate": HazardSpec.constant(0.1, 0.05, 0.02, 0.0, 0.03, tau=50.0, censor_rate=0.02),
    "zero-after-exposure": HazardSpec.constant(0.1, 0.05, 0.02, 0.0, 0.0, tau=50.0),
    "random-whole-days": integer_spec(4),
}


@pytest.mark.parametrize("name", REFERENCE_SPECS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_simulate_cohort_equals_the_two_block_reference_bit_for_bit(name, seed):
    spec = REFERENCE_SPECS[name]
    cohort = simulate_cohort(spec, 2000, seed)
    inf_time, end_time, status, horizon = reference_simulate_cohort(spec, 2000, seed)
    assert cohort.inf.tobytes() == inf_time.tobytes()
    assert cohort.end.tobytes() == end_time.tobytes()
    assert cohort.status.tolist() == status.tolist()
    assert cohort.horizon == horizon


def test_piecewise_hazard_rate():
    h = PiecewiseHazard(np.array([2.0, 5.0]), np.array([0.3, 0.1]))
    assert h.rate_at(1.0) == 0.3
    assert h.rate_at(2.0) == 0.1  # segments are [start, until)
    assert h.rate_at(99.0) == 0.1  # last rate continues


def test_piecewise_hazard_validation():
    with pytest.raises(DataError):
        PiecewiseHazard(np.array([2.0, 1.0]), np.array([0.1, 0.1]))
    for until, rates in (([2.0, 5.0], [0.1]), ([], []), ([[2.0]], [[0.1]])):
        with pytest.raises(DataError, match="until and rates must be 1-d arrays of equal length"):
            PiecewiseHazard(np.array(until), np.array(rates))
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


SCALAR_SPEC = {"alpha01": 0.1, "alpha02": 0.1, "alpha03": 0.1, "alpha14": 0.1, "alpha15": 0.1,
               "tau": 10}


@pytest.mark.parametrize("change, message", [
    ({"alpha01": True}, "alpha01 must be a number or a list of pieces, got True"),
    ({"alpha14": "0.1"}, "alpha14 must be a number or a list of pieces, got '0.1'"),
    ({"alpha02": [{"until": 5, "rate": False}]},
     "hazard pieces must hold numbers, got until [5] and rate [False]"),
    ({"alpha03": [{"until": True, "rate": 0.1}]},
     "hazard pieces must hold numbers, got until [True] and rate [0.1]"),
    ({"alpha03": [{"until": "5", "rate": 0.1}]},
     "hazard pieces must hold numbers, got until ['5'] and rate [0.1]"),
    ({"gamma": True}, "gamma must be a number, got True"),
    ({"censor_rate": "0.01"}, "censor_rate must be a number, got '0.01'"),
    ({"tau": "10"}, "tau must be a number, got '10'"),
    ({"tau": False}, "tau must be a number, got False"),
    ({"round_days": "false"}, "round_days must be true or false, got 'false'"),
    ({"round_days": 0}, "round_days must be true or false, got 0"),
    ({"round_days": None}, "round_days must be true or false, got None"),
], ids=["rate-true", "rate-text", "piece-rate-false", "until-true", "until-text", "gamma-true",
        "censor-rate-text", "tau-text", "tau-false", "round-days-text", "round-days-0",
        "round-days-null"])
def test_hazard_spec_json_values_are_not_read_by_truthiness(change, message):
    with pytest.raises(DataError) as info:
        HazardSpec.from_json(json.dumps(dict(SCALAR_SPEC, **change)))
    assert str(info.value) == message


BIG = 10 ** 400  # a JSON integer past the float range


@pytest.mark.parametrize("change, message", [
    ({"alpha01": BIG}, "alpha01 must be a finite number, got an integer past the float range"),
    ({"alpha15": -BIG}, "alpha15 must be a finite number, got an integer past the float range"),
    ({"alpha02": [{"until": 5, "rate": 0.1}, {"until": None, "rate": BIG}]},
     "rate must be a finite number, got an integer past the float range"),
    ({"alpha03": [{"until": BIG, "rate": 0.1}]},
     "until must be a finite number, got an integer past the float range"),
    ({"tau": BIG}, "tau must be a finite number, got an integer past the float range"),
    ({"censor_rate": BIG}, "censor_rate must be a finite number, got an integer past the float range"),
    ({"gamma": -BIG}, "gamma must be a finite number, got an integer past the float range"),
], ids=["rate", "negative-rate", "piece-rate", "piece-until", "tau", "censor-rate", "gamma"])
def test_an_integer_past_the_float_range_is_a_data_error_naming_its_key(change, message):
    with pytest.raises(DataError) as info:
        HazardSpec.from_json(json.dumps(dict(SCALAR_SPEC, **change)))
    assert str(info.value) == message


@pytest.mark.parametrize("obj, key", [(BIG, "rate"), ([{"until": None, "rate": BIG}], "rate"),
                                      ([{"until": -BIG, "rate": 0.1}], "until")],
                         ids=["scalar", "piece-rate", "piece-until"])
def test_a_hazard_past_the_float_range_is_a_data_error_naming_its_key(obj, key):
    with pytest.raises(DataError, match=f"^{key} must be a finite number, got an integer past"):
        PiecewiseHazard.from_json(obj)


def test_an_integer_too_long_to_read_is_a_data_error():
    # Python refuses to convert integers of more than 4 300 digits
    with pytest.raises(DataError, match="hazard spec is not valid JSON: Exceeds the limit"):
        HazardSpec.from_json('{"tau": 1' + "0" * 5000 + "}")


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


@pytest.mark.parametrize("n", [0, -3])
def test_a_cohort_of_no_subjects_is_not_drawn(n):
    with pytest.raises(DataError, match="^n must be >= 1$"):
        simulate_cohort(icu_like_spec(), n, seed=0)


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


@pytest.mark.parametrize("grid", [[], [-1.0, 2.0]])
def test_analytic_grid_must_be_non_empty_and_non_negative(grid):
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=10.0)
    with pytest.raises(DataError, match="^grid must be non-empty and non-negative$"):
        analytic_curves(spec, np.array(grid))


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
