"""End-to-end acceptance gates.

Each test prints one PASS line with the measured margin so a log scan
shows the whole gate status at a glance.  Tolerances are part of the
contract; do not loosen them.
"""

import numpy as np
import pytest

from pafmsm import (
    Cohort,
    HazardSpec,
    Subject,
    aalen_johansen_extended,
    analytic_curves,
    cif_counterfactual,
    compute_weights,
    cpf_unexposed,
    discretize,
    estimate_paf,
    fit_cox_td,
    fourfold_at,
    ht_cif,
    ipw_f01,
    markov_test,
    naive_f01,
    nonparametric_daily_hazard,
    overall_death_risk,
    paf_fixed,
    preventable_count,
    simulate_cohort,
    to_transitions,
)
from pafmsm.continuous import exposure_survival
from pafmsm.cox import _RiskSets, _interval_arrays, _interval_likelihood

from conftest import integer_cohort

CONST = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100.0)


def _compare(a, b, grid):
    av, bv = np.atleast_1d(a(grid)), np.atleast_1d(b(grid))
    if not np.array_equal(np.isnan(av), np.isnan(bv)):
        return np.inf
    mask = ~np.isnan(av)
    return float(np.max(np.abs(av[mask] - bv[mask]))) if mask.any() else 0.0


def test_acceptance_1_exact_equivalences():
    worst = 0.0
    for seed in range(50):
        cohort = integer_cohort(seed, n=200)
        panel = discretize(cohort)
        records = to_transitions(cohort)
        days = np.arange(1.0, panel.n_days + 1.0)
        weights = compute_weights(panel, nonparametric_daily_hazard(panel))
        worst = max(worst, _compare(naive_f01(panel), cpf_unexposed(records), days))
        cf = cif_counterfactual(records)
        worst = max(worst, _compare(ipw_f01(panel, weights), cf, days))
        worst = max(worst, _compare(ht_cif(records), cf, days))
    assert worst < 1e-12
    print(f"\nACCEPTANCE 1 equivalence suite: PASS (max deviation {worst:.2e})")


def test_acceptance_2_occupation_normalization():
    worst = 0.0
    for seed in range(10):
        for censored in (False, True):
            cohort = integer_cohort(seed, n=150, censored=censored)
            occ = aalen_johansen_extended(to_transitions(cohort))
            sums = sum(c.values for c in occ.as_tuple())
            worst = max(worst, float(np.max(np.abs(sums - 1.0))))
    assert worst < 1e-12
    print(f"\nACCEPTANCE 2 occupation normalization: PASS (max |sum-1| {worst:.2e})")


def test_acceptance_3_oracle_convergence():
    cohort = simulate_cohort(CONST, 50_000, seed=2024)
    records = to_transitions(cohort)
    grid = np.arange(1.0, 101.0)
    oracle = analytic_curves(CONST, np.arange(0.0, 101.0))
    distances = {
        "P(D)": _compare(overall_death_risk(records), oracle.overall_death, grid),
        "CPF": _compare(cpf_unexposed(records), oracle.cpf, grid),
        "P030": _compare(cif_counterfactual(records), oracle.p030, grid),
        "PAF_o": _compare(estimate_paf(cohort, "paf_o"), oracle.paf_o, grid),
        "PAF_c": _compare(estimate_paf(cohort, "paf_c"), oracle.paf_c, grid),
    }
    assert max(distances.values()) < 0.02, distances
    report = ", ".join(f"{k} {v:.4f}" for k, v in distances.items())
    print(f"\nACCEPTANCE 3 oracle convergence: PASS ({report})")


def test_acceptance_4_constant_hazard_identity():
    spec = HazardSpec.constant(0.08, 0.1, 0.05, 0.1, 0.06, tau=300.0)
    oracle = analytic_curves(spec, np.array([0.0, 300.0]))
    analytic_gap = abs(oracle.paf_o(300.0) - oracle.paf_c(300.0))
    assert analytic_gap < 1e-6

    cohort = simulate_cohort(spec, 50_000, seed=77)
    estimated_gap = abs(estimate_paf(cohort, "paf_o")(300.0) - estimate_paf(cohort, "paf_c")(300.0))
    assert estimated_gap < 0.02
    print(
        f"\nACCEPTANCE 4 constant-hazard identity: PASS "
        f"(analytic gap {analytic_gap:.2e}, estimated gap {estimated_gap:.4f})"
    )


def test_acceptance_5_sir3_reproduction(sir3_cohort):
    cohort = sir3_cohort
    paf_o_curve = estimate_paf(cohort, "paf_o")
    paf_c_curve = estimate_paf(cohort, "paf_c")
    v_o, v_c = paf_o_curve(100.0), paf_c_curve(100.0)
    assert v_o == pytest.approx(0.073, abs=0.005)
    assert v_c == pytest.approx(0.055, abs=0.005)

    deaths = sum(1 for s in cohort.subjects if s.end_status == "death" and s.end_time <= 100.0)
    assert preventable_count(v_o, deaths) == 11
    assert preventable_count(v_c, deaths) == 8

    records = to_transitions(cohort)
    death_fit = fit_cox_td(records, "death")
    assert death_fit.hazard_ratios[0] == pytest.approx(0.99, abs=0.02)
    assert death_fit.ci_lower[0] == pytest.approx(0.61, abs=0.05)
    assert death_fit.ci_upper[0] == pytest.approx(1.60, abs=0.05)
    disch_fit = fit_cox_td(records, "discharge")
    assert disch_fit.hazard_ratios[0] == pytest.approx(0.61, abs=0.02)
    assert disch_fit.ci_lower[0] == pytest.approx(0.48, abs=0.05)
    assert disch_fit.ci_upper[0] == pytest.approx(0.76, abs=0.05)

    # early curves wander around zero, then climb
    early = np.arange(1.0, 20.0)
    for curve in (paf_o_curve, paf_c_curve):
        vals = curve(early)
        assert np.nanmin(vals) < 0.02
        assert curve(100.0) > np.nanmean(vals)
    print(f"\nACCEPTANCE 5 SIR-3 reproduction: PASS (PAF_o {v_o:.3f}, PAF_c {v_c:.3f})")


def test_acceptance_6_hand_oracle():
    cohort = Cohort((Subject("A", None, 1.0, "death"), Subject("B", 1.0, 2.0, "death")), horizon=2)
    v_o = estimate_paf(cohort, "paf_o")(2.0)
    v_c = estimate_paf(cohort, "paf_c")(2.0)
    assert v_o == 0.0
    assert v_c == 0.5
    print(f"\nACCEPTANCE 6 hand oracle: PASS (PAF_o(2) = {v_o}, PAF_c(2) = {v_c})")


def test_acceptance_7_cox_numerics():
    rng = np.random.default_rng(1)
    h = 1e-6
    worst = 0.0
    checked = 0
    for k in range(40):
        if checked == 20:
            break
        spec = HazardSpec.constant(0.1, 0.08, 0.05, 0.09, 0.07, tau=30.0)
        records = to_transitions(simulate_cohort(spec, 30, seed=500 + k))
        start, stop, to_state, x = _interval_arrays(records, ())
        event = np.isin(to_state, (3, 5))
        if event.sum() == 0:
            continue
        checked += 1
        beta = rng.normal(0.0, 0.5, 1)
        loglik = _interval_likelihood(start, stop, event, x)
        grad = (loglik(beta + h)[0] - loglik(beta - h)[0]) / (2 * h)
        event_times, inverse = np.unique(stop[event], return_inverse=True)
        d = np.bincount(inverse).astype(float)
        w = np.exp(x @ beta)
        risk = _RiskSets(start, stop, event_times)
        s0, s1 = risk.sums(w[:, None])[:, 0], risk.sums(w[:, None] * x)
        score = (x[event].sum(axis=0) - (d[:, None] * (s1 / s0[:, None])).sum(axis=0))[0]
        worst = max(worst, abs(grad - score) / max(1.0, abs(score)))
    assert checked == 20
    assert worst < 1e-6

    null_spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.02, tau=100.0)
    null_fit = fit_cox_td(to_transitions(simulate_cohort(null_spec, 20_000, seed=5)), "death")
    assert abs(null_fit.coefficients[0]) < 3 * null_fit.standard_errors[0]

    gamma_spec = HazardSpec.constant(0.08, 0.05, 0.02, 0.03, 0.02, gamma=0.5, tau=30.0)
    gamma_fit = markov_test(to_transitions(simulate_cohort(gamma_spec, 20_000, seed=6)), "death_after")
    assert gamma_fit.coefficients[0] == pytest.approx(0.5, abs=3 * gamma_fit.standard_errors[0])
    print(
        f"\nACCEPTANCE 7 Cox numerics: PASS (score FD error {worst:.2e}, "
        f"null beta {null_fit.coefficients[0]:.4f}, gamma {gamma_fit.coefficients[0]:.3f})"
    )


@pytest.mark.slow
def test_acceptance_8_bootstrap_coverage():
    from pafmsm import bootstrap_ci

    tau = 100.0
    truth = analytic_curves(CONST, np.array([0.0, tau])).paf_c(tau)

    cohort = simulate_cohort(CONST, 1000, seed=1)
    grid = np.array([tau])
    first = bootstrap_ci(cohort, "paf_c", B=500, seed=9, grid=grid)
    second = bootstrap_ci(cohort, "paf_c", B=500, seed=9, grid=grid)
    assert np.array_equal(first.lower.values, second.lower.values)
    assert np.array_equal(first.upper.values, second.upper.values)

    hits = 0
    for sim in range(200):
        cohort = simulate_cohort(CONST, 1000, seed=10_000 + sim)
        bands = bootstrap_ci(cohort, "paf_c", B=500, seed=sim, grid=grid)
        if bands.lower(tau) <= truth <= bands.upper(tau):
            hits += 1
    coverage = hits / 200
    assert 0.90 <= coverage <= 0.99
    print(f"\nACCEPTANCE 8 bootstrap: PASS (deterministic, coverage {coverage:.3f})")
