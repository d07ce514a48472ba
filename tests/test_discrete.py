import tracemalloc

import numpy as np
import pytest

from pafmsm import (
    Cohort,
    DailyPanel,
    DataError,
    ExposureModel,
    PositivityError,
    SeparationError,
    Subject,
    TiePolicy,
    cif_counterfactual,
    compute_weights,
    cpf_unexposed,
    discretize,
    empirical_weights,
    estimate_paf,
    fit_pooled_logistic,
    icu_like_spec,
    ipw_f01,
    model_weights,
    naive_f01,
    nonparametric_daily_hazard,
    parse_cohort,
    simulate_cohort,
    to_transitions,
)
from pafmsm import discrete
from pafmsm.discrete import _death_proportion
from pafmsm.newton import newton

from conftest import integer_cohort


def panel_of(*subjects, horizon=0.0):
    return discretize(Cohort(tuple(subjects), horizon=horizon))


# Dense (n x days) reference formulas over the indicator matrices A and
# eps.  The package computes the same quantities from the per-subject day
# columns; the results must agree bit for bit.

def reference_indicators(panel):
    """The dense uint8 matrices a[i, s-1] = 1 once subject i is exposed
    (s >= exposure_day), and eps[i, s-1] = its status once s >= terminal_day."""
    days = np.arange(1, panel.n_days + 1)
    a = (days >= panel.exposure_day[:, None]).astype(np.uint8)
    ended = (days >= panel.terminal_day[:, None]).astype(np.uint8)
    return a, ended * panel.status.astype(np.uint8)[:, None]


def reference_at_risk(panel):
    """at_risk[i, s-1]: A(s-1) = 0 and eps(s-1) = 0 (at risk of new exposure)."""
    start = np.zeros((panel.n_subjects, 1), dtype=np.uint8)
    a, eps = reference_indicators(panel)
    prev_a = np.concatenate([start, a[:, :-1]], axis=1)
    prev_e = np.concatenate([start, eps[:, :-1]], axis=1)
    return (prev_a == 0) & (prev_e == 0)


def reference_first_day(mask):
    first = np.where(mask.any(axis=1), mask.argmax(axis=1) + 1, mask.shape[1] + 1)
    return first.astype(np.int64)


def reference_person_days(panel):
    subj, day_idx = np.nonzero(reference_at_risk(panel))
    return subj, day_idx + 1, reference_indicators(panel)[0][subj, day_idx] == 1


def _reference_ratio(num, den):
    defined = den > 0
    values = np.where(defined, num / np.where(defined, den, 1.0), np.nan)
    days = np.arange(1, num.size + 1, dtype=float)
    return days, values, float(days[~defined][0]) if (~defined).any() else None


def reference_naive(panel):
    a, eps = reference_indicators(panel)
    died_unexposed = (eps == 1) & (a == 0)
    num = died_unexposed.sum(axis=0).astype(float)
    return _reference_ratio(num, (a == 0).sum(axis=0).astype(float))


def reference_hazard(panel):
    a, eps = reference_indicators(panel)
    at_risk = reference_at_risk(panel)
    infected_today = at_risk & (a == 1)
    terminal_today = at_risk & (eps != 0) & (a == 0)
    n_at_risk = at_risk.sum(axis=0).astype(float)
    survivors = n_at_risk - terminal_today.sum(axis=0)
    dn = infected_today.sum(axis=0).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        hazard = np.where(dn > 0, dn / survivors, 0.0)
    probs = np.repeat(hazard[None, :], panel.n_subjects, axis=0)
    probs[terminal_today] = 0.0
    return probs


def reference_daily_probabilities(model, panel):
    """The model's fitted p-hat per subject-day, shape (n_subjects, n_days):
    covariates are baseline-only, so each subject's row is constant."""
    covs = np.array([panel.covariates[name] for name in model.covariate_names], dtype=float)
    p = model.predict(covs.reshape(-1, panel.n_subjects).T)
    return np.repeat(p[:, None], panel.n_days, axis=1)


def reference_weights(panel, daily_probs):
    a, eps = reference_indicators(panel)
    exposure_day = reference_first_day(a > 0)
    t_i = np.minimum(exposure_day, reference_first_day(eps > 0))
    days = np.arange(1, panel.n_days + 1)
    one_minus = np.where(days[None, :] <= t_i[:, None], 1.0 - daily_probs, 1.0)
    with np.errstate(divide="ignore"):
        weights = 1.0 / np.cumprod(one_minus, axis=1)
    weights[days[None, :] >= exposure_day[:, None]] = 0.0
    if not np.all(np.isfinite(weights)):
        raise PositivityError("weights are unbounded")
    return weights


def reference_ipw(panel, weights):
    # a masked sum, as the dense estimator took it: with one day numpy sums
    # the column pairwise, and a product with 0/1 would add the zeros in
    died = reference_indicators(panel)[1] == 1
    return _reference_ratio(weights.sum(axis=0, where=died), weights.sum(axis=0))


def reference_death_proportion(panel):
    return (reference_indicators(panel)[1] == 1).mean(axis=0)


def reference_weight_matrix(table):
    """The table's dense (n_subjects, n_days) weights from its columns: 1 /
    prod_{s <= min(t, freeze_day)} factors[row][s] before the exposure day,
    0 from it on."""
    n, m = table.n_subjects, table.n_days
    survival = np.cumprod(np.broadcast_to(table.factors[table.row], (n, m)), axis=1)
    with np.errstate(divide="ignore"):
        inverse = np.concatenate([np.ones((n, 1)), 1.0 / survival], axis=1)
    days = np.arange(1, m + 1)
    weights = np.take_along_axis(inverse, np.minimum(days, table.freeze_day[:, None]), axis=1)
    weights[days >= table.exposure_day[:, None]] = 0.0
    return weights


def assert_same(actual, expected):
    """Equal in dtype, shape and bytes (NaN payloads included)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


def assert_curve_is(curve, reference):
    days, values, undefined_from = reference
    assert_same(curve.times, days)
    assert_same(curve.values, values)
    assert curve.undefined_from == undefined_from


def assert_matches_reference(panel):
    """Every panel estimator equals its dense reference bit for bit."""
    a, eps = reference_indicators(panel)
    assert_same(panel.exposure_day, reference_first_day(a > 0))
    assert_same(panel.terminal_day, reference_first_day(eps > 0))
    assert_curve_is(naive_f01(panel), reference_naive(panel))
    assert_same(_death_proportion(panel).values, reference_death_proportion(panel))
    hazard = nonparametric_daily_hazard(panel)
    assert_same(hazard, reference_hazard(panel))
    assert_weights_match(panel, empirical_weights, hazard)
    # also fitted-model probabilities, arbitrary ones, and a first day certain exposure
    names = ("x",) if "x" in panel.covariates else ()
    model = ExposureModel(np.array([-2.5, 0.8][:1 + len(names)]), names, 0, 0.0)
    assert_weights_match(panel, lambda p: model_weights(p, model),
                         reference_daily_probabilities(model, panel))
    shape = (panel.n_subjects, panel.n_days)
    certain = np.zeros(shape)
    certain[:, 0] = 1.0
    for probs in (hazard, np.random.default_rng(panel.n_subjects).uniform(0, 0.5, shape), certain):
        assert_weights_match(panel, lambda p: compute_weights(p, probs), probs)


def assert_weights_match(panel, weigh, daily_probs):
    """``weigh(panel)`` is the dense reference weight table for ``daily_probs``,
    and ipw_f01 on it the reference estimate, bit for bit."""
    try:
        expected = reference_weights(panel, daily_probs)
    except PositivityError:
        with pytest.raises(PositivityError):
            weigh(panel)
        return
    table = weigh(panel)
    assert_same(reference_weight_matrix(table), expected)
    assert_curve_is(ipw_f01(panel, table), reference_ipw(panel, expected))


def _random_cohort(seed, fractional):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 300))
    end = rng.integers(1, 40, n) / (7.0 if fractional else 1.0)
    inf = np.where(rng.random(n) < 0.4, np.ceil(rng.uniform(0, end * 7 - 1)) / 7, np.nan)
    inf = inf if fractional else np.floor(inf)
    inf[~(inf > 0)] = np.nan
    status = rng.choice([0, 1, 2], n, p=[0.1, 0.4, 0.5])
    horizon = end.max() + rng.choice([0.0, 5.5])
    return Cohort.from_columns([str(i) for i in range(n)], inf, end, status,
                               {"x": rng.integers(0, 2, n).astype(float)}, horizon=horizon)


EDGE_COHORTS = {
    "fractional": Cohort((Subject("A", 1.5, 3.25, "death"), Subject("B", None, 2.5, "discharge"),
                          Subject("C", 2.2, 2.7, "death"), Subject("D", None, 0.3, "death"),
                          Subject("E", 0.1, 4.9, "discharge"))),
    "horizon_past_last_end": Cohort((Subject("A", 1.0, 3.0, "death"),
                                     Subject("B", None, 2.0, "discharge"),
                                     Subject("C", None, 4.0, "death")), horizon=9.5),
    "all_exposed": Cohort((Subject("A", 1.0, 3.0, "death"), Subject("B", 0.5, 2.0, "discharge"),
                           Subject("C", 2.0, 4.0, "death"))),
    "none_exposed": Cohort((Subject("A", None, 3.0, "death"), Subject("B", None, 2.0, "discharge"),
                            Subject("C", None, 4.0, "death"))),
    "one_subject": Cohort((Subject("A", None, 3.0, "death"),), horizon=5),
    "shifted_ties": parse_cohort("id,inf_time,end_time,end_status\nA,5,5,death\nB,,3,death\n"
                                 "C,2,5,discharge\nD,3,3,discharge\nE,,6,death\n",
                                 tie_policy=TiePolicy.shift(0.25)),
    "dropped_censored": parse_cohort("id,inf_time,end_time,end_status\nA,2,5,death\nB,,3,censored\n"
                                     "C,1,4,discharge\nD,,6,death\nE,3.5,7.2,censored\n"
                                     "F,,2,discharge\nG,1.5,3,death\n"),
    # one day: numpy sums a single column pairwise, so its weights stay one block
    "one_day": Cohort.from_columns([str(i) for i in range(600)],
                                   np.where(np.arange(600) % 3 == 0, 0.5, np.nan), np.ones(600),
                                   np.arange(600) % 2 + 1),
    # and sums a masked column in runs of unmasked cells: deaths on the
    # exposure day sit in runs of deaths, so their zero weights count
    "one_day_runs": Cohort.from_columns([str(i) for i in range(600)],
                                        np.where(np.arange(600) % 5 < 2, 0.5, np.nan), np.ones(600),
                                        np.where(np.arange(600) % 7 < 5, 1, 2)),
    **{f"random_{seed}": _random_cohort(seed, seed % 2 == 1) for seed in range(8)},
}


@pytest.mark.parametrize("name", EDGE_COHORTS)
def test_panel_estimators_equal_the_dense_reference(name):
    assert_matches_reference(discretize(EDGE_COHORTS[name], allow_drop=True))


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("name", EDGE_COHORTS)
def test_weight_blocks_do_not_change_the_weights(monkeypatch, name, rows):
    panel = discretize(EDGE_COHORTS[name], allow_drop=True)
    monkeypatch.setattr(discrete, "_BLOCK_CELLS", rows * panel.n_days)  # blocks of 1 and 3 subjects
    assert_matches_reference(panel)


@pytest.mark.parametrize("spare", [0, 19])
@pytest.mark.parametrize("seed", range(4))
def test_shared_pattern_rows_do_not_change_the_weights(monkeypatch, seed, spare):
    # many subjects, few patterns (11 for the empirical weights): blocks of
    # 11 and of 30 subjects gather from rows built once
    rng = np.random.default_rng(seed)
    n = 400
    end = rng.integers(1, 5, n).astype(float)
    inf = np.where(rng.random(n) < 0.5, np.floor(rng.uniform(0, end)), np.nan)
    inf[inf == 0] = np.nan
    panel = discretize(Cohort.from_columns([str(i) for i in range(n)], inf, end,
                                           rng.choice([1, 2], n), {"x": rng.integers(0, 2, n) * 1.0}))
    patterns = empirical_weights(panel)._patterns(discrete._death_days(panel))
    monkeypatch.setattr(discrete, "_BLOCK_CELLS", (patterns.index.max() + 1 + spare) * panel.n_days)
    assert empirical_weights(panel)._patterns(discrete._death_days(panel)).cells is not None
    assert_matches_reference(panel)


def test_patterns_of_many_factor_rows_over_a_million_days_are_the_subjects_own():
    # 12 factor rows (one per level of k) over 10**6 days: the row and the
    # three day columns packed into one integer would pass 2**63
    inf = np.array([np.nan, 5e5, np.nan, 3, 999_000, np.nan, 2, np.nan, 7e5, np.nan, 40, np.nan])
    end = np.array([10, 6e5, 1e6, 9, 999_999, 123_456, 3, 5e5, 8e5, 1, 41, 77])
    cohort = Cohort.from_columns([str(i) for i in range(12)], inf, end,
                                 [1, 1, 2, 2, 1, 2, 1, 1, 2, 2, 1, 1], {"k": np.arange(12.0)},
                                 horizon=1e6)
    panel = discretize(cohort)
    weights = model_weights(panel, fit_pooled_logistic(panel, ("k",)))
    death = discrete._death_days(panel)
    patterns = weights._patterns(death)
    own = [weights.row, weights.freeze_day, weights.exposure_day,
           np.where(death <= panel.exposure_day, death, panel.n_days + 1)]
    assert len(np.unique(weights.row)) == 12
    for c, column in enumerate(own):
        assert patterns.columns[c][patterns.index].tolist() == column.tolist(), c


def uniform_stays_cohort(n=20_000, m=400):
    """n subjects over m days, stays uniform on 1..m, and a binary x."""
    rng = np.random.default_rng(11)
    end = rng.integers(1, m + 1, n).astype(float)
    inf = np.floor(rng.uniform(0, end))
    inf[(inf == 0) | (rng.random(n) < 0.5)] = np.nan
    return Cohort.from_columns(np.arange(n).astype(str), inf, end, rng.integers(1, 3, n),
                               {"x": rng.integers(0, 2, n).astype(float)}, horizon=m)


def test_panel_estimators_stay_linear_in_memory():
    # naive and the death proportion are day counts: nothing of size
    # n x days may be allocated, as a dense panel of uint8 would be
    n, m = 20_000, 400
    cohort = uniform_stays_cohort(n, m)
    tracemalloc.start()
    try:
        panel = discretize(cohort)
        naive_f01(panel), _death_proportion(panel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * m / 4


@pytest.mark.parametrize("covariates", [(), ("x",)])
def test_ipw_stays_linear_in_memory(covariates):
    # the weights are built and summed in blocks of subjects, and the
    # pooled logistic fit holds one row per covariate pattern: a dense
    # (n x days) float array would take 8 bytes a cell
    n, m = 20_000, 400
    cohort = uniform_stays_cohort(n, m)
    tracemalloc.start()
    try:
        estimate_paf(cohort, "paf_c", "ipw", covariates=covariates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * m


def test_a_covariate_that_is_not_finite_is_a_data_error():
    for value in (float("nan"), float("inf")):
        panel = panel_of(Subject("A", 1.0, 2.0, "death", {"x": 0.0}),
                         Subject("B", None, 2.0, "death", {"x": value}), horizon=2)
        with pytest.raises(DataError, match="subject B: covariate 'x' is"):
            fit_pooled_logistic(panel, ("x",))


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
    np.testing.assert_allclose(reference_weight_matrix(weights).sum(axis=0), panel.n_subjects,
                               atol=1e-9)


def test_weights_zero_after_exposure():
    panel = panel_of(Subject("A", 2.0, 5.0, "death"), Subject("B", None, 5.0, "death"), horizon=5)
    weights = compute_weights(panel, nonparametric_daily_hazard(panel))
    assert np.all(reference_weight_matrix(weights)[0, 1:] == 0.0)  # exposed on day 2


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


def normal_x_cohort(n=20_000):
    """One person-day per subject, exposed on day 1 or out on day 1, with a
    normal x: logit P(exposed) = -3 + x."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=n)
    p = 1.0 / (1.0 + np.exp(-(-3.0 + 1.0 * x)))
    y = rng.random(n) < p
    return Cohort(tuple(
        Subject(str(i), 1.0 if y[i] else None, 2.0 if y[i] else 1.0, "discharge", {"x": float(x[i])})
        for i in range(n)
    ), horizon=2)


def flat_likelihood_cohort():
    """An ICU-like whole-day cohort with a binary x, whose pooled logistic
    likelihood is flat near its optimum."""
    drawn = simulate_cohort(icu_like_spec(round_days=True), 2000, 2)
    rng = np.random.default_rng(3)
    return Cohort(tuple(
        Subject(s.id, s.inf_time, s.end_time, s.end_status, {"x": float(rng.integers(0, 2))})
        for s in drawn.subjects if s.end_status != "censored"
    ))


def test_pooled_logistic_recovers_coefficients():
    panel = discretize(normal_x_cohort())
    assert reference_person_days(panel)[0].size == panel.n_subjects
    model = fit_pooled_logistic(panel, ("x",))
    assert model.coefficients[0] == pytest.approx(-3.0, abs=0.15)
    assert model.coefficients[1] == pytest.approx(1.0, abs=0.15)


def reference_pooled_logistic(panel, names):
    """The pooled logistic fit on one row per subject-day at risk, from the
    dense person-day reference: the row-level Bernoulli likelihood, through
    the same solver with the same messages."""
    subj, _, infected = reference_person_days(panel)
    y = infected.astype(float)
    covs = np.array([panel.covariates[name] for name in names], dtype=float)
    x = np.column_stack([np.ones(y.size), covs.reshape(len(names), panel.n_subjects).T[subj]])
    terms = ("intercept",) + tuple(names)

    def evaluate(beta):
        z = x @ beta
        p = 1.0 / (1.0 + np.exp(-z))
        ll = float(np.sum(y * z - np.logaddexp(0.0, z)))
        return ll, x.T @ (y - p), (x * (p * (1.0 - p))[:, None]).T @ x

    beta, ll, _, it = newton(
        evaluate, terms,
        singular=f"singular information matrix; check covariates {terms}",
        diverged="coefficients diverged (|beta| > 30), driven by {!r}",
        unconverged="pooled logistic fit did not converge in 100 iterations",
    )
    return ExposureModel(beta, tuple(names), it, ll)


FIT_COHORTS = {"normal_x": normal_x_cohort, "flat_likelihood": flat_likelihood_cohort}


@pytest.mark.parametrize("names", [(), ("x",)])
@pytest.mark.parametrize("name", [*(name for name, cohort in EDGE_COHORTS.items()
                                    if "x" in cohort.covariates), *FIT_COHORTS])
def test_pooled_logistic_equals_the_person_day_fit(name, names):
    # the sums per covariate pattern add the person-day terms in another
    # order: the same fit up to rounding, in as many iterations
    cohort = FIT_COHORTS[name]() if name in FIT_COHORTS else EDGE_COHORTS[name]
    panel = discretize(cohort, allow_drop=True)
    model, want = fit_pooled_logistic(panel, names), reference_pooled_logistic(panel, names)
    assert model.covariate_names == want.covariate_names
    assert model.iterations == want.iterations
    np.testing.assert_allclose(model.coefficients, want.coefficients, rtol=1e-12, atol=0)
    assert model.log_likelihood == pytest.approx(want.log_likelihood, rel=1e-12, abs=0)


def test_pooled_logistic_separation():
    subjects = tuple(
        Subject(str(i), 1.0 if i < 5 else None, 2.0, "discharge", {"x": 1.0 if i < 5 else 0.0})
        for i in range(10)
    )
    panel = discretize(Cohort(subjects, horizon=2))
    with pytest.raises(SeparationError):
        fit_pooled_logistic(panel, ("x",))


def test_pooled_logistic_needs_both_outcomes():
    panel = panel_of(Subject("A", None, 2.0, "death"), Subject("B", None, 2.0, "death"), horizon=2)
    with pytest.raises(DataError, match="no exposure events"):
        fit_pooled_logistic(panel, ())


def test_weight_table_shape_checked():
    panel = panel_of(Subject("A", None, 2.0, "death"), horizon=2)
    other = panel_of(Subject("A", None, 3.0, "death"), horizon=3)
    weights = compute_weights(other, nonparametric_daily_hazard(other))
    with pytest.raises(DataError):
        ipw_f01(panel, weights)
    for probs in (nonparametric_daily_hazard(other), np.zeros(2), np.zeros((2, 2))):
        with pytest.raises(DataError, match=r"daily_probs must have shape \(n_subjects, n_days\)"):
            compute_weights(panel, probs)


def test_a_panel_of_no_subjects_is_undefined_from_day_one():
    # discretize never builds one (an empty cohort raises); a panel built by
    # hand has no weights to sum, and both ratios are 0 / 0 from day 1
    none = np.empty(0, np.int64)
    panel = DailyPanel((), none, none, none, 3, {})
    for curve in (naive_f01(panel), ipw_f01(panel, empirical_weights(panel))):
        assert curve.undefined_from == 1.0 and np.isnan(curve.values).all()


def test_pooled_logistic_converges_where_the_likelihood_is_flat():
    # near this fit's optimum a Newton step changes the log-likelihood
    # (about -2e3) by less than its rounding; without a relative slack the
    # step-halving rejects every step and the fit stops after 100 iterations
    model = fit_pooled_logistic(discretize(flat_likelihood_cohort()), ("x",))
    assert model.iterations < 20


@pytest.mark.parametrize("value", [1.5, -0.1, np.nan, np.inf])
def test_compute_weights_rejects_probabilities_outside_the_unit_interval(value):
    panel = panel_of(Subject("A", 2.0, 5.0, "death"), Subject("B", None, 4.0, "death"), horizon=5)
    probs = nonparametric_daily_hazard(panel)
    probs[1, 2] = value
    with pytest.raises(DataError) as info:
        compute_weights(panel, probs)
    assert str(info.value) == f"subject B, day 3: probability {value} is not a finite number in [0, 1]"


@pytest.mark.parametrize("block_cells", [1 << 16, 6])  # one block, or one subject a block
@pytest.mark.parametrize("subject, day, unbounded", [
    (1, 4, True), (1, 5, False),  # B, never exposed, leaves on day 4: reads days 1..4
    (0, 1, True), (0, 2, False),  # A, exposed on day 2: reads day 1 only
])
def test_positivity_check_reads_the_last_cell_each_subject_reads(monkeypatch, block_cells,
                                                                 subject, day, unbounded):
    # a probability of 1 makes the inverse survival inf from that day on
    panel = panel_of(Subject("A", 2.0, 5.0, "death"), Subject("B", None, 4.0, "discharge"),
                     horizon=5)
    monkeypatch.setattr(discrete, "_BLOCK_CELLS", block_cells)
    probs = np.full((2, 5), 0.25)
    probs[subject, day - 1] = 1.0
    if unbounded:
        with pytest.raises(PositivityError) as info:
            compute_weights(panel, probs)
        assert str(info.value) == ("a daily exposure probability reached 1 on an unexposed path; "
                                   "weights are unbounded")
    assert_weights_match(panel, lambda p: compute_weights(p, probs), probs)
