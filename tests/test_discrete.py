import io
import tracemalloc

import numpy as np
import pytest

from pafmsm import (
    Cohort,
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
    expand_person_days,
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
    """The table's dense (n_subjects, n_days) weights, filled block by block."""
    out = np.empty((table.n_subjects, table.n_days))
    for part, inverse, local in table._blocks():
        table._fill(part, inverse, local, out[part])
    return out


def reference_weight_csv(table):
    """``WeightTable.to_csv`` as one formatted write per numpy cell."""
    buf = io.StringIO()
    buf.write("id,day,weight\n")
    weights = reference_weight_matrix(table)
    n, m = weights.shape
    for i in range(n):
        for t in range(m):
            buf.write(f"{table.ids[i]},{t + 1},{weights[i, t]:.12g}\n")
    return buf.getvalue()


def reference_person_day_csv(records):
    """``PersonDayRecords.to_csv`` as one formatted write per numpy cell."""
    buf = io.StringIO()
    buf.write("id,day,at_risk,infected_today")
    for name in records.covariate_names:
        buf.write(f",{name}")
    buf.write("\n")
    for r in range(len(records)):
        buf.write(f"{records.ids[records.subject_ids[r]]},{records.days[r]},1,"
                  f"{int(records.infected_today[r])}")
        for c in range(records.covariates.shape[1]):
            buf.write(f",{float(records.covariates[r, c])}")
        buf.write("\n")
    return buf.getvalue()


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
    rec = expand_person_days(panel)
    for got, want in zip((rec.subject_ids, rec.days, rec.infected_today),
                         reference_person_days(panel)):
        assert_same(got, want)
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


@pytest.mark.parametrize("name", ["fractional", "shifted_ties", "random_2", "random_3"])
def test_csv_writers_equal_the_row_loops(monkeypatch, name):
    panel = discretize(EDGE_COHORTS[name], allow_drop=True)
    names = ("x",) if "x" in panel.covariates else ()
    records = expand_person_days(panel, names)
    table = empirical_weights(panel)
    assert records.to_csv() == reference_person_day_csv(records)
    assert table.to_csv() == reference_weight_csv(table)
    monkeypatch.setattr(discrete, "_CSV_CHUNK", 3)
    monkeypatch.setattr(discrete, "_BLOCK_CELLS", 2 * panel.n_days)
    assert records.to_csv() == reference_person_day_csv(records)
    assert table.to_csv() == reference_weight_csv(table)


def test_panel_estimators_stay_linear_in_memory():
    # naive and the death proportion are day counts: nothing of size
    # n x days may be allocated, as a dense panel of uint8 would be
    n, m = 20_000, 400
    rng = np.random.default_rng(11)
    end = rng.integers(1, m + 1, n).astype(float)
    inf = np.floor(rng.uniform(0, end))
    inf[(inf == 0) | (rng.random(n) < 0.5)] = np.nan
    cohort = Cohort.from_columns(np.arange(n).astype(str), inf, end, rng.integers(1, 3, n),
                                 horizon=m)
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
    # the weights are built and summed in blocks of subjects: a dense
    # (n x days) float array would take 8 bytes a cell.  Stays are short
    # (mean 3.3 days of 400), because the pooled logistic fit holds about
    # 100 bytes per person-day at risk; that design is not the weights.
    n, m = 20_000, 400
    rng = np.random.default_rng(11)
    end = rng.geometric(0.3, n).astype(float)
    inf = np.floor(rng.uniform(0, end))
    inf[(inf == 0) | (rng.random(n) < 0.5)] = np.nan
    cohort = Cohort.from_columns(np.arange(n).astype(str), inf, end, rng.integers(1, 3, n),
                                 {"x": rng.integers(0, 2, n).astype(float)}, horizon=m)
    tracemalloc.start()
    try:
        estimate_paf(cohort, "paf_c", "ipw", covariates=covariates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * m


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


def test_person_day_csv_covariates_read_back_exactly():
    values = (1234567.891, 0.1234567)
    panel = panel_of(*(Subject(f"s{i}", None, 2.0, "death", {"x": v}) for i, v in enumerate(values)),
                     horizon=2)
    lines = expand_person_days(panel, ("x",)).to_csv().splitlines()[1:]
    assert [float(line.split(",")[-1]) for line in lines] == [v for v in values for _ in (1, 2)]


def test_a_covariate_that_is_not_finite_is_a_data_error():
    for value in (float("nan"), float("inf")):
        panel = panel_of(Subject("A", 1.0, 2.0, "death", {"x": 0.0}),
                         Subject("B", None, 2.0, "death", {"x": value}), horizon=2)
        with pytest.raises(DataError, match="subject B: covariate 'x' is"):
            expand_person_days(panel, ("x",))


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
