import dataclasses
import hashlib
import operator
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pafmsm import (
    Cohort,
    DataError,
    FourfoldTable,
    HazardSpec,
    NumericalError,
    Subject,
    bootstrap_ci,
    discretize,
    estimate_paf,
    cif_counterfactual,
    cpf_unexposed,
    fourfold_at,
    overall_death_risk,
    paf_c,
    paf_fixed,
    paf_o,
    parse_cohort,
    preventable_count,
    simulate_cohort,
    stratified_paf,
    to_transitions,
)
from pafmsm import discrete
from pafmsm import paf as paf_module
from pafmsm._bytes import _CSV_CHUNK
from pafmsm.curves import StepCurve
from pafmsm.simulate import icu_like_spec

from conftest import REPO_ROOT, integer_cohort
from test_discrete import EDGE_COHORTS, uniform_stays_cohort

TWO = Cohort((Subject("A", None, 1.0, "death"), Subject("B", 1.0, 2.0, "death")), horizon=2)


def test_hand_cohort_exhibits_the_estimand_gap():
    assert estimate_paf(TWO, "paf_o")(2.0) == 0.0
    assert estimate_paf(TWO, "paf_c")(2.0) == 0.5


def test_paf_undefined_before_the_first_death():
    cohort = Cohort((Subject("A", None, 5.0, "death"),), horizon=5)
    curve = estimate_paf(cohort, "paf_o")
    assert np.isnan(curve(1.0))
    assert curve(5.0) == 0.0


def test_zero_exposure_cohort_gives_zero_paf():
    cohort = Cohort(
        tuple(Subject(str(i), None, float(i + 1), "death" if i % 2 else "discharge") for i in range(10))
    )
    for estimand in ("paf_o", "paf_c"):
        curve = estimate_paf(cohort, estimand)
        values = curve(curve.times)
        assert np.all((values == 0.0) | np.isnan(values))


def test_paf_never_exceeds_one():
    for seed in (1, 9, 17):
        cohort = integer_cohort(seed, n=120)
        for estimand in ("paf_o", "paf_c"):
            curve = estimate_paf(cohort, estimand)
            assert np.nanmax(curve(curve.times)) <= 1.0


def test_multistate_equals_discrete_counterparts():
    cohort = integer_cohort(23, n=150)
    days = np.arange(1.0, np.ceil(cohort.horizon) + 1.0)
    for estimand, discrete in (("paf_o", "naive"), ("paf_c", "ipw")):
        a = estimate_paf(cohort, estimand, "multistate")(days)
        b = estimate_paf(cohort, estimand, discrete)(days)
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        mask = ~np.isnan(a)
        assert np.max(np.abs(a[mask] - b[mask])) < 1e-12


def test_invalid_pairs_rejected():
    with pytest.raises(ValueError):
        estimate_paf(TWO, "paf_o", "ipw")
    with pytest.raises(ValueError):
        estimate_paf(TWO, "paf_c", "naive")
    with pytest.raises(ValueError):
        estimate_paf(TWO, "paf_x")


def test_paf_fixed_arithmetic():
    # P(D) = 0.2, P(D | unexposed) = 0.1
    table = FourfoldTable(exposed_cases=15, exposed_noncases=35, unexposed_cases=5, unexposed_noncases=45)
    assert paf_fixed(table) == pytest.approx(0.5)


def test_paf_fixed_equals_paf_o_at_the_end():
    cohort = integer_cohort(3, n=100)
    tau = cohort.horizon
    fixed = paf_fixed(fourfold_at(cohort, tau))
    assert fixed == pytest.approx(estimate_paf(cohort, "paf_o")(tau), abs=1e-12)


def test_fourfold_at_counts_an_exposure_and_a_death_at_t_itself():
    cohort = Cohort((Subject("A", 2.0, 5.0, "death"), Subject("B", None, 2.0, "death"),
                     Subject("C", 3.0, 4.0, "discharge")), horizon=5)
    assert fourfold_at(cohort, 2.0) == FourfoldTable(exposed_cases=0, exposed_noncases=1,
                                                     unexposed_cases=1, unexposed_noncases=1)


def test_paf_fixed_degenerate_tables():
    assert np.isnan(paf_fixed(FourfoldTable(0, 10, 0, 10)))
    assert paf_fixed(FourfoldTable(0, 0, 5, 5)) == 0.0
    assert np.isnan(paf_fixed(FourfoldTable(3, 7, 0, 0)))  # nobody unexposed
    with pytest.raises(DataError):
        paf_fixed(FourfoldTable(0, 0, 0, 0))


def test_preventable_counts_round_to_nearest():
    assert preventable_count(0.073, 147) == 11
    assert preventable_count(0.055, 147) == 8
    assert preventable_count(0.0, 500) == 0
    with pytest.raises(DataError):
        preventable_count(float("nan"), 10)


def test_paf_from_its_building_blocks_equals_the_estimate():
    cohort = integer_cohort(3, n=100)
    overall = overall_death_risk(cohort)
    for estimand, curve in (("paf_o", paf_o(overall, cpf_unexposed(cohort))),
                            ("paf_c", paf_c(overall, cif_counterfactual(cohort)))):
        assert curve.to_csv() == estimate_paf(cohort, estimand).to_csv()
        assert curve.to_csv().startswith("t,value\n")


def test_bootstrap_is_deterministic():
    cohort = integer_cohort(8, n=80)
    grid = np.array([5.0, 10.0, 20.0])
    a = bootstrap_ci(cohort, "paf_c", B=60, seed=3, grid=grid)
    b = bootstrap_ci(cohort, "paf_c", B=60, seed=3, grid=grid)
    np.testing.assert_array_equal(a.lower.values, b.lower.values)
    np.testing.assert_array_equal(a.upper.values, b.upper.values)
    c = bootstrap_ci(cohort, "paf_c", B=60, seed=4, grid=grid)
    assert not np.array_equal(a.lower.values, c.lower.values)


def test_bootstrap_zero_width_on_identical_subjects():
    cohort = Cohort(tuple(Subject(str(i), None, 2.0, "death") for i in range(15)), horizon=3)
    bands = bootstrap_ci(cohort, "paf_o", B=40, seed=1, grid=np.array([2.0]))
    assert bands.lower(2.0) == 0.0
    assert bands.upper(2.0) == 0.0


def test_bootstrap_band_ordering_and_coverage_of_point():
    cohort = integer_cohort(12, n=120)
    bands = bootstrap_ci(cohort, "paf_o", B=100, seed=5, grid=np.array([10.0, 20.0]))
    lo, hi = bands.lower.values, bands.upper.values
    assert np.all(lo <= hi)


def test_bootstrap_default_grid_is_every_day_up_to_the_rounded_up_horizon():
    cohort = integer_cohort(8, n=60)
    cohort = Cohort.from_columns(cohort.ids, cohort.inf, cohort.end, cohort.status,
                                 horizon=cohort.horizon + 0.5)
    days = np.arange(1.0, cohort.horizon + 1.0)  # 1 .. ceil(horizon)
    assert days[-1] == np.ceil(cohort.horizon)
    default = bootstrap_ci(cohort, "paf_o", B=20, seed=1)
    explicit = bootstrap_ci(cohort, "paf_o", B=20, seed=1, grid=days)
    np.testing.assert_array_equal(default.lower.times, days)
    assert default.to_csv() == explicit.to_csv()


def test_bootstrap_undefined_majority_blanks_the_band():
    # nobody dies before day 3, so PAF is undefined there in every replicate
    cohort = Cohort(tuple(Subject(str(i), None, 3.0, "death") for i in range(12)), horizon=4)
    bands = bootstrap_ci(cohort, "paf_o", B=20, seed=2, grid=np.array([1.0, 3.0]))
    assert np.isnan(bands.lower(1.0))
    assert bands.lower(3.0) == 0.0
    assert "1,,,,0" in bands.to_csv()


@pytest.mark.parametrize("columns", ["mixed", "no NaN", "all NaN", "no columns"])
def test_percentile_band_equals_the_per_column_nanpercentile(columns):
    rng = np.random.default_rng(11)
    est = rng.normal(size=(40, 7))
    est[:, 1] = np.round(est[:, 1])  # ties
    est[:, 2] = 0.25  # a constant column
    est[rng.permutation(40)[:4], 3] = np.nan  # partly NaN
    est[rng.permutation(40)[:25], 4] = np.nan  # more than half NaN
    est[rng.permutation(40)[:39], 5] = np.nan  # one value left
    est[:, 6] = np.nan
    est = {"mixed": est, "no NaN": est[:, :3], "all NaN": est[:, 6:], "no columns": est[:, :0]}[columns]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        expected = [[np.nanpercentile(est[:, j], q) for j in range(est.shape[1])]
                    for q in (2.5, 97.5)]
    assert paf_module._percentile_band(est).tobytes() == np.array(expected).reshape(2, -1).tobytes()


def _loop_replicates(cohort, estimand, B, seed, grid):
    """The per-replicate definition: estimate_paf on the drawn rows of each stream."""
    n = len(cohort)
    rows = []
    for stream in np.random.SeedSequence(seed).spawn(B):
        idx = np.random.default_rng(stream).integers(0, n, size=n)
        drawn = Cohort.from_columns([str(i) for i in range(n)], cohort.inf[idx], cohort.end[idx],
                                    cohort.status[idx], horizon=cohort.horizon)
        rows.append(estimate_paf(drawn, estimand)(grid))
    return np.array(rows)


ENGINE_COHORTS = {
    "tied_days_censored": integer_cohort(8, n=80, censored=True),
    "continuous_censored": simulate_cohort(
        HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=30.0), 120, seed=4),
    # nobody dies before day 3: PAF is undefined there in every replicate
    "no_early_deaths": Cohort(tuple(Subject(str(i), None, 3.0, "death") for i in range(12)),
                              horizon=4),
    # everybody is exposed on day 1: the CPF is undefined from there on
    "all_exposed": Cohort(tuple(Subject(str(i), 1.0, 2.0 + i % 3, "death" if i % 2 else "discharge")
                                for i in range(9)), horizon=5),
}


@pytest.mark.parametrize("estimand", ["paf_o", "paf_c"])
@pytest.mark.parametrize("name", list(ENGINE_COHORTS))
def test_count_weight_replicates_equal_the_per_replicate_estimates(name, estimand):
    # on the day grid, and on grids that end before the first exit, at exit
    # times and past the last one
    cohort = ENGINE_COHORTS[name]
    times = np.unique(np.concatenate((cohort.end, cohort.inf[cohort.exposed])))
    grids = [np.concatenate(([0.5], np.arange(1.0, cohort.horizon + 2.0)))]
    grids += [np.array([end / 4, end / 2, end]) for end in (
        times[0] / 2, times[0], times[times.size // 2], times[-1], times[-1] + 0.5)]
    words = paf_module._child_words(6, 40)
    for grid in grids:
        got = paf_module._multistate_replicates(to_transitions(cohort), estimand, words, grid)
        assert got.tobytes() == _loop_replicates(cohort, estimand, 40, 6, grid).tobytes(), grid


def _recorded_blocks(monkeypatch):
    """The sizes of the blocks of draws that ``paf._draw_block`` makes from here on."""
    sizes, draw_block = [], paf_module._draw_block
    monkeypatch.setattr(paf_module, "_draw_block",
                        lambda words, n: sizes.append(len(words)) or draw_block(words, n))
    return sizes


# Per replicate of this cohort (n = 80 over 60 days), a multistate block
# of draws holds 4 x 23 cells, its larger exit table, and a naive block the
# 80 draws; an IPW replicate sums its subjects in blocks of a day's cells
# each.  These _BLOCK_CELLS make blocks of 1, or blocks of 3 with a last
# block of 1.
BLOCK_ESTIMATORS = {"multistate": ("paf_c", paf_module, 92), "naive": ("paf_o", paf_module, 80),
                    "ipw": ("paf_c", discrete, 60)}


@pytest.mark.parametrize("rows", [1, 3], ids=["blocks_of_1", "blocks_of_3"])
def test_replicate_blocks_do_not_change_the_bands(monkeypatch, rows):
    cohort = ENGINE_COHORTS["tied_days_censored"]
    for estimator, (estimand, module, cells) in BLOCK_ESTIMATORS.items():
        whole = bootstrap_ci(cohort, estimand, estimator, B=40, seed=3, allow_drop=True)
        monkeypatch.setattr(module, "_BLOCK_CELLS", rows * cells + 2)
        sizes = _recorded_blocks(monkeypatch)
        blocked = bootstrap_ci(cohort, estimand, estimator, B=40, seed=3, allow_drop=True)
        monkeypatch.undo()
        draw_blocks = [rows] * (40 // rows) + [1] * (rows == 3)
        assert sizes == ([] if estimator == "ipw" else draw_blocks), estimator
        grid = whole.lower.times
        assert blocked.lower.times.tobytes() == grid.tobytes(), estimator
        assert blocked.lower.values.tobytes() == whole.lower.values.tobytes(), estimator
        assert blocked.upper.values.tobytes() == whole.upper.values.tobytes(), estimator
        assert blocked.estimate(grid).tobytes() == whole.estimate(grid).tobytes(), estimator
        assert blocked.to_csv() == whole.to_csv(), estimator
        assert blocked.failed == whole.failed == 0


def test_multistate_bootstrap_memory_stays_within_its_blocks():
    # a block of replicates holds integer exit tables of at most
    # _BLOCK_CELLS cells; sweeps of (block x n) float temporaries took
    # 14.6 MB, and one (block x 7 x T) six-state table per block 3.16 MB
    cohort = simulate_cohort(icu_like_spec(), 1000, seed=3)
    tracemalloc.start()
    try:
        bootstrap_ci(cohort, "paf_o", B=500, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def covariate_cohort(names, n=300, seed=5):
    """An ``icu_like_spec(round_days=True)`` cohort of n subjects with the
    baseline covariates ``names`` drawn at random: ``x`` binary, ``k`` of 4
    levels, ``u`` continuous rounded to one decimal."""
    cohort = simulate_cohort(icu_like_spec(round_days=True), n, seed=seed)
    rng = np.random.default_rng(seed)
    draw = {"x": lambda: rng.integers(0, 2, n).astype(float),
            "k": lambda: rng.integers(0, 4, n).astype(float),
            "u": lambda: np.round(rng.normal(0.0, 1.0, n), 1)}
    return Cohort.from_columns(cohort.ids, cohort.inf, cohort.end, cohort.status,
                               {name: draw[name]() for name in names}, horizon=cohort.horizon)


def _take(panel, idx):
    """Subjects ``idx`` of ``panel`` as a panel of their own; the ids, which
    only label exports, stay the panel's."""
    return dataclasses.replace(
        panel, exposure_day=panel.exposure_day[idx], terminal_day=panel.terminal_day[idx],
        status=panel.status[idx], covariates={k: v[idx] for k, v in panel.covariates.items()})


def _refit_replicates(panel, streams, grid, estimand="paf_c", estimator="ipw", covariates=()):
    """The per-replicate definition of the panel bands: each resampled
    panel refit, its exposure model included; a replicate that raises a
    numerical error, or a data error (no exposure drawn, say), keeps a NaN
    row and counts as failed."""
    n = panel.n_subjects
    est, failed = np.full((len(streams), grid.size), np.nan), 0
    for row, stream in zip(est, streams):
        idx = np.random.default_rng(stream).integers(0, n, size=n)
        try:
            row[:] = paf_module._paf_from(estimand, estimator, covariates, _take(panel, idx))(grid)
        except (NumericalError, DataError):
            failed += 1
    return est, failed


IPW_COHORTS = {
    **{name: EDGE_COHORTS[name] for name in ("one_day", "dropped_censored", "all_exposed")},
    "tied_days_censored": ENGINE_COHORTS["tied_days_censored"],
}
PANEL_COHORTS = {**IPW_COHORTS, "engine_all_exposed": ENGINE_COHORTS["all_exposed"],
                 **{name: ENGINE_COHORTS[name] for name in ("continuous_censored", "no_early_deaths")}}


@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("name", list(IPW_COHORTS))
def test_ipw_replicates_equal_the_refits(monkeypatch, name, rows):
    panel = discretize(IPW_COHORTS[name], allow_drop=True)
    if rows:  # blocks of 1 and of 3 subjects
        monkeypatch.setattr(discrete, "_BLOCK_CELLS", rows * panel.n_days)
    grid = np.concatenate(([0.5], np.arange(1.0, panel.n_days + 2.0)))
    got, failed = paf_module._ipw_replicates(panel, (), paf_module._child_words(9, 40), grid)
    want, want_failed = _refit_replicates(panel, np.random.SeedSequence(9).spawn(40), grid)
    assert failed == want_failed
    assert got.tobytes() == want.tobytes()


def one_exposed_cohort():
    """Twelve subjects with a binary covariate, one of them exposed: a
    resample that misses subject 0 has no exposure for the model to fit."""
    return Cohort(tuple(Subject(str(i), 1.0 if i == 0 else None, 3.0,
                                "death" if i % 2 else "discharge", {"x": float(i % 2)})
                        for i in range(12)))


COVARIATE_COHORTS = {
    "binary": (("x",), covariate_cohort(("x",), n=150, seed=2)),
    "four_levels": (("k",), covariate_cohort(("k",), n=150, seed=3)),
    "two": (("x", "k"), covariate_cohort(("x", "k"), n=150, seed=4)),
    "rounded_continuous": (("u",), covariate_cohort(("u",), n=150, seed=6)),
    "one_exposed": (("x",), one_exposed_cohort()),  # 16 of the 40 replicates fail
}


@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("name", list(COVARIATE_COHORTS))
def test_ipw_covariate_replicates_equal_the_refits(monkeypatch, name, rows):
    covariates, cohort = COVARIATE_COHORTS[name]
    panel = discretize(cohort, allow_drop=True)
    if rows:  # blocks of 1 and of 3 subjects
        monkeypatch.setattr(discrete, "_BLOCK_CELLS", rows * panel.n_days)
    grid = np.concatenate(([0.5], np.arange(1.0, panel.n_days + 2.0)))
    got, failed = paf_module._ipw_replicates(panel, covariates, paf_module._child_words(9, 40), grid)
    want, want_failed = _refit_replicates(panel, np.random.SeedSequence(9).spawn(40), grid,
                                          covariates=covariates)
    assert failed == want_failed
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["four_levels", "two", "rounded_continuous"])
def test_each_drawn_pattern_row_is_built_once_a_replicate(monkeypatch, name):
    # more weight patterns than a block of subjects holds, but fewer drawn
    # by each replicate: one set of rows a replicate, the drawn patterns'
    covariates, cohort = COVARIATE_COHORTS[name]
    panel = discretize(cohort, allow_drop=True)
    index = paf_module._panel_weights(panel, covariates)._patterns(discrete._death_days(panel)).index
    words, streams = paf_module._child_words(9, 40), np.random.SeedSequence(9).spawn(40)
    drawn = [np.unique(index[idx]).size for idx in paf_module._draws(words, panel.n_subjects)]
    step = max(drawn)
    assert step < index.max() + 1
    monkeypatch.setattr(discrete, "_BLOCK_CELLS", step * panel.n_days)
    built, weight_rows = [], discrete._weight_rows
    monkeypatch.setattr(discrete, "_weight_rows",
                        lambda factors, rows, cells, *masks: built.append(len(cells))
                        or weight_rows(factors, rows, cells, *masks))
    grid = np.arange(1.0, panel.n_days + 1.0)
    got, failed = paf_module._ipw_replicates(panel, covariates, words, grid)
    assert built == drawn
    want, want_failed = _refit_replicates(panel, streams, grid, covariates=covariates)
    assert failed == want_failed == 0
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("name", list(PANEL_COHORTS))
def test_naive_replicates_equal_the_refits(monkeypatch, name, rows):
    panel = discretize(PANEL_COHORTS[name], allow_drop=True)
    sizes = _recorded_blocks(monkeypatch)
    if rows:  # blocks of 1 and of 3 replicates
        monkeypatch.setattr(paf_module, "_BLOCK_CELLS",
                            rows * max(panel.n_days + 2, panel.n_subjects))
    grid = np.arange(0.5, panel.n_days + 2.0, 0.5)
    got = paf_module._naive_replicates(panel, paf_module._child_words(5, 40), grid)
    want, failed = _refit_replicates(panel, np.random.SeedSequence(5).spawn(40), grid,
                                     "paf_o", "naive")
    assert failed == 0
    assert got.tobytes() == want.tobytes()
    if rows:
        assert sizes == [rows] * (40 // rows) + [40 % rows] * (40 % rows > 0)


def _certain_on_day_one(replicate):
    """``_daily_hazard`` with the hazard of day 1 set to 1 on the panels
    that ``replicate(exposure, terminal)`` picks.  Empirical weights never
    exceed n, so no cohort makes an IPW replicate fail by itself; this
    makes unbounded the weights of everybody unexposed after day 1."""
    daily_hazard = discrete._daily_hazard

    def hazard_of(exposure, terminal, m):
        hazard, left_unexposed = daily_hazard(exposure, terminal, m)
        if replicate(exposure, terminal):
            hazard[0] = 1.0
        return hazard, left_unexposed

    return hazard_of


def test_ipw_replicates_fail_where_the_refits_do(monkeypatch):
    panel = discretize(ENGINE_COHORTS["tied_days_censored"], allow_drop=True)
    picked = _certain_on_day_one(lambda exposure, terminal: terminal.sum() % 3 == 0
                                 and not np.array_equal(terminal, panel.terminal_day))
    monkeypatch.setattr(discrete, "_daily_hazard", picked)  # the refits' weights
    monkeypatch.setattr(paf_module, "_daily_hazard", picked)  # the replicates' hazard
    grid = np.arange(1.0, panel.n_days + 1.0)
    got, failed = paf_module._ipw_replicates(panel, (), paf_module._child_words(4, 40), grid)
    want, want_failed = _refit_replicates(panel, np.random.SeedSequence(4).spawn(40), grid)
    assert 0 < failed == want_failed < 40
    assert got.tobytes() == want.tobytes()


def test_a_failed_replicate_leaves_its_neighbours_as_the_refits(monkeypatch):
    # the fifth of six IPW replicates certain to be exposed on day 1: its
    # weights are unbounded, and those of the replicates around it are not
    panel = discretize(ENGINE_COHORTS["tied_days_censored"], allow_drop=True)
    n, streams = panel.n_subjects, np.random.SeedSequence(4).spawn(6)
    middle = np.random.default_rng(streams[4]).integers(0, n, size=n)
    picked = _certain_on_day_one(lambda exposure, terminal: np.array_equal(
        exposure, panel.exposure_day[middle]) and np.array_equal(terminal, panel.terminal_day[middle]))
    monkeypatch.setattr(discrete, "_daily_hazard", picked)  # the refits' weights
    monkeypatch.setattr(paf_module, "_daily_hazard", picked)  # the replicates' hazards
    grid = np.arange(1.0, panel.n_days + 1.0)
    got, failed = paf_module._ipw_replicates(panel, (), paf_module._child_words(4, 6), grid)
    want, want_failed = _refit_replicates(panel, streams, grid)
    assert failed == want_failed == 1
    assert np.isnan(got[4]).all() and np.isfinite(got[[3, 5], -1]).all()
    assert got[[3, 5]].tobytes() == want[[3, 5]].tobytes()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["one_day", "one_day_runs"])
def test_one_day_panels_equal_the_refits(monkeypatch, name):
    panel = discretize(EDGE_COHORTS[name], allow_drop=True)
    n, grid = panel.n_subjects, np.array([0.5, 1.0, 2.0])
    assert panel.n_days == 1
    words, streams = paf_module._child_words(8, 7), np.random.SeedSequence(8).spawn(7)
    got, failed = paf_module._ipw_replicates(panel, (), words, grid)
    want, want_failed = _refit_replicates(panel, streams, grid)
    assert failed == want_failed == 0
    assert got.tobytes() == want.tobytes()
    sizes = _recorded_blocks(monkeypatch)
    monkeypatch.setattr(paf_module, "_BLOCK_CELLS", 3 * n)  # naive blocks of 3
    got = paf_module._naive_replicates(panel, words, grid)
    want, _ = _refit_replicates(panel, streams, grid, "paf_o", "naive")
    assert got.tobytes() == want.tobytes()
    assert sizes == [3, 3, 1]


def test_ipw_bootstrap_stays_linear_in_memory():
    # replicates without covariates are summed one at a time from the rows
    # of their weight patterns, in blocks, and those with covariates refit
    # one row per covariate pattern: a dense (n x days) float matrix would
    # take 8 bytes a cell, and a batch of replicates more
    n, m = 20_000, 400
    cohort = uniform_stays_cohort(n, m)
    for covariates in ((), ("x",)):
        tracemalloc.start()
        try:
            bootstrap_ci(cohort, "paf_c", "ipw", B=3, seed=1, covariates=covariates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m, covariates


def test_naive_bootstrap_stays_linear_in_memory():
    # naive replicates are day counts of blocks of draws: a resampled
    # dense (n x days) panel would take a byte a cell, its weights 8
    n, m = 20_000, 400
    cohort = uniform_stays_cohort(n, m)
    tracemalloc.start()
    try:
        bootstrap_ci(cohort, "paf_o", "naive", B=3, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * m


@pytest.mark.parametrize("failing", [9, 10, 11])
def test_bootstrap_counts_failed_replicates(monkeypatch, failing):
    # the first ``failing`` replicates fail the bounded-weight check
    calls = []

    def first_replicates(exposure, terminal):
        calls.append(None)
        return len(calls) <= failing

    monkeypatch.setattr(paf_module, "_daily_hazard", _certain_on_day_one(first_replicates))
    bands = bootstrap_ci(integer_cohort(8, n=80), "paf_c", "ipw", B=20, seed=1,
                         grid=np.array([20.0, 40.0]))
    assert bands.failed == failing
    if failing > 10:  # fewer than half the replicates are defined anywhere
        assert np.isnan(bands.lower.values).all() and np.isnan(bands.upper.values).all()
    else:  # exactly half of them at failing = 10
        assert np.isfinite(bands.lower.values).all() and np.isfinite(bands.upper.values).all()


def test_a_resample_without_exposure_is_a_failed_replicate():
    cohort = one_exposed_cohort()
    bands = bootstrap_ci(cohort, "paf_c", "ipw", B=50, seed=1, covariates=("x",))
    draws = [np.random.default_rng(s).integers(0, 12, size=12)
             for s in np.random.SeedSequence(1).spawn(50)]
    # a draw without subject 0 has no exposure (a data error); one whose
    # other subjects all have x = 1 has x separate the exposure (numerical)
    missed = [idx for idx in draws if 0 not in idx]
    separated = [idx for idx in draws if 0 in idx and all(i % 2 for i in idx if i)]
    assert (bands.failed, len(missed), len(separated)) == (22, 20, 2)
    with pytest.raises(DataError, match="no exposure events"):
        paf_module._paf_from("paf_c", "ipw", ("x",), _take(discretize(cohort), missed[0]))
    point = estimate_paf(cohort, "paf_c", "ipw", covariates=("x",))
    assert bands.estimate.to_csv() == point.to_csv()
    # the sample itself keeps its data error
    with pytest.raises(DataError, match="no exposure events"):
        bootstrap_ci(cohort.subset(np.arange(1, 12)), "paf_c", "ipw", B=50, seed=1,
                     covariates=("x",))


# sha256 of to_csv() and the failed count of covariate-model IPW bands, as
# the code that refit every resampled panel gave them
COVARIATE_BANDS = {
    "golden_daily_x": (lambda: parse_cohort(REPO_ROOT / "tests/golden/daily/cohort.csv"), ("x",),
                       200, 7, "13807d607036be8da7ea9bb903b6acc4b047f4323dbbc4bd389a929d5561c110", 0),
    "two_covariates": (lambda: covariate_cohort(("x", "k")), ("x", "k"), 200, 7,
                       "db19d7f51d1bbb5ce71638487761063a8cbcbc962866681c1719aff22bb9d043", 0),
    "one_exposed": (one_exposed_cohort, ("x",), 50, 1,
                    "67a4681fa0ea9b409d0a0aeb74fa4095c43ece5ac1bb6a4bcb9cd251d818792a", 22),
}


@pytest.mark.parametrize("name", list(COVARIATE_BANDS))
def test_covariate_bands_are_pinned(name):
    make, covariates, B, seed, digest, failed = COVARIATE_BANDS[name]
    bands = bootstrap_ci(make(), "paf_c", "ipw", B=B, seed=seed, covariates=covariates,
                         allow_drop=True)
    assert (hashlib.sha256(bands.to_csv().encode()).hexdigest(), bands.failed) == (digest, failed)


def reference_bands_csv(bands):
    """``CurveWithBands.to_csv`` formatted from numpy scalars, row by row."""
    def fmt(v):
        return "" if not np.isfinite(v) else format(v, ".12g")

    grid = bands.lower.times
    rows = zip(grid, np.atleast_1d(bands.estimate(grid)), bands.lower.values, bands.upper.values)
    return "t,estimate,lower,upper,defined\n" + "".join(
        f"{t:.12g},{fmt(e)},{fmt(lo)},{fmt(hi)},{int(np.isfinite(lo) and np.isfinite(hi))}\n"
        for t, e, lo, hi in rows
    )


@pytest.mark.parametrize("n", [0, 1, _CSV_CHUNK - 1, _CSV_CHUNK, 2 * _CSV_CHUNK + 17])
def test_bands_csv_equals_the_per_row_reference(n):
    rng = np.random.default_rng(n)
    grid = np.cumsum(rng.exponential(1.0, n)) * 10.0 ** rng.integers(-8, 8)
    lo, hi, est = (rng.normal(0.0, 10.0 ** rng.integers(-300, 300, n).astype(float) / 100.0)
                   for _ in range(3))
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, 1 / 3, 123456789012345.0]
    if n:
        for values in (lo, hi, est):
            values[rng.integers(0, n, len(specials))] = specials
    estimate = StepCurve(grid, est, initial=np.nan, undefined_from=grid[-1] if n else None)
    bands = paf_module.CurveWithBands(estimate, StepCurve(grid, lo, initial=np.nan),
                                      StepCurve(grid, hi, initial=np.nan), B=2, seed=0, failed=0)
    assert bands.to_csv() == reference_bands_csv(bands)


@pytest.mark.parametrize("k, n", [(0, 5), (1, 1), (7, 13), (3, 1000), (4, 2), (2, 65536)])
def test_a_draw_block_stacks_the_draws_of_every_stream(k, n):
    streams = np.random.SeedSequence(k + n).spawn(k)
    expected = np.array([np.random.default_rng(s).integers(0, n, size=n) for s in streams],
                        dtype=np.int64).reshape(k, n)
    block = paf_module._draw_block(paf_module._child_words(k + n, k), n)
    assert (block.dtype, block.shape, block.tobytes()) == (np.int64, (k, n), expected.tobytes())


def test_a_row_that_rejects_a_draw_comes_from_numpy(monkeypatch):
    # at n = 100003 two of these three rows reject one of their first n
    # 32-bit halves: their values shift, and numpy's own draws replace them
    n, streams = 100_003, np.random.SeedSequence(1).spawn(3)
    redrawn, draws = [], paf_module._draws
    monkeypatch.setattr(paf_module, "_draws", lambda words, n: redrawn.append(len(words))
                        or draws(words, n))
    block = paf_module._draw_block(paf_module._child_words(1, 3), n)
    assert redrawn == [1, 1]
    for row, stream in zip(block, streams):
        assert row.tobytes() == np.random.default_rng(stream).integers(0, n, size=n).tobytes()


def test_bootstrap_rejects_tiny_b():
    with pytest.raises(ValueError, match="^B must be >= 2$"):
        bootstrap_ci(TWO, "paf_o", B=1, seed=0)
    assert bootstrap_ci(TWO, "paf_o", B=2, seed=0).B == 2  # the smallest B that runs


def test_bootstrap_checks_its_grid_before_it_draws(monkeypatch):
    def drawn(*args):
        raise AssertionError("a replicate was drawn")

    pairs = [("paf_o", "multistate"), ("paf_c", "multistate"), ("paf_o", "naive"), ("paf_c", "ipw")]
    monkeypatch.setattr(paf_module, "_multistate_replicates", drawn)
    monkeypatch.setattr(paf_module, "_draws", drawn)
    for estimand, estimator in pairs:
        for grid in ([3.0, 1.0], [1.0, 1.0], [[1.0, 2.0]], [1.0, np.nan]):
            with pytest.raises(ValueError,
                               match="^grid must be a 1-d array of strictly increasing times$"):
                bootstrap_ci(TWO, estimand, estimator, B=2, seed=0, grid=grid)
    monkeypatch.undo()
    # an empty grid is no error: the replicates are drawn, and the bands are empty
    for estimand, estimator in pairs:
        sizes = _recorded_blocks(monkeypatch)
        bands = bootstrap_ci(TWO, estimand, estimator, B=2, seed=0, grid=[])
        monkeypatch.undo()
        assert sizes == ([] if estimator == "ipw" else [2])
        assert bands.lower.times.size == bands.upper.times.size == 0
        assert bands.to_csv() == "t,estimate,lower,upper,defined\n"


def test_stratified_single_level_matches_pooled():
    base = integer_cohort(4, n=80)
    subjects = tuple(
        Subject(s.id, s.inf_time, s.end_time, s.end_status, {"site": "a"}) for s in base.subjects
    )
    cohort = Cohort(subjects, horizon=base.horizon)
    strata = stratified_paf(cohort, "site", "paf_o")
    pooled = estimate_paf(cohort, "paf_o")
    np.testing.assert_array_equal(strata["a"].values, pooled.values)


def test_stratified_duplicated_strata_are_identical():
    base = integer_cohort(6, n=60)
    subjects = []
    for tag in ("a", "b"):
        for s in base.subjects:
            subjects.append(Subject(f"{tag}{s.id}", s.inf_time, s.end_time, s.end_status, {"site": tag}))
    cohort = Cohort(tuple(subjects), horizon=base.horizon)
    strata = stratified_paf(cohort, "site", "paf_c")
    np.testing.assert_array_equal(strata["a"].values, strata["b"].values)


def test_stratified_missing_covariate():
    with pytest.raises(DataError, match="covariate"):
        stratified_paf(TWO, "site", "paf_o")


def test_stratified_groups_nan_levels_into_one_stratum():
    cohort = parse_cohort(
        "id,inf_time,end_time,end_status,site\n"
        "A,,5,death,a\nB,,4,death,nan\nC,2,6,death,a\nD,,3,discharge,nan\n"
    )
    strata = stratified_paf(cohort, "site", "paf_o")
    assert [str(k) for k in strata] == ["a", "nan"]
    np.testing.assert_array_equal(strata["a"].times, [2.0, 5.0, 6.0])


SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128, 2**128 + 9, 2**200 + 3]),
    st.integers(0, 2**300),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(0, 2**32 - 1).map(np.uint32),
    st.lists(st.one_of(st.integers(0, 2**70), st.integers(0, 2**16).map(np.int64)), max_size=9),
)


@settings(max_examples=60)
@given(SEEDS, st.integers(2, 1100))
@example(2**128 + 9, 1100)
@example(np.uint64(9), 500)
@example([2**32 - 1] * 6, 41)
@example(["0x10", "010", 7], 3)  # numpy reads seed strings as hex or decimal
def test_child_words_are_the_states_of_the_spawned_children(seed, B):
    words = paf_module._child_words(seed, B)
    want = np.array([s.generate_state(4, np.uint64) for s in np.random.SeedSequence(seed).spawn(B)])
    assert (words.dtype, words.shape, words.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_a_draw_is_that_of_the_default_generator_of_its_child():
    words = paf_module._child_words(3, 4)
    for idx, child in zip(paf_module._draws(words, 50), np.random.SeedSequence(3).spawn(4)):
        assert idx.tobytes() == np.random.default_rng(child).integers(0, 50, size=50).tobytes()


def test_a_bad_seed_is_numpys_value_error_before_any_replicate(monkeypatch):
    def drawn(*args):
        raise AssertionError("a replicate was drawn")

    def estimated(*args):
        raise AssertionError("the point estimate was computed")

    monkeypatch.setattr(paf_module, "_multistate_replicates", drawn)
    monkeypatch.setattr(paf_module, "_paf_from", estimated)
    with pytest.raises(ValueError) as numpys:
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError) as got:
        bootstrap_ci(TWO, "paf_o", B=2, seed=-1)
    assert str(got.value) == str(numpys.value)
    for B in (2.5, 3.0):  # a float B is operator.index's TypeError
        with pytest.raises(TypeError) as pythons:
            operator.index(B)
        with pytest.raises(TypeError) as got:
            bootstrap_ci(TWO, "paf_o", B=B, seed=0)
        assert str(got.value) == str(pythons.value)
