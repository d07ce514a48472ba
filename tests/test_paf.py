import tracemalloc

import numpy as np
import pytest

from pafmsm import (
    Cohort,
    DataError,
    FourfoldTable,
    HazardSpec,
    PositivityError,
    Subject,
    bootstrap_ci,
    estimate_paf,
    fourfold_at,
    paf_fixed,
    parse_cohort,
    preventable_count,
    simulate_cohort,
    stratified_paf,
    to_transitions,
)
from pafmsm import paf as paf_module
from pafmsm.curves import _CSV_CHUNK, StepCurve
from pafmsm.simulate import icu_like_spec

from conftest import integer_cohort

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


def test_paf_fixed_degenerate_tables():
    assert np.isnan(paf_fixed(FourfoldTable(0, 10, 0, 10)))
    assert paf_fixed(FourfoldTable(0, 0, 5, 5)) == 0.0
    with pytest.raises(DataError):
        paf_fixed(FourfoldTable(0, 0, 0, 0))


def test_preventable_counts_round_to_nearest():
    assert preventable_count(0.073, 147) == 11
    assert preventable_count(0.055, 147) == 8
    assert preventable_count(0.0, 500) == 0
    with pytest.raises(DataError):
        preventable_count(float("nan"), 10)


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


def test_bootstrap_undefined_majority_blanks_the_band():
    # nobody dies before day 3, so PAF is undefined there in every replicate
    cohort = Cohort(tuple(Subject(str(i), None, 3.0, "death") for i in range(12)), horizon=4)
    bands = bootstrap_ci(cohort, "paf_o", B=20, seed=2, grid=np.array([1.0, 3.0]))
    assert np.isnan(bands.lower(1.0))
    assert bands.lower(3.0) == 0.0
    assert "1,,,,0" in bands.to_csv()


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
    cohort = ENGINE_COHORTS[name]
    grid = np.concatenate(([0.5], np.arange(1.0, cohort.horizon + 2.0)))
    streams = np.random.SeedSequence(6).spawn(40)
    got = paf_module._multistate_replicates(to_transitions(cohort), estimand, streams, grid)
    assert np.array_equal(got, _loop_replicates(cohort, estimand, 40, 6, grid), equal_nan=True)


@pytest.mark.parametrize("cells", [7, 250])
def test_replicate_blocks_do_not_change_the_bands(monkeypatch, cells):
    cohort = ENGINE_COHORTS["tied_days_censored"]
    whole = bootstrap_ci(cohort, "paf_c", B=40, seed=3)
    monkeypatch.setattr(paf_module, "_BLOCK_CELLS", cells)  # blocks of 1 and of 3 replicates
    blocked = bootstrap_ci(cohort, "paf_c", B=40, seed=3)
    assert np.array_equal(blocked.lower.values, whole.lower.values, equal_nan=True)
    assert np.array_equal(blocked.upper.values, whole.upper.values, equal_nan=True)


def test_multistate_bootstrap_memory_stays_within_its_blocks():
    # a block of replicates holds one weighted exit table of at most
    # _BLOCK_CELLS cells; sweeps of (block x n) float temporaries took 14.6 MB
    cohort = simulate_cohort(icu_like_spec(), 1000, seed=3)
    tracemalloc.start()
    try:
        bootstrap_ci(cohort, "paf_o", B=500, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("failing", [9, 11])
def test_bootstrap_counts_failed_replicates(monkeypatch, failing):
    calls = []
    ipw_f01 = paf_module.ipw_f01

    def flaky(panel, weights):
        calls.append(None)
        if 1 < len(calls) <= failing + 1:  # the first call is the point estimate
            raise PositivityError("weight unbounded")
        return ipw_f01(panel, weights)

    monkeypatch.setattr(paf_module, "ipw_f01", flaky)
    bands = bootstrap_ci(integer_cohort(8, n=80), "paf_c", "ipw", B=20, seed=1,
                         grid=np.array([20.0, 40.0]))
    assert bands.failed == failing
    if failing > 10:  # fewer than half the replicates are defined anywhere
        assert np.isnan(bands.lower.values).all() and np.isnan(bands.upper.values).all()
    else:
        assert np.isfinite(bands.lower.values).all() and np.isfinite(bands.upper.values).all()


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


def test_bootstrap_rejects_tiny_b():
    with pytest.raises(DataError):
        bootstrap_ci(TWO, "paf_o", B=1, seed=0)


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
