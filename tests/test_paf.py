import numpy as np
import pytest

from pafmsm import (
    Cohort,
    DataError,
    FourfoldTable,
    Subject,
    bootstrap_ci,
    estimate_paf,
    fourfold_at,
    paf_fixed,
    parse_cohort,
    preventable_count,
    stratified_paf,
)

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
