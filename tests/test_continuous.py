import tracemalloc

import numpy as np
import pytest

from pafmsm import continuous, paf as paf_module

from pafmsm import (
    Cohort,
    DataError,
    HazardSpec,
    Subject,
    aalen_johansen_extended,
    bootstrap_ci,
    cif_counterfactual,
    cpf_unexposed,
    discretize,
    estimate_paf,
    exposure_survival,
    fit_cox_td,
    ht_cif,
    markov_test,
    overall_death_risk,
    parse_cohort,
    simulate_cohort,
    to_transitions,
)
from pafmsm.cohort import STATUS_CENSORED, STATUS_DEATH, STATUS_DISCHARGE
from pafmsm.curves import StepCurve
from pafmsm.simulate import icu_like_spec

from conftest import integer_cohort
from test_cohort import GOLDEN, rebuilt_from_transition_rows

TWO = Cohort((Subject("A", None, 1.0, "death"), Subject("B", 1.0, 2.0, "death")), horizon=2)


def test_hand_cohort_overall_death():
    curve = overall_death_risk(to_transitions(TWO))
    assert curve(1.0) == 0.5
    assert curve(2.0) == 1.0


def test_hand_cohort_cpf_is_one():
    curve = cpf_unexposed(to_transitions(TWO))
    assert curve(1.0) == 1.0
    assert curve(2.0) == 1.0


def test_hand_cohort_counterfactual_is_half():
    curve = cif_counterfactual(to_transitions(TWO))
    assert curve(1.0) == 0.5
    assert curve(2.0) == 0.5


def test_hand_cohort_ht_matches_counterfactual():
    curve = ht_cif(to_transitions(TWO))
    assert curve(2.0) == 0.5


def test_cpf_undefined_once_everyone_is_exposed():
    cohort = Cohort((Subject("A", 1.0, 3.0, "death"), Subject("B", 1.0, 4.0, "discharge")), horizon=4)
    curve = cpf_unexposed(to_transitions(cohort))
    assert curve.undefined_from == 1.0
    assert np.isnan(curve(2.0))


def test_uncensored_curves_are_proportions():
    cohort = integer_cohort(31, n=150)
    records = to_transitions(cohort)
    curve = overall_death_risk(records)
    n = len(cohort)
    for t in (3.0, 7.0, 15.0, 40.0):
        direct = sum(1 for s in cohort.subjects if s.end_status == "death" and s.end_time <= t) / n
        assert curve(t) == pytest.approx(direct, abs=1e-12)


def test_occupation_rows_sum_to_one():
    cohort = integer_cohort(5, n=120, censored=True)
    occ = aalen_johansen_extended(to_transitions(cohort))
    for t in occ.p00.times:
        assert sum(c(t) for c in occ.as_tuple()) == pytest.approx(1.0, abs=1e-12)


def test_occupation_matches_reduction_on_uncensored_data():
    cohort = integer_cohort(11, n=150)
    records = to_transitions(cohort)
    occ = aalen_johansen_extended(records)
    death = overall_death_risk(records)
    for t in occ.p00.times:
        assert occ.p03(t) + occ.p05(t) == pytest.approx(death(t), abs=1e-10)


def test_exposure_survival_decreases_from_one():
    cohort = integer_cohort(2, n=100)
    s01 = exposure_survival(to_transitions(cohort))
    assert s01.initial == 1.0
    assert np.all(np.diff(s01.values) <= 1e-15)


def test_ht_stays_finite_when_exposure_survival_hits_zero():
    # the death is tied with the exhausting exposure, so its weight uses
    # the left limit of the exposure survival and stays bounded
    cohort = Cohort((Subject("A", None, 1.0, "death"), Subject("B", 1.0, 2.0, "death")), horizon=2)
    records = to_transitions(cohort)
    s01 = exposure_survival(records)
    assert s01(1.0) == 0.0
    assert ht_cif(records)(2.0) == 0.5


@pytest.mark.parametrize("estimate", [
    overall_death_risk, cpf_unexposed, cif_counterfactual, ht_cif, exposure_survival,
    aalen_johansen_extended, discretize,
    lambda c: estimate_paf(c, "paf_o"), lambda c: estimate_paf(c, "paf_c"),
    lambda c: estimate_paf(c, "paf_c", "ipw"), lambda c: bootstrap_ci(c, "paf_c", B=2),
], ids=["overall_death_risk", "cpf_unexposed", "cif_counterfactual", "ht_cif",
        "exposure_survival", "aalen_johansen_extended", "discretize",
        "multistate-paf_o", "multistate-paf_c", "ipw-paf_c", "bootstrap"])
def test_an_empty_cohort_raises_one_message(estimate):
    with pytest.raises(DataError, match="^empty cohort$"):
        estimate(Cohort())


def hazard_counts(cohort, k, l):
    """The Nelson-Aalen counts of the k -> l transition in the six-state
    exit table: its event times, dN(t) and Y(t-) there."""
    times, counts, y0, y1 = continuous._six_state(cohort)
    dn = counts[continuous._ROWS[k, l]]
    on = dn > 0
    return times[on], dn[on], (y0 if k == 0 else y1)[on]


def test_nelson_aalen_increments():
    cohort = Cohort((Subject("A", None, 2.0, "death"), Subject("B", None, 3.0, "discharge")), horizon=3)
    times, dn, at_risk = hazard_counts(to_transitions(cohort), 0, 3)
    np.testing.assert_array_equal(times, [2.0])
    np.testing.assert_array_equal(dn / at_risk, [0.5])


def test_nelson_aalen_post_exposure_risk_set():
    cohort = Cohort(
        (Subject("A", 1.0, 4.0, "death"), Subject("B", 2.0, 4.0, "death"),
         Subject("C", None, 5.0, "discharge")),
        horizon=5,
    )
    times, dn, at_risk = hazard_counts(to_transitions(cohort), 1, 5)
    np.testing.assert_array_equal(times, [4.0])
    np.testing.assert_array_equal(dn / at_risk, [2 / 2])


def test_nelson_aalen_hand_counts():
    # A and B are exposed on day 1; A is discharged on day 3, B dies on day 4;
    # C, never exposed, is discharged on day 2
    cohort = Cohort(
        (Subject("A", 1.0, 3.0, "discharge"), Subject("B", 1.0, 4.0, "death"),
         Subject("C", None, 2.0, "discharge")),
        horizon=4,
    )
    records = to_transitions(cohort)
    expected = {  # (k, l): (times, dN, Y(t-))
        (0, 1): ([1.0], [2.0], [3.0]),
        (0, 2): ([2.0], [1.0], [1.0]),
        (0, 3): ([], [], []),
        (1, 4): ([3.0], [1.0], [2.0]),
        (1, 5): ([4.0], [1.0], [1.0]),
    }
    for (k, l), want in expected.items():
        for got, column in zip(hazard_counts(records, k, l), want):
            np.testing.assert_array_equal(got, column)


def reference_aalen_johansen(cohort):
    """The six-state product integral, one event time at a time."""
    inf, end, status = cohort.inf, cohort.end, cohort.status
    exposed = ~np.isnan(inf)
    stop0 = np.where(exposed, inf, end)
    ut = np.unique(np.concatenate((inf[exposed], end[status != STATUS_CENSORED])))

    def count(times, mask):
        return np.array([np.sum(times[mask] == t) for t in ut], dtype=np.int64)

    y0 = np.array([np.sum(stop0 >= t) for t in ut], dtype=np.int64)
    y1 = np.array([np.sum(exposed & (inf < t) & (end >= t)) for t in ut], dtype=np.int64)
    dn01 = count(inf, exposed)
    dn02 = count(end, ~exposed & (status == STATUS_DISCHARGE))
    dn03 = count(end, ~exposed & (status == STATUS_DEATH))
    dn14 = count(end, exposed & (status == STATUS_DISCHARGE))
    dn15 = count(end, exposed & (status == STATUS_DEATH))

    p = np.array([1.0, 0, 0, 0, 0, 0])
    out = np.empty((ut.size, 6))
    for j in range(ut.size):
        if y0[j] > 0:
            h01, h02, h03 = dn01[j] / y0[j], dn02[j] / y0[j], dn03[j] / y0[j]
        else:
            h01 = h02 = h03 = 0.0
        if y1[j] > 0:
            h14, h15 = dn14[j] / y1[j], dn15[j] / y1[j]
        else:
            h14 = h15 = 0.0
        out0 = p[0] * (h01 + h02 + h03)
        out1 = p[1] * (h14 + h15)
        p = np.array([
            p[0] - out0,
            p[1] + p[0] * h01 - out1,
            p[2] + p[0] * h02,
            p[3] + p[0] * h03,
            p[4] + p[1] * h14,
            p[5] + p[1] * h15,
        ])
        out[j] = p
    return ut, out


def _aj_cohorts():
    censored = integer_cohort(7, n=200, censored=True)
    exposed = ~np.isnan(censored.inf)
    constant = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100.0, censor_rate=0.01)
    return {
        "whole days, censored": censored,
        "whole days": integer_cohort(8, n=200),
        "continuous, censored": simulate_cohort(constant, 300, 9),
        "continuous": simulate_cohort(icu_like_spec(), 300, 10),
        "nobody exposed": censored.subset(~exposed),
        "everybody exposed": censored.subset(exposed),
        "all censored": Cohort(
            (Subject("A", None, 2.0, "censored"), Subject("B", None, 3.0, "censored")), horizon=3
        ),
        "exits tied with exposures": Cohort(
            (Subject("A", None, 2.0, "death"), Subject("B", 2.0, 3.0, "death"),
             Subject("C", 2.0, 2.5, "discharge"), Subject("D", None, 2.0, "censored"),
             Subject("E", 3.0, 4.0, "censored"), Subject("F", None, 3.0, "discharge")),
            horizon=4,
        ),
    }


@pytest.mark.parametrize("name", list(_aj_cohorts()))
def test_aalen_johansen_equals_the_per_event_time_loop(name):
    records = to_transitions(_aj_cohorts()[name])
    times, out = reference_aalen_johansen(records)
    occ = aalen_johansen_extended(records)
    for k, curve in enumerate(occ.as_tuple()):
        assert np.array_equal(curve.times, times)
        assert np.array_equal(curve.values, out[:, k])
        assert curve.initial == (1.0 if k == 0 else 0.0)
    if name == "all censored":
        assert times.size == 0


def test_exit_kinds_are_those_of_the_nested_status_test():
    status = np.array([STATUS_DISCHARGE, STATUS_DEATH, STATUS_CENSORED] * 3 + [STATUS_DEATH])
    for s in (status, status[:0]):
        for base in (1, 4):
            want = np.where(s == STATUS_DISCHARGE, base,
                            np.where(s == STATUS_DEATH, base + 1, base + 2))
            got = continuous._kinds(s, base)
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", list(_aj_cohorts()))
def test_the_sample_count_is_the_table_weighted_by_ones(name):
    # integer counts, so that every reader's float arithmetic keeps its bits
    cohort = _aj_cohorts()[name]
    times, table = continuous._exit_table(cohort, "six_state")
    counts = table()
    weighted = table(np.ones((1, len(cohort) + int(cohort.exposed.sum()))))
    assert counts.dtype == np.int64 and counts.shape == (7, times.size)
    assert np.array_equal(counts, weighted[0])


@pytest.mark.parametrize("size", [1, 3])
def test_aalen_johansen_slices_do_not_change_the_curves(monkeypatch, size):
    cohorts = dict(_aj_cohorts(), many_times=simulate_cohort(icu_like_spec(), 2000, 11))
    whole = {name: aalen_johansen_extended(cohort) for name, cohort in cohorts.items()}
    monkeypatch.setattr(continuous, "_AJ_SLICE", size)
    for name, cohort in cohorts.items():
        for got, want in zip(aalen_johansen_extended(cohort).as_tuple(), whole[name].as_tuple()):
            assert got.times.tobytes() == want.times.tobytes()
            assert got.values.tobytes() == want.values.tobytes()
            assert got.initial == want.initial


def test_aalen_johansen_memory_holds_one_slice_of_python_floats():
    # five lists of Python floats over all event times took 18.9 MB;
    # slices of _AJ_SLICE times left the numpy arrays, 13.6 MB.  The exit
    # table, the full-length risk sets and times now go once the five
    # hazard rows are taken, and the curves are summed over the hazards:
    # 8.7 MB
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100, censor_rate=0.01)
    cohort = simulate_cohort(spec, 50_000, seed=1)
    tracemalloc.start()
    try:
        aalen_johansen_extended(cohort)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11e6


@pytest.mark.parametrize("estimator", [overall_death_risk, cpf_unexposed, cif_counterfactual])
def test_a_curve_holds_its_own_times_and_values_only(estimator):
    # values left as a view of the (1 x 4 x T) exit table kept the whole
    # table alive with the curve: 2.5 times the curve's own bytes
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100, censor_rate=0.01)
    cohort = simulate_cohort(spec, 20_000, seed=1)
    tracemalloc.start()
    try:
        curve = estimator(cohort)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1.2 * (curve.times.nbytes + curve.values.nbytes)


# The weighted competing-risks core as it was before every reduction read
# the exit table: one sort per reduction, with the exposure recoded per
# reduction.  The package must reproduce it bit for bit.

def reference_aj_sweep(times, codes, event_codes, targets, combine=lambda cif: cif):
    """Weighted Aalen-Johansen CIFs of a competing-risks model on the unique
    grid of ``times``: a function of a (k x n) count matrix that returns
    (grid, combined CIF rows, all-cause survival rows)."""
    order = np.argsort(times, kind="stable")
    t = times[order]
    starts = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    c = codes[order]
    is_event = np.isin(c, event_codes)
    is_target = [c == target for target in targets]

    def sweep(freq):
        w = freq[:, order].astype(float)

        def counts(mask):
            return np.add.reduceat(w * mask, starts, axis=1)

        at_or_after = np.cumsum(np.add.reduceat(w, starts, axis=1)[:, ::-1], axis=1)[:, ::-1]
        y = np.maximum(at_or_after, 1.0)
        s_after = np.cumprod(1.0 - counts(is_event) / y, axis=1)
        s_minus = np.concatenate((np.ones((w.shape[0], 1)), s_after[:, :-1]), axis=1)
        cifs = [np.cumsum(s_minus * counts(mask) / y, axis=1) for mask in is_target]
        return t[starts], combine(*cifs), s_after

    return sweep


_EXPOSURE = 9  # event code for 0->1 in the three-state reduction


def reference_overall_death_risk_rows(inf, end, status):
    return reference_aj_sweep(end, status, (STATUS_DEATH, STATUS_DISCHARGE), (STATUS_DEATH,))


def reference_cpf_unexposed_rows(inf, end, status):
    def conditional(cif_death, cif_exposure):
        denom = 1.0 - cif_exposure
        undefined = denom <= 1e-12
        return np.where(undefined, np.nan, cif_death / np.where(undefined, 1.0, denom))

    exposed = ~np.isnan(inf)
    times = np.where(exposed, inf, end)
    codes = np.where(exposed, _EXPOSURE, status)
    events = (_EXPOSURE, STATUS_DEATH, STATUS_DISCHARGE)
    return reference_aj_sweep(times, codes, events, (STATUS_DEATH, _EXPOSURE), conditional)


def reference_cif_counterfactual_rows(inf, end, status):
    exposed = ~np.isnan(inf)
    times = np.where(exposed, inf, end)
    codes = np.where(exposed, STATUS_CENSORED, status)
    return reference_aj_sweep(times, codes, (STATUS_DEATH, STATUS_DISCHARGE), (STATUS_DEATH,))


REFERENCE_ROWS = {
    overall_death_risk: reference_overall_death_risk_rows,
    cpf_unexposed: reference_cpf_unexposed_rows,
    cif_counterfactual: reference_cif_counterfactual_rows,
}
REFERENCE_SUBTRACTED = {"paf_o": reference_cpf_unexposed_rows,
                        "paf_c": reference_cif_counterfactual_rows}


def reference_curve(cohort, rows):
    """The curve of ``rows`` on the sample, a single row of ones."""
    inf, end, status = cohort.inf, cohort.end, cohort.status
    ut, values, s_after = rows(inf, end, status)(np.ones((1, end.size), dtype=np.int64))
    values, s_after = values[0], s_after[0]
    undefined = np.isnan(values)
    truncated = ut.size and s_after[-1] > 1e-12
    return StepCurve(ut, values, initial=0.0,
                     undefined_from=float(ut[undefined.argmax()]) if undefined.any() else None,
                     truncated_from=float(ut[-1]) if truncated else None)


def reference_replicates(cohort, estimand, streams, grid):
    """PAF rows of the replicates of ``streams`` on ``grid``, all in one sweep."""
    inf, end, status = cohort.inf, cohort.end, cohort.status
    n = end.size
    freq = np.array([np.bincount(np.random.default_rng(s).integers(0, n, size=n), minlength=n)
                     for s in streams])
    pd = paf_module._on_grid(*reference_overall_death_risk_rows(inf, end, status)(freq)[:2], grid)
    q = paf_module._on_grid(*REFERENCE_SUBTRACTED[estimand](inf, end, status)(freq)[:2], grid)
    return paf_module._paf_values(pd, q)


def assert_same_curve(curve, reference):
    """Equal jump times and values in bytes, and the same cut-offs."""
    for got, want in ((curve.times, reference.times), (curve.values, reference.values)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert (curve.initial, curve.undefined_from, curve.truncated_from) == (
        reference.initial, reference.undefined_from, reference.truncated_from)


def assert_continuous_side_matches_reference(cohort, seed=0, B=12):
    """Point curves and bootstrap replicates equal the per-reduction sweeps
    bit for bit, on a grid from before the first exit to past the last."""
    records = to_transitions(cohort)
    for estimator, rows in REFERENCE_ROWS.items():
        assert_same_curve(estimator(records), reference_curve(records, rows))
    times = np.concatenate((cohort.end, cohort.inf[~np.isnan(cohort.inf)]))
    grid = np.unique(np.concatenate((times, times + 0.25, [times.min() / 2, cohort.horizon + 1.0])))
    words, streams = paf_module._child_words(seed, B), np.random.SeedSequence(seed).spawn(B)
    for estimand in ("paf_o", "paf_c"):
        got = paf_module._multistate_replicates(records, estimand, words, grid)
        want = reference_replicates(records, estimand, streams, grid)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(_aj_cohorts()))
def test_exit_table_reductions_equal_the_per_reduction_sweeps(name):
    assert_continuous_side_matches_reference(_aj_cohorts()[name])


@pytest.mark.parametrize("name", ["daily", "constant"])
def test_estimators_agree_on_a_cohort_rebuilt_from_its_transition_rows(name):
    parsed = parse_cohort(GOLDEN / name / "cohort.csv")
    rebuilt = rebuilt_from_transition_rows(parsed)
    for estimator in (overall_death_risk, cpf_unexposed, cif_counterfactual, exposure_survival,
                      ht_cif):
        assert_same_curve(estimator(rebuilt), estimator(parsed))
    for got, want in zip(aalen_johansen_extended(rebuilt).as_tuple(),
                         aalen_johansen_extended(parsed).as_tuple()):
        assert_same_curve(got, want)
    for got, want in zip(continuous._six_state(rebuilt), continuous._six_state(parsed)):
        assert got.tobytes() == want.tobytes()
    fits = [lambda c: fit_cox_td(c, "death"), lambda c: fit_cox_td(c, "discharge"),
            lambda c: markov_test(c, "death_after"), lambda c: markov_test(c, "discharge_after")]
    if "x" in parsed.covariates:
        fits.append(lambda c: fit_cox_td(c, "death", extra_covariates=("x",)))
    for fit in fits:
        got, want = fit(rebuilt), fit(parsed)
        assert got.summary_csv() == want.summary_csv()
        assert (got.coefficients.tobytes(), got.standard_errors.tobytes()) == (
            want.coefficients.tobytes(), want.standard_errors.tobytes())
