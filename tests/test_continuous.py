import numpy as np
import pytest

from pafmsm import paf as paf_module

from pafmsm import (
    Cohort,
    HazardSpec,
    Subject,
    aalen_johansen_extended,
    cif_counterfactual,
    cpf_unexposed,
    exposure_survival,
    ht_cif,
    kaplan_meier,
    nelson_aalen,
    overall_death_risk,
    simulate_cohort,
    to_transitions,
)
from pafmsm.cohort import STATUS_CENSORED, STATUS_DEATH, STATUS_DISCHARGE
from pafmsm.curves import StepCurve
from pafmsm.simulate import icu_like_spec

from conftest import integer_cohort

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
        assert occ.sum_at(t) == pytest.approx(1.0, abs=1e-12)


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


def test_kaplan_meier_simple():
    km = kaplan_meier(np.array([1.0, 2.0, 3.0]), np.array([True, False, True]))
    assert km(1.0) == pytest.approx(2 / 3)
    assert km(2.5) == pytest.approx(2 / 3)
    assert km(3.0) == pytest.approx(0.0)


def test_nelson_aalen_increments():
    cohort = Cohort((Subject("A", None, 2.0, "death"), Subject("B", None, 3.0, "discharge")), horizon=3)
    inc = nelson_aalen(to_transitions(cohort), 0, 3)
    np.testing.assert_array_equal(inc.times, [2.0])
    assert inc.cumulative_hazard()(2.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        nelson_aalen(to_transitions(cohort), 0, 5)


def test_nelson_aalen_post_exposure_risk_set():
    cohort = Cohort(
        (Subject("A", 1.0, 4.0, "death"), Subject("B", 2.0, 4.0, "death"),
         Subject("C", None, 5.0, "discharge")),
        horizon=5,
    )
    inc = nelson_aalen(to_transitions(cohort), 1, 5)
    np.testing.assert_array_equal(inc.times, [4.0])
    assert inc.increments[0] == pytest.approx(2 / 2)


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
    for (k, l), (times, dn, at_risk) in expected.items():
        inc = nelson_aalen(records, k, l)
        np.testing.assert_array_equal(inc.times, times)
        np.testing.assert_array_equal(inc.dn, dn)
        np.testing.assert_array_equal(inc.at_risk, at_risk)


def reference_aalen_johansen(records):
    """The six-state product integral, one event time at a time."""
    _, inf, end, status = records.subject_arrays()
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


def reference_curve(records, rows):
    """The curve of ``rows`` on the sample, a single row of ones."""
    _, inf, end, status = records.subject_arrays()
    ut, values, s_after = rows(inf, end, status)(np.ones((1, end.size), dtype=np.int64))
    values, s_after = values[0], s_after[0]
    undefined = np.isnan(values)
    truncated = ut.size and s_after[-1] > 1e-12
    return StepCurve(ut, values, initial=0.0,
                     undefined_from=float(ut[undefined.argmax()]) if undefined.any() else None,
                     truncated_from=float(ut[-1]) if truncated else None)


def reference_replicates(records, estimand, streams, grid):
    """PAF rows of the replicates of ``streams`` on ``grid``, all in one sweep."""
    _, inf, end, status = records.subject_arrays()
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
    streams = np.random.SeedSequence(seed).spawn(B)
    for estimand in ("paf_o", "paf_c"):
        got = paf_module._multistate_replicates(records, estimand, streams, grid)
        want = reference_replicates(records, estimand, streams, grid)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(_aj_cohorts()))
def test_exit_table_reductions_equal_the_per_reduction_sweeps(name):
    assert_continuous_side_matches_reference(_aj_cohorts()[name])
