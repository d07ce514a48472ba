"""Nonparametric continuous-time estimators.

All estimators share the same tie convention: distinct subjects may share
event times, ties are processed simultaneously, and risk sets are always
evaluated at t-.  The censor-at-exposure survival curve used by
:func:`ht_cif` additionally treats terminal events tied with exposures as
preceding them, which is what makes the inverse-probability identities
hold exactly on uncensored data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import (
    STATUS_CENSORED,
    STATUS_DEATH,
    STATUS_DISCHARGE,
    TransitionRecords,
)
from .curves import StepCurve
from .errors import DataError, PositivityError

__all__ = [
    "HazardIncrements",
    "OccupationCurves",
    "aalen_johansen_extended",
    "overall_death_risk",
    "cpf_unexposed",
    "cif_counterfactual",
    "exposure_survival",
    "ht_cif",
    "kaplan_meier",
    "nelson_aalen",
]

_DENOM_TOL = 1e-12


@dataclass(frozen=True)
class HazardIncrements:
    """Counting-process increments dN(t), Y(t-) at the observed event times."""

    times: np.ndarray
    dn: np.ndarray
    at_risk: np.ndarray

    @property
    def increments(self) -> np.ndarray:
        return self.dn / self.at_risk

    def cumulative_hazard(self) -> StepCurve:
        return StepCurve(self.times, np.cumsum(self.increments), initial=0.0)


@dataclass(frozen=True)
class OccupationCurves:
    """State-occupation probabilities from state 0 at time 0."""

    p00: StepCurve
    p01: StepCurve
    p02: StepCurve
    p03: StepCurve
    p04: StepCurve
    p05: StepCurve

    def as_tuple(self):
        return (self.p00, self.p01, self.p02, self.p03, self.p04, self.p05)

    def sum_at(self, t):
        return sum(c(t) for c in self.as_tuple())


def _subject_data(records: TransitionRecords):
    ids, inf, end, status = records.subject_arrays()
    if len(ids) == 0:
        raise DataError("empty transition records")
    return ids, inf, end, status


def _grid_counts(times, ut):
    """Exit counts per unique time and risk set Y(t-) on that grid."""
    idx = np.searchsorted(ut, times)
    total = np.bincount(idx, minlength=ut.size)
    y = times.size - np.concatenate(([0], np.cumsum(total)[:-1]))
    return idx, total, y


def _counts_at(ut, times, mask):
    """How many of times[mask] fall on each grid time."""
    sel = times[mask]
    if sel.size == 0:
        return np.zeros(ut.size, dtype=np.int64)
    return np.bincount(np.searchsorted(ut, sel), minlength=ut.size)


def _aj_sweep(times, codes, event_codes, targets, combine=lambda cif: cif):
    """Weighted Aalen-Johansen CIFs of a competing-risks model.

    ``codes`` holds per-subject event codes; anything outside
    ``event_codes`` counts as censoring.  The subjects are sorted by time
    once; the returned function takes a (k x n) matrix of integer subject
    counts, one weighting per row: a row of ones is the sample itself and
    a bootstrap replicate counts how often each subject was drawn.  It
    returns the unique grid of ``times``, ``combine`` applied to the
    (k x T) CIFs of the codes in ``targets``, and the (k x T) all-cause
    survival after each time.

    The counts are integers, held exactly as floats, so every row
    reproduces the estimate computed on its resampled subjects.  A grid
    time that a row never hits contributes an exact factor 1.0 and an
    exact increment 0.0; after a row's last time its risk set is empty and
    it is divided by 1 in place of 0, with zero events, so its curves stay
    frozen.
    """
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


# Each *_rows function sorts one sample's subjects once and returns its
# estimator as a function of a (k x n) count matrix, with the result
# (grid, k value rows, k survival rows).


def overall_death_risk_rows(inf, end, status):
    """Weighted rows of :func:`overall_death_risk`."""
    return _aj_sweep(end, status, (STATUS_DEATH, STATUS_DISCHARGE), (STATUS_DEATH,))


_EXPOSURE = 9  # event code for 0->1 in the three-state reduction


def _conditional(cif_death, cif_exposure):
    """P(death by t | unexposed at t), NaN where nobody is left unexposed."""
    denom = 1.0 - cif_exposure
    undefined = denom <= _DENOM_TOL
    return np.where(undefined, np.nan, cif_death / np.where(undefined, 1.0, denom))


def cpf_unexposed_rows(inf, end, status):
    """Weighted rows of :func:`cpf_unexposed`, NaN where undefined."""
    exposed = ~np.isnan(inf)
    times = np.where(exposed, inf, end)
    codes = np.where(exposed, _EXPOSURE, status)
    events = (_EXPOSURE, STATUS_DEATH, STATUS_DISCHARGE)
    return _aj_sweep(times, codes, events, (STATUS_DEATH, _EXPOSURE), _conditional)


def cif_counterfactual_rows(inf, end, status):
    """Weighted rows of :func:`cif_counterfactual`."""
    exposed = ~np.isnan(inf)
    times = np.where(exposed, inf, end)
    codes = np.where(exposed, STATUS_CENSORED, status)
    return _aj_sweep(times, codes, (STATUS_DEATH, STATUS_DISCHARGE), (STATUS_DEATH,))


def _sample_curve(records, rows) -> StepCurve:
    """The curve of ``rows`` on the sample itself, a single row of ones."""
    _, inf, end, status = _subject_data(records)
    ut, values, s_after = rows(inf, end, status)(np.ones((1, end.size), dtype=np.int64))
    values = values[0]
    undefined = np.isnan(values)
    return StepCurve(
        ut, values, initial=0.0,
        undefined_from=float(ut[undefined.argmax()]) if undefined.any() else None,
        truncated_from=_truncation(ut, s_after[0]),
    )


def overall_death_risk(records: TransitionRecords) -> StepCurve:
    """P(death by t), from the combined-state competing-risks reduction.

    Death and discharge are pooled across exposure status, so the Markov
    assumption is never used.
    """
    return _sample_curve(records, overall_death_risk_rows)


def cpf_unexposed(records: TransitionRecords) -> StepCurve:
    """P(death by t | still unexposed at t), via the three-state reduction."""
    return _sample_curve(records, cpf_unexposed_rows)


def cif_counterfactual(records: TransitionRecords) -> StepCurve:
    """Death CIF with the exposure hazard set to zero.

    Exposure transitions are recoded as censorings at the exposure time;
    the result estimates the death risk of the no-exposure path.
    """
    return _sample_curve(records, cif_counterfactual_rows)


def _truncation(ut, s_after):
    """Time from which the curve is frozen with unresolved mass, if any."""
    if ut.size and s_after[-1] > _DENOM_TOL:
        return float(ut[-1])
    return None


def exposure_survival(records: TransitionRecords) -> StepCurve:
    """Kaplan-Meier of the exposure-time distribution S01.

    Exposure is the event; leaving state 0 any other way censors.  Tied
    non-exposure exits are removed from the risk set before the exposure
    events at the same time, matching the discrete-time weight denominator.
    """
    _, inf, end, status = _subject_data(records)
    exposed = ~np.isnan(inf)
    times = np.where(exposed, inf, end)
    ut = np.unique(times)
    idx, total, y = _grid_counts(times, ut)
    dn_exp = _counts_at(ut, times, exposed)
    at_risk = y - (total - dn_exp)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(dn_exp > 0, 1.0 - dn_exp / at_risk, 1.0)
    return StepCurve(ut, np.cumprod(frac), initial=1.0)


def ht_cif(records: TransitionRecords) -> StepCurve:
    """Horvitz-Thompson form of the counterfactual death CIF.

    Each death without exposure is weighted by the inverse probability of
    having remained unexposed just before its time.
    """
    ids, inf, end, status = _subject_data(records)
    n = len(ids)
    exposed = ~np.isnan(inf)
    times = np.where(exposed, inf, end)
    s01 = exposure_survival(records)
    ut = s01.times
    s01_minus = np.concatenate(([1.0], s01.values[:-1]))

    death_mask = (~exposed) & (status == STATUS_DEATH)
    dn_death = _counts_at(ut, times, death_mask)
    contributing = dn_death > 0
    if np.any(contributing & (s01_minus <= 0.0)):
        raise PositivityError(
            "exposure survival reached 0 before a contributing death; "
            "inverse-probability weight is unbounded"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        increments = np.where(contributing, dn_death / np.where(contributing, s01_minus, 1.0), 0.0)
    return StepCurve(ut, np.cumsum(increments) / n, initial=0.0)


def aalen_johansen_extended(records: TransitionRecords) -> OccupationCurves:
    """Product-integral occupation probabilities of the six-state model.

    The transitions out of state 1 pool all current occupants regardless
    of their exposure time (Markov assumption).
    """
    _, inf, end, status = _subject_data(records)
    exposed = ~np.isnan(inf)
    stop0 = np.where(exposed, inf, end)

    event_times = [inf[exposed]]
    event_times.append(end[(~exposed) & (status != STATUS_CENSORED)])
    event_times.append(end[exposed & (status != STATUS_CENSORED)])
    ut = np.unique(np.concatenate(event_times))
    if ut.size == 0:
        curves = [StepCurve(np.array([]), np.array([]), initial=v) for v in (1, 0, 0, 0, 0, 0)]
        return OccupationCurves(*curves)

    sorted_stop0 = np.sort(stop0)
    y0 = stop0.size - np.searchsorted(sorted_stop0, ut, side="left")
    sorted_inf = np.sort(inf[exposed])
    sorted_end1 = np.sort(end[exposed])
    y1 = np.searchsorted(sorted_inf, ut, side="left") - np.searchsorted(
        sorted_end1, ut, side="left"
    )

    dn01 = _counts_at(ut, inf, exposed)
    dn02 = _counts_at(ut, end, (~exposed) & (status == STATUS_DISCHARGE))
    dn03 = _counts_at(ut, end, (~exposed) & (status == STATUS_DEATH))
    dn14 = _counts_at(ut, end, exposed & (status == STATUS_DISCHARGE))
    dn15 = _counts_at(ut, end, exposed & (status == STATUS_DEATH))

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
        p = np.array(
            [
                p[0] - out0,
                p[1] + p[0] * h01 - out1,
                p[2] + p[0] * h02,
                p[3] + p[0] * h03,
                p[4] + p[1] * h14,
                p[5] + p[1] * h15,
            ]
        )
        out[j] = p

    initials = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    curves = [StepCurve(ut, out[:, k], initial=initials[k]) for k in range(6)]
    return OccupationCurves(*curves)


def kaplan_meier(times, event_flags) -> StepCurve:
    """Standard Kaplan-Meier survival curve (1 at time 0)."""
    times = np.asarray(times, dtype=float)
    flags = np.asarray(event_flags, dtype=bool)
    if times.size == 0:
        raise DataError("empty sample")
    ut = np.unique(times)
    idx, total, y = _grid_counts(times, ut)
    dn = _counts_at(ut, times, flags)
    return StepCurve(ut, np.cumprod(1.0 - dn / y), initial=1.0)


_TRANSITIONS = frozenset({(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)})


def nelson_aalen(records: TransitionRecords, k: int, l: int) -> HazardIncrements:
    """Increments of the cause-specific hazard for the k -> l transition."""
    if (k, l) not in _TRANSITIONS:
        raise ValueError(f"no {k}->{l} transition in the six-state model")
    _, inf, end, status = _subject_data(records)
    exposed = ~np.isnan(inf)
    stop0 = np.where(exposed, inf, end)
    if k == 0:
        times = stop0
        if l == 1:
            mask = exposed
        elif l == 2:
            mask = (~exposed) & (status == STATUS_DISCHARGE)
        else:
            mask = (~exposed) & (status == STATUS_DEATH)
        ev_times = np.unique(times[mask])
        sorted_stop = np.sort(stop0)
        y = stop0.size - np.searchsorted(sorted_stop, ev_times, side="left")
        dn = _counts_at(ev_times, times, mask)
    else:
        want = STATUS_DISCHARGE if l == 4 else STATUS_DEATH
        mask = exposed & (status == want)
        ev_times = np.unique(end[mask])
        sorted_inf = np.sort(inf[exposed])
        sorted_end1 = np.sort(end[exposed])
        y = np.searchsorted(sorted_inf, ev_times, side="left") - np.searchsorted(
            sorted_end1, ev_times, side="left"
        )
        dn = _counts_at(ev_times, end, mask)
    return HazardIncrements(ev_times, dn.astype(float), y.astype(float))
