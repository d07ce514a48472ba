"""Nonparametric continuous-time estimators.

The unweighted estimators read one exit table, built with one sort: the
exits from state 0 (at the exposure time if exposed, else at the end)
and from state 1, counted by kind on the distinct exit times.

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


def _at_risk(exits):
    """Risk set Y(t-) on a sorted grid: the exits at or after each time."""
    return np.cumsum(exits[::-1])[::-1]


def _divide(dn, y):
    """dn / y, and 0 where y is 0."""
    return np.divide(dn, y, out=np.zeros(dn.size), where=y > 0)


def _kinds(status, base):
    """Exit rows base, base + 1 and base + 2 for discharge, death and censoring."""
    return np.where(status == STATUS_DISCHARGE, base,
                    np.where(status == STATUS_DEATH, base + 1, base + 2))


# Rows of the exit table: exits 0->1, 0->2, 0->3, 0->censored, 1->4, 1->5
# and 1->censored.  This maps each transition to its row.
_ROWS = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 4): 4, (1, 5): 5}


def _six_state(records: TransitionRecords):
    """The exit table: one sort of every exit time of the six-state model.

    Returns the T distinct exit times, the (7 x T) integer counts of exits
    by row, and the risk sets Y0(t-) and Y1(t-) on those times.
    """
    _, inf, end, status = _subject_data(records)
    exposed = ~np.isnan(inf)
    times = np.concatenate((np.where(exposed, inf, end), end[exposed]))
    kinds = np.concatenate((np.where(exposed, 0, _kinds(status, 1)), _kinds(status[exposed], 4)))
    ut, idx = np.unique(times, return_inverse=True)
    counts = np.bincount(kinds * ut.size + idx, minlength=7 * ut.size).reshape(7, ut.size)
    y0 = _at_risk(counts[:4].sum(axis=0))
    y1 = _at_risk(counts[4:].sum(axis=0)) - _at_risk(counts[0])
    return ut, counts, y0, y1


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


def _exposure_survival(times, counts, y0):
    """S01 on the state-0 exit times, and the mask of those times in the table."""
    exits = counts[:4].sum(axis=0)
    on = exits > 0
    dn = counts[0, on]
    at_risk = y0[on] - (exits[on] - dn)
    return StepCurve(times[on], np.cumprod(1.0 - _divide(dn, at_risk)), initial=1.0), on


def exposure_survival(records: TransitionRecords) -> StepCurve:
    """Kaplan-Meier of the exposure-time distribution S01.

    Exposure is the event; leaving state 0 any other way censors.  Tied
    non-exposure exits are removed from the risk set before the exposure
    events at the same time, matching the discrete-time weight denominator.
    """
    times, counts, y0, _ = _six_state(records)
    return _exposure_survival(times, counts, y0)[0]


def ht_cif(records: TransitionRecords) -> StepCurve:
    """Horvitz-Thompson form of the counterfactual death CIF.

    Each death without exposure is weighted by the inverse probability of
    having remained unexposed just before its time.
    """
    times, counts, y0, _ = _six_state(records)
    s01, on = _exposure_survival(times, counts, y0)
    s01_minus = np.concatenate(([1.0], s01.values[:-1]))
    dn_death = counts[_ROWS[0, 3], on]
    if np.any((dn_death > 0) & (s01_minus <= 0.0)):
        raise PositivityError(
            "exposure survival reached 0 before a contributing death; "
            "inverse-probability weight is unbounded"
        )
    # y0[0] is n: everybody starts in state 0
    return StepCurve(s01.times, np.cumsum(_divide(dn_death, s01_minus)) / y0[0], initial=0.0)


def aalen_johansen_extended(records: TransitionRecords) -> OccupationCurves:
    """Product-integral occupation probabilities of the six-state model.

    The transitions out of state 1 pool all current occupants regardless
    of their exposure time (Markov assumption).
    """
    times, counts, y0, y1 = _six_state(records)
    on = np.delete(counts, (3, 6), axis=0).any(axis=0)  # a transition, not only censorings
    ut = times[on]
    h01, h02, h03 = (_divide(counts[_ROWS[0, l], on], y0[on]) for l in (1, 2, 3))
    h14, h15 = (_divide(counts[_ROWS[1, l], on], y1[on]) for l in (4, 5))
    # p00 and p01 depend on each other: one scan on Python floats.  The
    # lists start with the initial values, so [:-1] holds p00(t-), p01(t-).
    a, b = 1.0, 0.0
    p0, p1 = [a], [b]
    for x01, x0, x1 in zip(h01.tolist(), (h01 + h02 + h03).tolist(), (h14 + h15).tolist()):
        a, b = a - a * x0, b + a * x01 - b * x1
        p0.append(a)
        p1.append(b)
    p0, p1 = np.array(p0), np.array(p1)
    values = (p0[1:], p1[1:], np.cumsum(p0[:-1] * h02), np.cumsum(p0[:-1] * h03),
              np.cumsum(p1[:-1] * h14), np.cumsum(p1[:-1] * h15))
    initials = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return OccupationCurves(*(StepCurve(ut, v, initial=i) for v, i in zip(values, initials)))


def kaplan_meier(times, event_flags) -> StepCurve:
    """Standard Kaplan-Meier survival curve (1 at time 0)."""
    times = np.asarray(times, dtype=float)
    flags = np.asarray(event_flags, dtype=bool)
    if times.size == 0:
        raise DataError("empty sample")
    ut, idx = np.unique(times, return_inverse=True)
    dn = np.bincount(idx[flags], minlength=ut.size)
    return StepCurve(ut, np.cumprod(1.0 - dn / _at_risk(np.bincount(idx))), initial=1.0)


def nelson_aalen(records: TransitionRecords, k: int, l: int) -> HazardIncrements:
    """Increments of the cause-specific hazard for the k -> l transition."""
    if (k, l) not in _ROWS:
        raise ValueError(f"no {k}->{l} transition in the six-state model")
    times, counts, y0, y1 = _six_state(records)
    dn = counts[_ROWS[k, l]]
    on = dn > 0
    y = y0 if k == 0 else y1
    return HazardIncrements(times[on], dn[on].astype(float), y[on].astype(float))
