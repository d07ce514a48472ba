"""Nonparametric continuous-time estimators.

Every estimator reads one exit table, built with one sort: the exits
from state 0 (at the exposure time if exposed, else at the end) and from
state 1, counted by kind on the distinct exit times.  The table can be
weighted by subject counts, which is how the bootstrap evaluates its
replicates.

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

from .cohort import STATUS_DEATH, STATUS_DISCHARGE, TransitionRecords
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


def _at_risk(exits):
    """Risk sets Y(t-) on a sorted grid, along the last axis: the exits at or after each time."""
    return np.cumsum(exits[..., ::-1], axis=-1)[..., ::-1]


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


def _exit_table(records: TransitionRecords):
    """The exit table of the six-state model, from one sort of its exit times.

    Every subject exits state 0 (at the exposure time if exposed, else at
    the end) and, if exposed, state 1.  Returns the T distinct exit times
    and a function of a (k x n) matrix of subject counts that returns the
    (k x 7 x T) exits by row, one weighted ``bincount``.  Without an
    argument it counts the sample itself, a single row of ones; a bootstrap
    replicate counts how often each subject was drawn.  The counts are
    integers, held exactly as floats.
    """
    _, inf, end, status = records.subject_arrays()
    if end.size == 0:
        raise DataError("empty transition records")
    exposed = ~np.isnan(inf)
    times = np.concatenate((np.where(exposed, inf, end), end[exposed]))
    kinds = np.concatenate((np.where(exposed, 0, _kinds(status, 1)), _kinds(status[exposed], 4)))
    subjects = np.concatenate((np.arange(end.size), np.flatnonzero(exposed)))
    ut, idx = np.unique(times, return_inverse=True)
    cells = kinds * ut.size + idx

    def table(freq=None):
        w = np.ones((1, subjects.size)) if freq is None else freq.take(subjects, axis=1)
        offsets = np.arange(w.shape[0])[:, None] * (7 * ut.size)
        counts = np.bincount((offsets + cells).ravel(), weights=w.ravel(),
                             minlength=w.shape[0] * 7 * ut.size)
        return counts.reshape(w.shape[0], 7, ut.size)

    return ut, table


def _six_state(records: TransitionRecords):
    """The sample's (7 x T) exit table, its times and the risk sets Y0(t-) and Y1(t-)."""
    times, table = _exit_table(records)
    counts = table()[0]
    y0 = _at_risk(counts[:4].sum(axis=0))
    y1 = _at_risk(counts[4:].sum(axis=0)) - _at_risk(counts[0])
    return times, counts, y0, y1


# The competing-risks reductions of the six-state process, as row sets of
# the exit table: risk set, events and the target whose CIF is the curve.
# cpf_unexposed adds the exposure row, whose CIF divides its death CIF.
_REDUCTIONS = {
    "overall_death_risk": (slice(1, 7), [1, 2, 4, 5], [2, 5]),
    "cpf_unexposed": (slice(0, 4), [0, 1, 2], [2], [0]),
    "cif_counterfactual": (slice(0, 4), [1, 2], [2]),
}


def _reduction(table, name):
    """Aalen-Johansen rows of reduction ``name`` on a (k x 7 x T) exit table.

    Returns its (k x T) curves, NaN where undefined, and the (k x T)
    all-cause survival after each time.  At a time where the reduction has
    no exit, a step multiplies by an exact 1.0 and adds an exact 0.0, so on
    its own exit times the curves are those of the reduction alone.  After
    a row's last exit its risk set is empty and divided by 1 in place of 0,
    with zero events, so its curves stay frozen.
    """
    risk, events, *targets = _REDUCTIONS[name]
    y = np.maximum(_at_risk(table[:, risk].sum(axis=1)), 1.0)
    s_after = np.cumprod(1.0 - table[:, events].sum(axis=1) / y, axis=1)
    s_minus = np.concatenate((np.ones((table.shape[0], 1)), s_after[:, :-1]), axis=1)
    cifs = [np.cumsum(s_minus * table[:, rows].sum(axis=1) / y, axis=1) for rows in targets]
    return (_conditional(*cifs) if len(cifs) > 1 else cifs[0]), s_after


def _conditional(cif_death, cif_exposure):
    """P(death by t | unexposed at t), NaN where nobody is left unexposed."""
    denom = 1.0 - cif_exposure
    undefined = denom <= _DENOM_TOL
    return np.where(undefined, np.nan, cif_death / np.where(undefined, 1.0, denom))


def _sample_curve(records, name) -> StepCurve:
    """The curve of reduction ``name`` on the sample, at its own exit times."""
    times, table = _exit_table(records)
    counts = table()
    values, s_after = _reduction(counts, name)
    on = counts[0, _REDUCTIONS[name][0]].any(axis=0)
    ut, values = times[on], values[0, on]
    undefined = np.isnan(values)
    # mass left unresolved after the last exit: the curve is frozen from there
    truncated = s_after[0, on][-1] > _DENOM_TOL
    return StepCurve(
        ut, values, initial=0.0,
        undefined_from=float(ut[undefined.argmax()]) if undefined.any() else None,
        truncated_from=float(ut[-1]) if truncated else None,
    )


def overall_death_risk(records: TransitionRecords) -> StepCurve:
    """P(death by t), from the combined-state competing-risks reduction.

    Death and discharge are pooled across exposure status, so the Markov
    assumption is never used.
    """
    return _sample_curve(records, "overall_death_risk")


def cpf_unexposed(records: TransitionRecords) -> StepCurve:
    """P(death by t | still unexposed at t), via the three-state reduction."""
    return _sample_curve(records, "cpf_unexposed")


def cif_counterfactual(records: TransitionRecords) -> StepCurve:
    """Death CIF with the exposure hazard set to zero.

    Exposure transitions count as censorings at the exposure time; the
    result estimates the death risk of the no-exposure path.
    """
    return _sample_curve(records, "cif_counterfactual")


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
    return HazardIncrements(times[on], dn[on], y[on])
