"""Nonparametric continuous-time estimators.

Every estimator reads an exit table, built with one sort: exits counted
by kind on their distinct times.  The six-state table holds the exits
from state 0 (at the exposure time if exposed, else at the end) and from
state 1, as integer counts; at its peak it holds the (7 x T) counts, the
T times and the risk sets Y0(t-) and Y1(t-).  The Aalen-Johansen
estimator lets those go once it has taken its five hazard rows on the
event times, and sums its cumulative curves in place over them.  Each
competing-risks reduction reads only the exits of its own state, state 0
or the hospital (states 0 and 1), in an integer table that also counts a
block of drawn subjects at once, which is how the bootstrap evaluates its
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

from .cohort import STATUS_CENSORED, STATUS_DEATH, STATUS_DISCHARGE, Cohort
from .curves import StepCurve
from .errors import DataError

__all__ = [
    "OccupationCurves",
    "aalen_johansen_extended",
    "overall_death_risk",
    "cpf_unexposed",
    "cif_counterfactual",
    "exposure_survival",
    "ht_cif",
]

_DENOM_TOL = 1e-12
_AJ_SLICE = 1 << 13  # event times per slice of the Aalen-Johansen p00/p01 scan


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


def _at_risk(exits):
    """Risk sets Y(t-) on a sorted grid, along the last axis: the exits at
    or after each time, summed in place over ``exits``."""
    backwards = exits[..., ::-1]
    np.cumsum(backwards, axis=-1, out=backwards)
    return exits


def _divide(dn, y):
    """dn / y, and 0 where y is 0."""
    return np.divide(dn, y, out=np.zeros(dn.size), where=y > 0)


# the exit row of each status code, after the row of the first exit kind
_KIND = np.empty(3, np.int64)
_KIND[[STATUS_DISCHARGE, STATUS_DEATH, STATUS_CENSORED]] = 0, 1, 2


def _kinds(status, base):
    """Exit rows base, base + 1 and base + 2 for discharge, death and censoring."""
    return (_KIND + base)[status]


# Rows of the six-state exit table: exits 0->1, 0->2, 0->3, 0->censored,
# 1->4, 1->5 and 1->censored.  This maps each transition to its row.  The
# tables of the exits from state 0 and from the hospital have the first
# four: exposure (empty for the hospital), discharge, death and censored.
_ROWS = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 4): 4, (1, 5): 5}


def _exit_table(cohort: Cohort, exits, merge=None):
    """Exit counts by kind on the distinct exit times, from one sort.

    ``exits`` is "state0" (each subject leaves state 0 once: at the
    exposure time if exposed, else at the end), "hospital" (each subject
    leaves at the end) or "six_state" (the exits from state 0 and, if
    exposed, from state 1, 7 rows).  Returns the T distinct exit times and
    a function that counts exits as integers, with one unweighted
    ``bincount``: without an argument the sample's (rows x T) table; of a
    (k x d) block of draws, indices into the exits (in the state-0 and
    hospital tables exit i is subject i's), the (k x rows x T) tables of
    the k resampled samples.  ``merge``, one row number per row, counts
    each row's exits in that row of a smaller table.
    """
    inf, end, status = cohort.inf, cohort.end, cohort.status
    if end.size == 0:
        raise DataError("empty cohort")
    times, kinds, rows = end, _kinds(status, 1), 4
    if exits != "hospital":
        exposed = ~np.isnan(inf)
        times, kinds = np.where(exposed, inf, end), np.where(exposed, 0, kinds)
    if exits == "six_state":
        times = np.concatenate((times, end[exposed]))
        kinds, rows = np.concatenate((kinds, _kinds(status[exposed], 4))), 7
    if merge is not None:
        kinds, rows = merge[kinds], merge.max() + 1
    ut, idx = np.unique(times, return_inverse=True)
    del times
    cells = np.multiply(kinds, ut.size, out=kinds)
    cells += idx
    del idx

    def table(draws=None):
        if draws is None:
            return np.bincount(cells, minlength=rows * ut.size).reshape(rows, ut.size)
        drawn = np.take(cells, draws)
        drawn += np.arange(0, len(draws) * rows * ut.size, rows * ut.size)[:, None]
        return np.bincount(drawn.ravel(), minlength=drawn.shape[0] * rows * ut.size).reshape(
            -1, rows, ut.size)

    return ut, table


def _six_state(cohort: Cohort):
    """The sample's (7 x T) integer exit table, its times and the risk sets
    Y0(t-) and Y1(t-): state 1 is entered by exposure and left by the exits
    from it."""
    times, table = _exit_table(cohort, "six_state")
    counts = table()
    del table  # and with it the cells
    y0 = _at_risk(counts[:4].sum(axis=0))
    y1 = counts[4:].sum(axis=0)
    y1 -= counts[0]
    return times, counts, y0, _at_risk(y1)


# The competing-risks reductions of the six-state process: the exits whose
# table each reads, and the rows of its events and of the target whose CIF
# is the curve.  cpf_unexposed adds the exposure row, whose CIF divides its
# death CIF.
_REDUCTIONS = {
    "overall_death_risk": ("hospital", slice(1, 3), (2,)),
    "cpf_unexposed": ("state0", slice(0, 3), (2, 0)),
    "cif_counterfactual": ("state0", slice(1, 3), (2,)),
}


def _reduction(table, name):
    """Aalen-Johansen rows of reduction ``name`` on its (k x 4 x T) integer
    exit table, whose rows it overwrites if k is 1.

    Returns its (k x T) curves, NaN where undefined, and the (k x T)
    all-cause survival after each time.  The risk sets are integer
    reverse sums, exact in any order, taken as floats once clamped.  Then
    the float steps run in place on each target's CIF row.  At a time
    where a row has no exit (no subject drawn), a step multiplies by an
    exact 1.0 and adds an exact 0.0.  After a row's last exit its risk set
    is empty and divided by 1 in place of 0, with zero events, so its
    curves stay frozen.
    """
    events, targets = _REDUCTIONS[name][1:]
    y = np.maximum(_at_risk(table.sum(axis=1)), 1.0)
    s_after = np.divide(table[:, events].sum(axis=1), y)
    np.subtract(1.0, s_after, out=s_after)
    np.cumprod(s_after, axis=1, out=s_after)
    # a sample's table (k = 1) takes each CIF over a row that no later step
    # reads, so it needs no float copy; a block's rows interleave, and new
    # rows are faster there
    spare = [row for row in range(table.shape[1]) if row not in targets]
    cifs = []
    for row, free in zip(targets, spare):
        counts = table[:, row]
        cif = table[:, free].view(np.float64) if len(table) == 1 else np.empty(counts.shape)
        cif[:, 0] = counts[:, 0]
        np.multiply(s_after[:, :-1], counts[:, 1:], out=cif[:, 1:])  # S(t-) dN(t); S(0-) is 1
        np.divide(cif, y, out=cif)
        cifs.append(np.cumsum(cif, axis=1, out=cif))
    return (_conditional(*cifs) if len(cifs) > 1 else cifs[0]), s_after


def _conditional(cif_death, cif_exposure):
    """P(death by t | unexposed at t), NaN where nobody is left unexposed;
    written over ``cif_death``."""
    denom = np.subtract(1.0, cif_exposure, out=cif_exposure)
    undefined = denom <= _DENOM_TOL
    np.divide(cif_death, denom, out=cif_death, where=~undefined)
    cif_death[undefined] = np.nan
    return cif_death


def _sample_curve(cohort, name) -> StepCurve:
    """The curve of reduction ``name`` on the sample, at its own exit times."""
    times, table = _exit_table(cohort, _REDUCTIONS[name][0])
    counts = table()[None]
    del table  # and with it the cells
    values, s_after = _reduction(counts, name)
    values = values[0].copy()  # a view would keep the whole table alive with the curve
    undefined = np.isnan(values)
    # mass left unresolved after the last exit: the curve is frozen from there
    truncated = s_after[0, -1] > _DENOM_TOL
    return StepCurve(
        times, values, initial=0.0,
        undefined_from=float(times[undefined.argmax()]) if undefined.any() else None,
        truncated_from=float(times[-1]) if truncated else None,
    )


def overall_death_risk(cohort: Cohort) -> StepCurve:
    """P(death by t), from the combined-state competing-risks reduction.

    Death and discharge are pooled across exposure status, so the Markov
    assumption is never used.
    """
    return _sample_curve(cohort, "overall_death_risk")


def cpf_unexposed(cohort: Cohort) -> StepCurve:
    """P(death by t | still unexposed at t), via the three-state reduction."""
    return _sample_curve(cohort, "cpf_unexposed")


def cif_counterfactual(cohort: Cohort) -> StepCurve:
    """Death CIF with the exposure hazard set to zero.

    Exposure transitions count as censorings at the exposure time; the
    result estimates the death risk of the no-exposure path.
    """
    return _sample_curve(cohort, "cif_counterfactual")


def _exposure_survival(times, counts, y0):
    """S01 on the state-0 exit times, and the mask of those times in the table."""
    exits = counts[:4].sum(axis=0)
    on = exits > 0
    dn = counts[0, on]
    at_risk = y0[on] - (exits[on] - dn)
    return StepCurve(times[on], np.cumprod(1.0 - _divide(dn, at_risk)), initial=1.0), on


def exposure_survival(cohort: Cohort) -> StepCurve:
    """Kaplan-Meier of the exposure-time distribution S01.

    Exposure is the event; leaving state 0 any other way censors.  Tied
    non-exposure exits are removed from the risk set before the exposure
    events at the same time, matching the discrete-time weight denominator.
    """
    times, counts, y0, _ = _six_state(cohort)
    return _exposure_survival(times, counts, y0)[0]


def ht_cif(cohort: Cohort) -> StepCurve:
    """Horvitz-Thompson form of the counterfactual death CIF.

    Each death without exposure is weighted by the inverse probability of
    having remained unexposed just before its time.
    """
    times, counts, y0, _ = _six_state(cohort)
    s01, on = _exposure_survival(times, counts, y0)
    s01_minus = np.concatenate(([1.0], s01.values[:-1]))
    dn_death = counts[_ROWS[0, 3], on]
    # y0[0] is n: everybody starts in state 0
    return StepCurve(s01.times, np.cumsum(_divide(dn_death, s01_minus)) / y0[0], initial=0.0)


def aalen_johansen_extended(cohort: Cohort) -> OccupationCurves:
    """Product-integral occupation probabilities of the six-state model.

    The transitions out of state 1 pool all current occupants regardless
    of their exposure time (Markov assumption).
    """
    times, counts, y0, y1 = _six_state(cohort)
    on = counts[:3].any(axis=0) | counts[4:6].any(axis=0)  # a transition, not only censorings
    ut, y0, y1 = times[on], y0[on], y1[on]
    del times
    h01, h02, h03 = (_divide(counts[_ROWS[0, l], on], y0) for l in (1, 2, 3))
    h14, h15 = (_divide(counts[_ROWS[1, l], on], y1) for l in (4, 5))
    del counts, y0, y1, on  # from here on: the hazards and the curves
    # p00 is a scan on Python floats, and p01 a second one over p00(t-) h01,
    # each run over slices of _AJ_SLICE event times so that only one slice
    # is held as Python floats.  The arrays start with the initial values,
    # so [:-1] holds p00(t-), p01(t-).
    x0 = np.add(h01, h02)
    x0 += h03
    x1 = np.add(h14, h15)
    p0, p1 = np.empty(ut.size + 1), np.empty(ut.size + 1)
    p0[0], p1[0] = a, b = 1.0, 0.0
    for k in range(0, ut.size, _AJ_SLICE):
        part, after = slice(k, k + _AJ_SLICE), slice(k + 1, k + 1 + _AJ_SLICE)
        p0[after] = [a := a - a * x for x in x0[part].tolist()]
        # b + a*x01 - b*x1k in that order, with a*x01 = p00(t-) h01 in one multiply
        u = np.multiply(p0[:-1][part], h01[part])
        p1[after] = [b := b + v - b * y for v, y in zip(u.tolist(), x1[part].tolist())]
    del h01, x0, x1
    for p, h in ((p0, h02), (p0, h03), (p1, h14), (p1, h15)):  # each curve over its hazard
        np.multiply(p[:-1], h, out=h)
        np.cumsum(h, out=h)
    values = (p0[1:], p1[1:], h02, h03, h14, h15)
    initials = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return OccupationCurves(*(StepCurve(ut, v, initial=i) for v, i in zip(values, initials)))
