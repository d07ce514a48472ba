"""Nonparametric continuous-time estimators.

Every estimator reads the exits, sorted once by time, and counts them by
kind on their distinct times.  The six-state exits are those from state 0
(at the exposure time if exposed, else at the end) and from state 1
(``_SixState``); a count of some kinds on the event times, or a risk set
Y0(t-) or Y1(t-), is read from one cumulative count over the sorted exits,
one at a time, so no table of every kind is held.  The Aalen-Johansen
estimator takes its five hazard rows that way, lets the exits go, and sums
its cumulative curves in place over the hazards.  Each competing-risks
reduction reads only the exits of its own state, state 0 or the hospital
(states 0 and 1), in a (4 x T) integer table counted in sorted order, or
of a block of drawn subjects at once, which is how the bootstrap evaluates
its replicates.

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


# the exit row of each status code, after the row of the first exit kind;
# one byte per exit
_KIND = np.empty(3, np.int8)
_KIND[[STATUS_DISCHARGE, STATUS_DEATH, STATUS_CENSORED]] = 0, 1, 2


def _kinds(status, base):
    """Exit rows base, base + 1 and base + 2 for discharge, death and censoring."""
    return (_KIND + base)[status]


# Rows of the six-state exits, their kinds: exits 0->1, 0->2, 0->3,
# 0->censored, 1->4, 1->5 and 1->censored.  This maps each transition to
# its row, and each state to the rows of its exits.  The tables of the
# exits from state 0 and from the hospital have the first four: exposure
# (empty for the hospital), discharge, death and censored.
_ROWS = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 4): 4, (1, 5): 5}
_FROM = {0: (0, 1, 2, 3), 1: (4, 5, 6)}


def _run_starts(times):
    """Whether each of the sorted ``times`` is the first of its run of
    equal values."""
    first = np.empty(times.size, bool)
    first[:1] = True
    np.not_equal(times[1:], times[:-1], out=first[1:])
    return first


def _sorted_cells(cohort: Cohort, exits, keep_order):
    """The exits in time order, from one sort.

    ``exits`` is "state0" (each subject leaves state 0 once: at the
    exposure time if exposed, else at the end) or "hospital" (each subject
    leaves at the end).  Returns the T distinct exit times, each sorted
    exit's cell (kind x T + run of equal times) and, if ``keep_order``,
    the sort order (else None).
    """
    inf, end, status = cohort.inf, cohort.end, cohort.status
    if end.size == 0:
        raise DataError("empty cohort")
    times, kinds = end, _kinds(status, 1)
    if exits != "hospital":  # the exposure time (before the end) and kind 0 if exposed
        times = np.fmin(inf, end)
        kinds *= np.isnan(inf)
    order = np.argsort(times)  # np.unique's sort: the same first of equal times
    kinds = kinds.take(order)
    if keep_order:
        times = times[order]
    else:  # each sorted time goes over the index it was read from: no third
        # array (see _SixState on this use of np.take)
        times = np.take(times, order, out=order.view(np.float64), mode="clip")
        order = None
    first = _run_starts(times)
    ut = times[first]
    del times
    cells = first.astype(np.int64)
    cells[0] = 0  # the run of each exit, by one cumulative sum in place
    np.cumsum(cells, out=cells)
    cells += np.multiply(kinds, ut.size, dtype=np.int64)
    return ut, cells, order


def _exit_counts(cohort: Cohort, exits):
    """The T distinct times of ``exits`` (see ``_sorted_cells``) and the
    sample's (4 x T) integer table of exits by kind, counted in sorted
    order by one ``bincount``."""
    ut, cells, _ = _sorted_cells(cohort, exits, keep_order=False)
    return ut, np.bincount(cells, minlength=4 * ut.size).reshape(4, ut.size)


def _exit_table(cohort: Cohort, exits):
    """The T distinct times of ``exits`` (see ``_sorted_cells``) and a
    function that counts a (k x d) block of draws, indices into the
    subjects: the (k x 4 x T) integer tables of the k resampled samples,
    by one unweighted ``bincount`` of the drawn subjects' cells.
    """
    ut, cells, order = _sorted_cells(cohort, exits, keep_order=True)
    by_subject = np.empty_like(cells)
    by_subject[order] = cells
    del cells, order
    size = 4 * ut.size

    def table(draws):
        drawn = np.take(by_subject, draws)
        drawn += np.arange(0, len(draws) * size, size)[:, None]
        return np.bincount(drawn.ravel(), minlength=len(draws) * size).reshape(-1, 4, ut.size)

    return ut, table


class _SixState:
    """The six-state exits in time order, from one sort, on the distinct
    times that hold an exit of the rows ``events``.

    Each exit is kept as its row (``_ROWS``, ``_FROM``), sorted by time.
    The counts of a set of rows at each time, and the risk sets Y0(t-) and
    Y1(t-), are read from one cumulative count over the sorted exits each:
    no (rows x T) table is held.  The counts are integers, so they are
    those of a table in any order.
    """

    def __init__(self, cohort: Cohort, events):
        inf, end, status = cohort.inf, cohort.end, cohort.status
        if end.size == 0:
            raise DataError("empty cohort")
        self.n = n = end.size
        exposed = np.flatnonzero(~np.isnan(inf))
        # the exits from state 0, at the exposure time (before the end) if
        # exposed, then those from state 1
        times = np.empty(n + exposed.size)
        np.fmin(inf, end, out=times[:n])
        times[n:] = end[exposed]
        kinds = np.empty(times.size, np.int8)
        np.multiply(_kinds(status, 1), np.isnan(inf), out=kinds[:n])
        kinds[n:] = _kinds(status[exposed], 4)
        del exposed
        order = np.argsort(times)
        self.kinds = kinds.take(order)
        del kinds
        # each sorted time goes over the index it was read from: no third
        # array.  numpy checks that ``out`` does not overlap ``times``, not
        # the indices: this relies on its take loop reading index j before
        # it writes element j, which tests/test_continuous.py checks past
        # any chunk width
        times = np.take(times, order, out=order.view(np.float64), mode="clip")
        del order
        # the first exit of each run of equal times, then of each run with
        # an event, and the end: the exits of the events from one such bound
        # to the next are those of its run, as only other exits lie between
        bounds = np.append(np.flatnonzero(_run_starts(times)), times.size)
        times = times[bounds[:-1]]
        upto = self._cumulative(events)[bounds]
        held = np.append(upto[1:] > upto[:-1], True)
        self.bounds, self.times = bounds[held], times[held[:-1]]

    def _cumulative(self, plus, minus=()):
        """At each sorted position and at the end, the exits before it of
        the rows ``plus`` less those of the rows ``minus``."""
        def member(rows):  # bit ``kind`` of the rows' mask, in int8
            return np.bitwise_and(np.right_shift(sum(1 << row for row in rows), self.kinds), 1)

        upto = np.zeros(self.kinds.size + 1, np.int64)
        upto[1:] = member(plus)
        if minus:
            upto[1:] -= member(minus)
        np.cumsum(upto, out=upto)
        return upto

    def count(self, rows):
        """The exits of ``rows``, rows of the events, at each time."""
        return np.diff(self._cumulative(rows)[self.bounds])

    def at_risk(self, state):
        """Y0(t-) or Y1(t-) at each time: state 0 holds every subject until
        it leaves, and state 1 those who entered it (by exposure) and have
        not left it."""
        if state == 0:
            return self.n - self._cumulative(_FROM[0])[self.bounds[:-1]]
        return self._cumulative((_ROWS[0, 1],), _FROM[1])[self.bounds[:-1]]


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
    times, counts = _exit_counts(cohort, _REDUCTIONS[name][0])
    counts = counts[None]
    values, s_after = _reduction(counts, name)
    values = values[0].copy()  # a view would keep the whole table alive with the curve
    del counts
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


def _exposure_survival(exits: _SixState) -> StepCurve:
    """S01 on the state-0 exit times of ``exits``."""
    dn = exits.count((_ROWS[0, 1],))
    at_risk = exits.at_risk(0)
    at_risk -= exits.count(_FROM[0])
    at_risk += dn
    return StepCurve(exits.times, np.cumprod(1.0 - _divide(dn, at_risk)), initial=1.0)


def exposure_survival(cohort: Cohort) -> StepCurve:
    """Kaplan-Meier of the exposure-time distribution S01.

    Exposure is the event; leaving state 0 any other way censors.  Tied
    non-exposure exits are removed from the risk set before the exposure
    events at the same time, matching the discrete-time weight denominator.
    """
    return _exposure_survival(_SixState(cohort, _FROM[0]))


def ht_cif(cohort: Cohort) -> StepCurve:
    """Horvitz-Thompson form of the counterfactual death CIF.

    Each death without exposure is weighted by the inverse probability of
    having remained unexposed just before its time.
    """
    exits = _SixState(cohort, _FROM[0])
    s01 = _exposure_survival(exits)
    s01_minus = np.concatenate(([1.0], s01.values[:-1]))
    dn_death = exits.count((_ROWS[0, 3],))
    # everybody starts in state 0
    return StepCurve(s01.times, np.cumsum(_divide(dn_death, s01_minus)) / exits.n, initial=0.0)


def aalen_johansen_extended(cohort: Cohort) -> OccupationCurves:
    """Product-integral occupation probabilities of the six-state model.

    The transitions out of state 1 pool all current occupants regardless
    of their exposure time (Markov assumption).
    """
    # the times of a transition, not only of censorings, and each
    # transition's hazard there, taken one count at a time
    exits = _SixState(cohort, tuple(_ROWS.values()))
    hazards = []
    for k, ls in ((0, (1, 2, 3)), (1, (4, 5))):
        y = exits.at_risk(k)
        hazards += [_divide(exits.count((_ROWS[k, l],)), y) for l in ls]
        del y
    (h01, h02, h03, h14, h15), ut = hazards, exits.times
    del exits, hazards  # from here on: the hazards and the curves
    # p00 is a scan on Python floats, and p01 a second one over p00(t-) h01,
    # each run over slices of _AJ_SLICE event times so that only one slice
    # is held as Python floats, with the total hazards out of states 0 and
    # 1 taken per slice.  The arrays start with the initial values, so
    # [:-1] holds p00(t-), p01(t-).
    p0, p1 = np.empty(ut.size + 1), np.empty(ut.size + 1)
    p0[0], p1[0] = a, b = 1.0, 0.0
    for k in range(0, ut.size, _AJ_SLICE):
        part, after = slice(k, k + _AJ_SLICE), slice(k + 1, k + 1 + _AJ_SLICE)
        x0 = np.add(h01[part], h02[part])
        x0 += h03[part]
        p0[after] = [a := a - a * x for x in x0.tolist()]
        # b + a*x01 - b*x1k in that order, with a*x01 = p00(t-) h01 in one multiply
        u = np.multiply(p0[:-1][part], h01[part])
        x1 = np.add(h14[part], h15[part])
        p1[after] = [b := b + v - b * y for v, y in zip(u.tolist(), x1.tolist())]
    del h01
    for p, h in ((p0, h02), (p0, h03), (p1, h14), (p1, h15)):  # each curve over its hazard
        np.multiply(p[:-1], h, out=h)
        np.cumsum(h, out=h)
    values = (p0[1:], p1[1:], h02, h03, h14, h15)
    initials = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return OccupationCurves(*(StepCurve(ut, v, initial=i) for v, i in zip(values, initials)))
