"""Right-continuous step functions, the common output type of all estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bytes import _csv_chunks

__all__ = ["StepCurve", "union_grid"]


@dataclass(frozen=True)
class StepCurve:
    """Piecewise-constant, right-continuous function of time.

    ``value(t)`` is the value attached to the largest jump time <= t, or
    ``initial`` before the first jump (everywhere, if it has none).
    Evaluation outside the observed range clamps to the boundary values.
    ``undefined_from`` marks the first time from which the curve is not
    meaningful (e.g. a vanished denominator); values there are NaN as
    well.  ``truncated_from`` marks risk-set exhaustion: the curve is
    frozen beyond that time.
    """

    times: np.ndarray
    values: np.ndarray
    initial: float = 0.0
    undefined_from: float | None = None
    truncated_from: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if not (np.diff(t) > 0).all() or np.isnan(t[:1]).any():  # NaN fails every comparison
            raise ValueError("jump times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        """Evaluate at scalar or array ``t``."""
        t = np.asarray(t, dtype=float)
        out = self._at(t, np.searchsorted(self.times, t, side="right") - 1)
        return float(out) if out.ndim == 0 else out

    def _at(self, t, idx):
        """The values at ``t``, given the index of the last jump at or
        before each (-1 before the first)."""
        if self.values.size:
            out = np.where(idx < 0, self.initial, self.values.take(idx, mode="clip"))
        else:  # no jump: every index is -1
            out = np.full(np.shape(idx), self.initial)
        if self.undefined_from is not None:
            out = np.where(t >= self.undefined_from, np.nan, out)
        return out

    def to_csv(self) -> str:
        """Two-column CSV ``t,value`` at the jump times (a NaN value blank)."""
        return "".join(self._csv_chunks())

    def _csv_chunks(self):
        """The text of ``to_csv`` in pieces (``_bytes._csv_chunks``)."""
        return _csv_chunks(["t", "value"], [self.times, self.values])


def union_grid(*curves: StepCurve) -> np.ndarray:
    """Union of the jump times of several curves, sorted and de-duplicated
    (``_merged``)."""
    if not curves:
        return np.array([])
    return _merged(curves)[0]


def _merged(curves):
    """The sorted union of the jump times of ``curves``, and for each curve
    the index of its last jump at or before each point of it (-1 before
    its first), from one stable sort of all the times and one ``cumsum``
    per curve but the last.

    The stable sort of sorted runs is a merge of them (timsort).  A run of
    equal times in the merge holds at most one time of each curve, whose
    times strictly increase, and the jumps of a curve at or before a point
    are its times up to the end of the point's run.
    """
    times = np.concatenate([c.times for c in curves])
    order = np.argsort(times, kind="stable")
    # whether each time of the merge is one of the first c curves', for c = 1 .. k - 1
    firsts = [order < b for b in np.cumsum([c.times.size for c in curves])[:-1]]
    times = times[order]
    del order  # each full-length array goes once it has been read
    last = np.ones(times.size, bool)  # the last time of each run of equal times
    np.not_equal(times[1:], times[:-1], out=last[:-1])
    ends = np.flatnonzero(last)
    grid = times[ends]
    del times, last
    index, before = [], 0
    for first in firsts:  # the jumps of the first c curves up to the end of each run
        upto = np.cumsum(first)[ends]
        index.append(upto - before - 1)
        before = upto
    ends -= before  # the last curve's jumps up to the end of each run, less one
    return grid, [*index, ends]
