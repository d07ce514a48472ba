"""Right-continuous step functions, the common output type of all estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StepCurve", "union_grid"]

_CSV_CHUNK = 4096  # rows formatted per write by the CSV writers


def _csv_rows(columns, first_as_is=True):
    """CSV rows of equal-length float ``columns``, one ``%`` format per
    ``_CSV_CHUNK`` rows: each cell as ``format(v, ".12g")`` (``inf``, ``-0``),
    a NaN cell blank, except in a first column kept ``first_as_is``."""
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    # %.12g writes "nan" for NaN only, and a first cell follows no comma
    nan, blank = (",nan", ",") if first_as_is else ("nan", "")
    for k in range(0, len(columns[0]), _CSV_CHUNK):
        block = np.column_stack([c[k : k + _CSV_CHUNK] for c in columns])
        yield (row * len(block) % tuple(block.ravel().tolist())).replace(nan, blank)


@dataclass(frozen=True)
class StepCurve:
    """Piecewise-constant, right-continuous function of time.

    ``value(t)`` is the value attached to the largest jump time <= t, or
    ``initial`` before the first jump.  Evaluation outside the observed
    range clamps to the boundary values.  ``undefined_from`` marks the
    first time from which the curve is not meaningful (e.g. a vanished
    denominator); values there are NaN as well.  ``truncated_from`` marks
    risk-set exhaustion: the curve is frozen beyond that time.
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
        if not (np.diff(t) > 0).all():  # NaN fails the comparison
            raise ValueError("jump times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        """Evaluate at scalar or array ``t``."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right") - 1
        out = np.where(idx < 0, self.initial, self.values[np.clip(idx, 0, None)])
        if self.undefined_from is not None:
            out = np.where(t >= self.undefined_from, np.nan, out)
        return float(out) if out.ndim == 0 else out

    def to_csv(self) -> str:
        """Two-column CSV ``t,value`` at the jump times (a NaN value blank)."""
        return "t,value\n" + "".join(_csv_rows((self.times, self.values)))


def union_grid(*curves: StepCurve) -> np.ndarray:
    """Union of the jump times of several curves, sorted and de-duplicated."""
    if not curves:
        return np.array([])
    return np.unique(np.concatenate([c.times for c in curves]))
