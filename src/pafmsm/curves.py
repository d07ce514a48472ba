"""Right-continuous step functions, the common output type of all estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bytes import _csv_table

__all__ = ["StepCurve", "union_grid"]


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
        if not (np.diff(t) > 0).all() or np.isnan(t[:1]).any():  # NaN fails every comparison
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
        return _csv_table(["t", "value"], [self.times, self.values])


def union_grid(*curves: StepCurve) -> np.ndarray:
    """Union of the jump times of several curves, sorted and de-duplicated."""
    if not curves:
        return np.array([])
    return np.unique(np.concatenate([c.times for c in curves]))
