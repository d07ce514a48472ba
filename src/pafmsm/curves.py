"""Right-continuous step functions, the common output type of all estimators."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["StepCurve", "union_grid"]

_CSV_CHUNK = 4096  # rows formatted per write by the CSV writers


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
        if t.size and np.any(np.diff(t) <= 0):
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

    def left_value(self, t):
        """Value at t- (just before t)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="left") - 1
        out = np.where(idx < 0, self.initial, self.values[np.clip(idx, 0, None)])
        return float(out) if out.ndim == 0 else out

    def is_defined(self, t):
        if self.undefined_from is None:
            return np.full(np.shape(t), True) if np.ndim(t) else True
        return np.asarray(t, dtype=float) < self.undefined_from

    def to_csv(self) -> str:
        """Two-column CSV ``t,value`` at the jump times."""
        buf = io.StringIO()
        buf.write("t,value\n")
        # formatted from Python floats, a chunk of rows per write: a list of
        # every row would raise the peak memory by about the text's size
        for k in range(0, self.times.size, _CSV_CHUNK):
            times = self.times[k : k + _CSV_CHUNK].tolist()
            values = self.values[k : k + _CSV_CHUNK].tolist()
            buf.write("".join([f"{t:.12g},{v:.12g}\n" if v == v else f"{t:.12g},\n"
                               for t, v in zip(times, values)]))
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "initial": self.initial,
                "times": self.times.tolist(),
                "values": [None if np.isnan(v) else v for v in self.values],
                "undefined_from": self.undefined_from,
                "truncated_from": self.truncated_from,
            }
        )


def union_grid(*curves: StepCurve) -> np.ndarray:
    """Union of the jump times of several curves, sorted and de-duplicated."""
    if not curves:
        return np.array([])
    return np.unique(np.concatenate([c.times for c in curves]))
