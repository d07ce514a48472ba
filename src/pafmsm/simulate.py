"""Cohort generator and oracle curves for piecewise-constant hazards.

Everything here exists to test the estimators: ``simulate_cohort`` draws
event histories from a known multistate model, and ``analytic_curves``
computes the same model's curves exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cohort import Cohort
from .curves import StepCurve
from .errors import DataError

__all__ = [
    "PiecewiseHazard",
    "HazardSpec",
    "OracleCurves",
    "simulate_cohort",
    "analytic_curves",
    "icu_like_spec",
]


@dataclass(frozen=True)
class PiecewiseHazard:
    """Piecewise-constant hazard rate on [0, inf).

    ``until`` holds the right endpoint of each segment; the last rate
    continues past the last endpoint indefinitely.
    """

    until: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.until, dtype=float)
        r = np.asarray(self.rates, dtype=float)
        if u.ndim != 1 or r.shape != u.shape or u.size == 0:
            raise DataError("until and rates must be 1-d arrays of equal length")
        # the last rate continues past the last endpoint, so that endpoint
        # may be left open: null (NaN) or inf
        last = np.inf if np.isnan(u[-1]) else u[-1]
        if not (np.all(np.isfinite(u[:-1])) and np.all(np.diff(np.r_[0.0, u[:-1], last]) > 0)):
            raise DataError("hazard breakpoints must be finite, positive and increasing")
        if np.any(r < 0) or not np.all(np.isfinite(r)):
            raise DataError("hazard rates must be finite and >= 0")
        object.__setattr__(self, "until", u)
        object.__setattr__(self, "rates", r)

    @classmethod
    def constant(cls, rate: float) -> "PiecewiseHazard":
        return cls(np.array([1.0]), np.array([float(rate)]))

    @classmethod
    def from_json(cls, obj) -> "PiecewiseHazard":
        if isinstance(obj, (int, float)):
            return cls.constant(obj)
        try:
            until = [p["until"] for p in obj]
            rates = [p["rate"] for p in obj]
        except (TypeError, KeyError):
            raise DataError(
                "a hazard is either a number or a list of {'until', 'rate'} pieces"
            ) from None
        try:
            u, r = np.array(until, dtype=float), np.array(rates, dtype=float)
        except (TypeError, ValueError):
            raise DataError(
                f"hazard pieces must hold numbers, got until {until!r} and rate {rates!r}"
            ) from None
        return cls(u, r)

    def to_json(self):
        return [
            {"until": float(u) if np.isfinite(u) else None, "rate": float(r)}
            for u, r in zip(self.until, self.rates)
        ]

    @property
    def breakpoints(self) -> np.ndarray:
        """Interior knots where the rate may change."""
        return self.until[:-1] if self.until.size > 1 else np.array([])

    def rate_at(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.minimum(np.searchsorted(self.until, t, side="right"), self.rates.size - 1)
        out = self.rates[idx]
        return float(out) if out.ndim == 0 else out

    def cumulative(self, t):
        """Integral of the rate from 0 to t, exact."""
        t = np.asarray(t, dtype=float)
        starts = np.concatenate([[0.0], self.until[:-1]])
        cum_at_start = np.concatenate([[0.0], np.cumsum(self.rates[:-1] * np.diff(starts))]) if self.until.size > 1 else np.array([0.0])
        idx = np.minimum(np.searchsorted(self.until, t, side="right"), self.rates.size - 1)
        out = cum_at_start[idx] + self.rates[idx] * (t - starts[idx])
        return float(out) if out.ndim == 0 else out

    def is_zero(self) -> bool:
        return bool(np.all(self.rates == 0))


def _sum_knots(*hazards: PiecewiseHazard) -> np.ndarray:
    pts = [np.array([0.0])]
    for h in hazards:
        pts.append(h.breakpoints)
    return np.unique(np.concatenate(pts))


@dataclass(frozen=True)
class HazardSpec:
    """Full specification of the generating model.

    gamma multiplies the post-exposure hazards by exp(gamma * inf_time),
    breaking the Markov property when nonzero.  censor_rate adds an
    independent exponential censoring time; tau censors administratively.
    round_days rounds event times up to whole days so that the discrete
    estimators apply exactly.
    """

    alpha01: PiecewiseHazard
    alpha02: PiecewiseHazard
    alpha03: PiecewiseHazard
    alpha14: PiecewiseHazard
    alpha15: PiecewiseHazard
    gamma: float = 0.0
    censor_rate: float = 0.0
    tau: float = 100.0
    round_days: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise DataError("tau must be a finite number > 0")
        if not (math.isfinite(self.censor_rate) and self.censor_rate >= 0):
            raise DataError("censor_rate must be a finite number >= 0")
        if not math.isfinite(self.gamma):
            raise DataError("gamma must be a finite number")

    @classmethod
    def from_json(cls, text: str) -> "HazardSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"hazard spec is not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise DataError(f"hazard spec must be a JSON object, got {text.strip()[:40]!r}")
        names = ["alpha01", "alpha02", "alpha03", "alpha14", "alpha15"]
        missing = [n for n in names if n not in obj]
        if missing:
            raise DataError(f"hazard spec is missing {', '.join(missing)}")
        hazards = {n: PiecewiseHazard.from_json(obj[n]) for n in names}
        numbers = {}
        for name, default in (("gamma", 0.0), ("censor_rate", 0.0), ("tau", 100.0)):
            value = obj.get(name, default)
            try:
                numbers[name] = float(value)
            except (TypeError, ValueError):
                raise DataError(f"{name} must be a number, got {value!r}") from None
        return cls(**hazards, **numbers, round_days=bool(obj.get("round_days", False)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha01": self.alpha01.to_json(),
                "alpha02": self.alpha02.to_json(),
                "alpha03": self.alpha03.to_json(),
                "alpha14": self.alpha14.to_json(),
                "alpha15": self.alpha15.to_json(),
                "gamma": self.gamma,
                "censor_rate": self.censor_rate,
                "tau": self.tau,
                "round_days": self.round_days,
            }
        )

    @classmethod
    def constant(cls, a01, a02, a03, a14, a15, **kw) -> "HazardSpec":
        return cls(
            PiecewiseHazard.constant(a01),
            PiecewiseHazard.constant(a02),
            PiecewiseHazard.constant(a03),
            PiecewiseHazard.constant(a14),
            PiecewiseHazard.constant(a15),
            **kw,
        )


def icu_like_spec(tau=100.0, **kw) -> HazardSpec:
    """Illustrative hospital-stay shapes: discharge hazard large early,
    then decreasing; exposure possible only during the first weeks.
    Not calibrated to any real data set.
    """
    day = np.array([7.0, 14.0, 28.0])
    return HazardSpec(
        alpha01=PiecewiseHazard(day, np.array([0.05, 0.03, 0.0])),
        alpha02=PiecewiseHazard(day, np.array([0.12, 0.08, 0.05])),
        alpha03=PiecewiseHazard(day, np.array([0.02, 0.02, 0.015])),
        alpha14=PiecewiseHazard(day, np.array([0.08, 0.06, 0.04])),
        alpha15=PiecewiseHazard(day, np.array([0.04, 0.035, 0.03])),
        tau=tau,
        **kw,
    )


def _invert_linear(knots, cum_at_knots, slopes, targets):
    """Solve cum(t) = target for a piecewise-linear increasing cum.

    knots: (m,) segment start points, knots[0] = 0.  cum_at_knots and
    slopes broadcast against targets' rows; the last segment extends to
    infinity.  Targets beyond the total mass map to inf.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    cum = np.atleast_2d(cum_at_knots)
    # index of the segment containing the crossing
    idx = np.maximum((cum < targets[:, None]).sum(axis=1) - 1, 0)
    rows = np.arange(targets.size) if cum.shape[0] > 1 else np.zeros(targets.size, dtype=int)
    sl = slopes[rows, idx] if slopes.ndim == 2 else slopes[idx]
    c0 = cum[rows, idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(sl > 0, knots[idx] + (targets - c0) / np.where(sl > 0, sl, 1.0), np.inf)
    # a flat final segment never reaches the target
    return t


def simulate_cohort(spec: HazardSpec, n: int, seed: int) -> Cohort:
    """Draw n independent subject histories; deterministic per (seed, row)."""
    if n < 1:
        raise DataError("n must be >= 1")
    hazards = (spec.alpha01, spec.alpha02, spec.alpha03, spec.alpha14, spec.alpha15)
    if all(h.is_zero() for h in hazards) and spec.censor_rate == 0:
        raise DataError("all hazard rates are zero; nothing can happen")

    rng = np.random.default_rng(seed)
    u = rng.random((n, 4))
    c = spec.censor_rate

    # state 0: competing 01 / 02 / 03 / censor
    knots0 = _sum_knots(spec.alpha01, spec.alpha02, spec.alpha03)
    slope0 = (
        spec.alpha01.rate_at(knots0)
        + spec.alpha02.rate_at(knots0)
        + spec.alpha03.rate_at(knots0)
        + c
    )
    cum0 = np.concatenate([[0.0], np.cumsum(slope0[:-1] * np.diff(knots0))])
    e0 = -np.log(u[:, 0])
    t0 = _invert_linear(knots0, cum0, slope0, e0)

    # cause split at the event time
    r01 = spec.alpha01.rate_at(t0)
    r02 = spec.alpha02.rate_at(t0)
    r03 = spec.alpha03.rate_at(t0)
    tot = r01 + r02 + r03 + c
    with np.errstate(invalid="ignore", divide="ignore"):
        pick = u[:, 1] * np.where(tot > 0, tot, 1.0)
    cause0 = np.full(n, 9)  # 9 = censored by the exponential clock
    cause0[pick < r01 + r02 + r03] = 3
    cause0[pick < r01 + r02] = 2
    cause0[pick < r01] = 1
    admin0 = ~(t0 < spec.tau)
    exposed = (cause0 == 1) & ~admin0

    inf_time = np.where(exposed, t0, np.nan)
    end_time = np.where(admin0, spec.tau, t0)
    # status codes: 1 death, 2 discharge, 0 censored
    status = np.zeros(n, dtype=int)
    status[(cause0 == 3) & ~admin0] = 1
    status[(cause0 == 2) & ~admin0] = 2

    if np.any(exposed):
        idx = np.nonzero(exposed)[0]
        tinf = t0[idx]
        factor = np.exp(spec.gamma * tinf) if spec.gamma != 0 else np.ones(idx.size)
        knots1 = _sum_knots(spec.alpha14, spec.alpha15)
        base_rate = spec.alpha14.rate_at(knots1) + spec.alpha15.rate_at(knots1)
        base_cum = np.concatenate([[0.0], np.cumsum(base_rate[:-1] * np.diff(knots1))])
        # per subject: cum(t) = factor * (A1(t) - A1(tinf)) + c * (t - tinf)
        a1_tinf = _cum_from_table(knots1, base_cum, base_rate, tinf)
        cum1 = factor[:, None] * (base_cum[None, :] - a1_tinf[:, None]) + c * (
            knots1[None, :] - tinf[:, None]
        )
        slope1 = factor[:, None] * base_rate[None, :] + c
        e1 = -np.log(u[idx, 2])
        t1 = _invert_linear(knots1, cum1, slope1, e1)
        r14 = factor * spec.alpha14.rate_at(t1)
        r15 = factor * spec.alpha15.rate_at(t1)
        tot1 = r14 + r15 + c
        with np.errstate(invalid="ignore", divide="ignore"):
            pick1 = u[idx, 3] * np.where(tot1 > 0, tot1, 1.0)
        cause1 = np.full(idx.size, 9)
        cause1[pick1 < r14 + r15] = 5
        cause1[pick1 < r14] = 4
        admin1 = ~(t1 <= spec.tau)
        end_time[idx] = np.where(admin1, spec.tau, t1)
        st1 = np.zeros(idx.size, dtype=int)
        st1[(cause1 == 5) & ~admin1] = 1
        st1[(cause1 == 4) & ~admin1] = 2
        status[idx] = st1

    if spec.round_days:
        with np.errstate(invalid="ignore"):
            inf_time = np.ceil(inf_time)
        end_time = np.ceil(end_time)
        bump = exposed & (end_time <= inf_time)
        end_time[bump] = inf_time[bump] + 1.0
        horizon = math.ceil(spec.tau) + 1.0 if np.any(end_time > math.ceil(spec.tau)) else float(math.ceil(spec.tau))
    else:
        horizon = spec.tau

    return Cohort.from_columns(
        [str(i) for i in range(n)],
        np.where(exposed, inf_time, np.nan),
        end_time,
        status,
        horizon=max(horizon, float(end_time.max())),
    )


def _cum_from_table(knots, cum_at_knots, rates, t):
    idx = np.minimum(np.searchsorted(knots, t, side="right") - 1, rates.size - 1)
    return cum_at_knots[idx] + rates[idx] * (t - knots[idx])


@dataclass(frozen=True)
class OracleCurves:
    """Exact model curves, evaluated on the requested grid."""

    grid: np.ndarray
    p00: StepCurve
    p01: StepCurve
    p02: StepCurve
    p03: StepCurve
    p04: StepCurve
    p05: StepCurve
    p030: StepCurve
    overall_death: StepCurve
    cpf: StepCurve
    paf_o: StepCurve
    paf_c: StepCurve

    def as_dict(self):
        return {
            "p00": self.p00, "p01": self.p01, "p02": self.p02,
            "p03": self.p03, "p04": self.p04, "p05": self.p05,
            "p030": self.p030, "overall_death": self.overall_death,
            "cpf": self.cpf, "paf_o": self.paf_o, "paf_c": self.paf_c,
        }


_TAYLOR_DEGREE = 16


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix in a (J, k, k) stack by scaling and squaring
    (Moler & Van Loan 2003, SIAM Rev 45:3): a degree-16 Taylor series of
    a / 2**s, with s chosen to bring the infinity norm to at most 1/2
    (remainder below 1e-19), then squared s times."""
    s = np.maximum(np.frexp(np.abs(a).sum(axis=2).max(axis=1))[1] + 1, 0)
    x = np.ldexp(a, -s[:, None, None])
    eye = np.eye(a.shape[-1])
    e = eye + x / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        e = eye + x @ e / k
    for k in range(int(s.max(initial=0))):
        e[s > k] = e[s > k] @ e[s > k]
    return e


def _occupation(rates: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """(J + 1, 6) state-occupation probabilities from state 0 at the ends
    of J intervals of lengths dt, on which the intensities of 0->1, 0->2,
    0->3, 1->4 and 1->5 are the constant columns of rates (J, 5)."""
    q = np.zeros((dt.size, 6, 6))
    q[:, [0, 0, 0, 1, 1], [1, 2, 3, 4, 5]] = rates
    q[:, range(6), range(6)] = -q.sum(axis=2)
    p = np.zeros((dt.size + 1, 6))
    p[0, 0] = 1.0
    for j, step in enumerate(_expm(q * dt[:, None, None])):
        p[j + 1] = p[j] @ step
    return p


def analytic_curves(spec: HazardSpec, grid) -> OracleCurves:
    """The model's transition probabilities on ``grid``, exactly.

    The hazards are constant between the union of their knots and the
    grid points, so each state-occupation probability is a product of
    matrix exponentials; p030 is p03 of the same model without exposure.
    """
    if spec.gamma != 0:
        raise DataError("analytic curves require the Markov model (gamma = 0)")
    grid = np.unique(np.asarray(grid, dtype=float))
    if grid.size == 0 or grid[0] < 0:
        raise DataError("grid must be non-empty and non-negative")

    hazards = (spec.alpha01, spec.alpha02, spec.alpha03, spec.alpha14, spec.alpha15)
    knots = _sum_knots(*hazards)
    times = np.unique(np.concatenate([[0.0], grid, knots[knots <= grid[-1]]]))
    rates = np.column_stack([h.rate_at(times[:-1]) for h in hazards])
    dt = np.diff(times)
    pos = np.searchsorted(times, grid)
    p00, p01, p02, p03, p04, p05 = _occupation(rates, dt)[pos].T
    rates[:, 0] = 0.0
    p030 = _occupation(rates, dt)[pos, 3]

    pd = p03 + p05
    with np.errstate(invalid="ignore", divide="ignore"):
        cpf = np.where(p00 + p02 + p03 > 0, p03 / (p00 + p02 + p03), np.nan)
        paf_o = np.where(pd > 0, (pd - cpf) / pd, np.nan)
        paf_c = np.where(pd > 0, (pd - p030) / pd, np.nan)
    vals = {
        "p00": p00, "p01": p01, "p02": p02, "p03": p03, "p04": p04, "p05": p05,
        "p030": p030, "overall_death": pd, "cpf": cpf, "paf_o": paf_o, "paf_c": paf_c,
    }

    def curve(key):
        v = vals[key]
        nan = np.isnan(v)
        undef = float(grid[nan][0]) if nan.any() else None
        # a NaN head (t = 0 for the PAFs) is not an undefined tail
        if undef is not None and not nan.all() and np.any(~nan & (grid > undef)):
            undef = None
        return StepCurve(grid, v, initial=v[0] if not nan[0] else 0.0, undefined_from=undef)

    return OracleCurves(grid=grid, **{k: curve(k) for k in vals})
