"""Cohort generator and oracle curves for piecewise-constant hazards.

Everything here exists to test the estimators: ``simulate_cohort`` draws
event histories from a known multistate model, and ``analytic_curves``
computes the same model's curves exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort, _IdBytes
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
        """A JSON number (a constant rate) or a list of {"until", "rate"}
        pieces whose values are numbers or null."""
        if _is_number(obj):
            return cls.constant(_float("rate", obj))
        try:
            until = [p["until"] for p in obj]
            rates = [p["rate"] for p in obj]
        except (TypeError, KeyError):
            raise DataError(
                "a hazard is either a number or a list of {'until', 'rate'} pieces"
            ) from None
        if not all(v is None or _is_number(v) for v in until + rates):
            raise DataError(
                f"hazard pieces must hold numbers, got until {until!r} and rate {rates!r}"
            )
        return cls(np.array([v if v is None else _float("until", v) for v in until], dtype=float),
                   np.array([v if v is None else _float("rate", v) for v in rates], dtype=float))

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

    def is_zero(self) -> bool:
        return bool(np.all(self.rates == 0))


def _is_number(value) -> bool:
    """Whether a JSON value is a number: an int or a float, not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(key, value) -> float:
    """A JSON number as a float, naming ``key`` if it is past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise DataError(f"{key} must be a finite number, got an integer past the float range") from None


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
        except ValueError as exc:  # also an integer too long to convert to int
            raise DataError(f"hazard spec is not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise DataError(f"hazard spec must be a JSON object, got {text.strip()[:40]!r}")
        names = ["alpha01", "alpha02", "alpha03", "alpha14", "alpha15"]
        missing = [n for n in names if n not in obj]
        if missing:
            raise DataError(f"hazard spec is missing {', '.join(missing)}")
        for name in names:
            if isinstance(obj[name], (bool, str)):
                raise DataError(f"{name} must be a number or a list of pieces, got {obj[name]!r}")
        hazards = {n: PiecewiseHazard.from_json(_float(n, obj[n]) if _is_number(obj[n]) else obj[n])
                   for n in names}
        numbers = {}
        for name, default in (("gamma", 0.0), ("censor_rate", 0.0), ("tau", 100.0)):
            value = obj.get(name, default)
            if not _is_number(value):
                raise DataError(f"{name} must be a number, got {value!r}")
            numbers[name] = _float(name, value)
        round_days = obj.get("round_days", False)
        if not isinstance(round_days, bool):
            raise DataError(f"round_days must be true or false, got {round_days!r}")
        return cls(**hazards, **numbers, round_days=round_days)

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
    # a flat final segment never reaches the target, nor does one so nearly
    # flat (a denormal rate) that the crossing is past the float range
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(sl > 0, knots[idx] + (targets - c0) / np.where(sl > 0, sl, 1.0), np.inf)
    return t


def _competing_exit(name, hazards, factor, censor_rate, entry, u, check_exits=True):
    """Exit times and causes out of a state entered at ``entry`` and left
    by competing risks (Beyersmann et al. 2009, Stat Med 28:956).
    ``factor`` and ``entry`` are per subject, or 0-d when all share them.

    The exit time is drawn from the total hazard factor * sum(hazards) +
    censor_rate, the cause in proportion to the hazards at that time: the
    index of a hazard, or len(hazards) for censoring.  ``u`` holds two
    uniforms per subject.  DataError, naming the total hazard ``name`` and
    its largest rate, if its cumulative hazard at a knot is past the float
    range or a drawn exit time rounds onto its entry time.
    """
    knots = _sum_knots(*hazards)
    with np.errstate(over="ignore", invalid="ignore"):
        rate = sum(h.rate_at(knots) for h in hazards)
        at_knots = np.concatenate([[0.0], np.cumsum(rate[:-1] * np.diff(knots))])
        k = np.searchsorted(knots, entry, side="right") - 1
        at_entry = at_knots[k] + rate[k] * (entry - knots[k])
        # per subject: cum(t) = factor * (A(t) - A(entry)) + censor_rate * (t - entry)
        cum = (factor[..., None] * (at_knots - at_entry[..., None])
               + censor_rate * (knots - entry[..., None]))
        slope = factor[..., None] * rate + censor_rate
    if not (np.isfinite(slope).all() and np.isfinite(cum).all()):
        raise DataError(f"{name} reaches {np.max(slope):g} per day: "
                        "its cumulative hazard is past the float range")
    t = _invert_linear(knots, cum, slope, -np.log(u[:, 0]))
    early = ~(t > entry)
    if check_exits and early.any():
        raise DataError(f"{name} reaches {np.max(slope):g} per day: an exit after time "
                        f"{np.broadcast_to(entry, t.shape)[np.argmax(early)]:g} rounds onto that time")
    # running sums of the cause-specific hazards at t; pick falls in one
    bounds = np.cumsum([factor * h.rate_at(t) for h in hazards], axis=0)
    tot = bounds[-1] + censor_rate
    pick = u[:, 1] * np.where(tot > 0, tot, 1.0)
    return t, (bounds <= pick).sum(axis=0)


def simulate_cohort(spec: HazardSpec, n: int, seed: int) -> Cohort:
    """Draw n independent subject histories; deterministic per (seed, row).
    The ids are "0" ... str(n - 1), held as bytes until ``ids`` is read.

    A spec whose total hazard out of a state, or its cumulative hazard at a
    knot, is past the float range, or so large that a drawn exit time rounds
    onto its entry time, raises DataError naming the rate.
    """
    if n < 1:
        raise DataError("n must be >= 1")
    hazards = (spec.alpha01, spec.alpha02, spec.alpha03, spec.alpha14, spec.alpha15)
    if all(h.is_zero() for h in hazards) and spec.censor_rate == 0:
        raise DataError("all hazard rates are zero; nothing can happen")

    rng = np.random.default_rng(seed)
    u = rng.random((n, 4))

    # state 0: exposure, discharge, death, or censoring as a fourth hazard
    t0, cause0 = _competing_exit(
        "alpha01 + alpha02 + alpha03 + censor_rate",
        (spec.alpha01, spec.alpha02, spec.alpha03, PiecewiseHazard.constant(spec.censor_rate)),
        np.array(1.0), 0.0, np.array(0.0), u[:, :2])
    admin0 = ~(t0 < spec.tau)
    exposed = (cause0 == 0) & ~admin0
    inf_time = np.where(exposed, t0, np.nan)
    end_time = np.where(admin0, spec.tau, t0)
    # status codes by cause: 1 death, 2 discharge, 0 censored
    status = np.where(admin0, 0, np.array([0, 2, 1, 0, 0])[cause0])

    # state 1: discharge, death or censoring, the hazards times exp(gamma * inf_time)
    tinf = t0[exposed]
    with np.errstate(over="ignore"):
        factor = np.exp(spec.gamma * tinf)
    if not np.isfinite(factor).all():
        raise DataError(f"gamma = {spec.gamma:g}: the post-exposure hazard factor "
                        f"exp(gamma * inf_time) is past the float range at inf_time "
                        f"{tinf[np.argmax(~np.isfinite(factor))]:g}")
    t1, cause1 = _competing_exit(
        "exp(gamma * inf_time) * (alpha14 + alpha15) + censor_rate",
        (spec.alpha14, spec.alpha15), factor, spec.censor_rate, tinf, u[exposed, 2:],
        check_exits=not spec.round_days)  # whole days keep them apart (the bump below)
    admin1 = ~(t1 <= spec.tau)
    end_time[exposed] = np.where(admin1, spec.tau, t1)
    status[exposed] = np.where(admin1, 0, np.array([2, 1, 0])[cause1])

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
        _IdBytes.counting(n),
        inf_time,
        end_time,
        status,
        horizon=max(horizon, float(end_time.max())),
    )


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
    with np.errstate(over="ignore"):
        q[:, range(6), range(6)] = -q.sum(axis=2)
        a = q * dt[:, None, None]
        norm = np.abs(a).sum(axis=2)  # what _expm scales by
    if not np.isfinite(norm).all():
        j, k = np.unravel_index(np.argmax(~np.isfinite(norm)), norm.shape)
        raise DataError(f"the hazards out of state {k} sum to {-q[j, k, k]:g} per day: "
                        f"over a step of {dt[j]:g} days that is past the float range")
    p = np.zeros((dt.size + 1, 6))
    p[0, 0] = 1.0
    for j, step in enumerate(_expm(a)):
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
