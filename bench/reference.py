"""Reference computations the benchmark checks the package against.

Nothing here imports ``pafmsm``: every estimator is written again from
its definition, on plain arrays, so that a fault in the package cannot
hide in the value it is compared with.

Subject arrays use the package's CSV meaning: ``inf`` is the exposure
time (NaN if never exposed), ``end`` the exit time and ``status`` one of
``CENSORED``, ``DEATH``, ``DISCHARGE``.
"""

from __future__ import annotations

import warnings

import numpy as np

CENSORED, DEATH, DISCHARGE = 0, 1, 2
_EXPOSURE = 3  # event code for 0 -> 1 in the three-state reduction
_TOL = 1e-12  # a denominator at or below this is treated as zero


# --- continuous-time estimators ------------------------------------------


def competing_cif(times, codes, events, target):
    """Aalen-Johansen cumulative incidence of ``target``.

    ``codes`` outside ``events`` are censorings.  Ties are settled
    together and the risk set is taken just before each time.
    Returns the distinct times, the CIF there and all-cause survival
    just after each time.
    """
    grid, inverse = np.unique(times, return_inverse=True)
    exits = np.bincount(inverse, minlength=grid.size)
    at_risk = times.size - np.concatenate(([0], np.cumsum(exits)[:-1]))
    is_event = np.isin(codes, events)
    d_all = np.bincount(inverse[is_event], minlength=grid.size)
    d_target = np.bincount(inverse[codes == target], minlength=grid.size)
    surv_after = np.cumprod(1.0 - d_all / at_risk)
    surv_before = np.concatenate(([1.0], surv_after[:-1]))
    return grid, np.cumsum(surv_before * d_target / at_risk), surv_after


def step_at(grid, values, t, initial=0.0):
    """Right-continuous step function through (grid, values), read at t."""
    pos = np.searchsorted(grid, t, side="right") - 1
    return np.where(pos < 0, initial, values[np.maximum(pos, 0)])


def death_risk(inf, end, status, t):
    """P(death by t), pooling both exposure paths."""
    grid, cif, _ = competing_cif(end, status, (DEATH, DISCHARGE), DEATH)
    return step_at(grid, cif, t)


def still_unexposed_risk(inf, end, status, t):
    """P(death without exposure by t) / P(still unexposed at t).

    NaN from the first time the denominator vanishes.
    """
    exposed = ~np.isnan(inf)
    times = np.where(exposed, inf, end)
    codes = np.where(exposed, _EXPOSURE, status)
    events = (_EXPOSURE, DEATH, DISCHARGE)
    grid, cif_death, _ = competing_cif(times, codes, events, DEATH)
    _, cif_exposure, _ = competing_cif(times, codes, events, _EXPOSURE)
    denom = 1.0 - cif_exposure
    gone = denom <= _TOL
    values = np.where(gone, np.nan, cif_death / np.where(gone, 1.0, denom))
    out = step_at(grid, values, t)
    if gone.any():
        out = np.where(t >= grid[gone.argmax()], np.nan, out)
    return out


def counterfactual_risk(inf, end, status, t):
    """Death CIF with every subject censored at its exposure time."""
    exposed = ~np.isnan(inf)
    times = np.where(exposed, inf, end)
    codes = np.where(exposed, CENSORED, status)
    grid, cif, _ = competing_cif(times, codes, (DEATH, DISCHARGE), DEATH)
    return step_at(grid, cif, t)


def paf(estimand, inf, end, status, t):
    """PAF_o or PAF_c at the times t; NaN where P(death) is still 0."""
    t = np.asarray(t, dtype=float)
    pd = death_risk(inf, end, status, t)
    if estimand == "paf_o":
        q = still_unexposed_risk(inf, end, status, t)
    elif estimand == "paf_c":
        q = counterfactual_risk(inf, end, status, t)
    else:
        raise ValueError(f"unknown estimand {estimand!r}")
    ok = np.isfinite(q) & (pd > _TOL)
    return np.where(ok, (pd - q) / np.where(ok, pd, 1.0), np.nan)


def occupation_sum_error(occupation):
    """Largest |sum over states - 1| of a (times x 6) occupation table."""
    return float(np.max(np.abs(np.sum(occupation, axis=1) - 1.0)))


# --- bootstrap -----------------------------------------------------------


def bootstrap_band(estimand, inf, end, status, grid, B, seed):
    """2.5 / 97.5 percentile band of B subject-level resamples.

    Replicate r resamples with ``default_rng(SeedSequence(seed).spawn(B)[r])
    .integers(0, n, size=n)``, the documented streams of the package.  A
    grid point where fewer than half the replicates are defined has no
    band (NaN).
    """
    n = end.size
    est = np.empty((B, grid.size))
    for r, stream in enumerate(np.random.SeedSequence(seed).spawn(B)):
        idx = np.random.default_rng(stream).integers(0, n, size=n)
        est[r] = paf(estimand, inf[idx], end[idx], status[idx], grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        lower = np.nanpercentile(est, 2.5, axis=0)
        upper = np.nanpercentile(est, 97.5, axis=0)
    thin = np.isfinite(est).mean(axis=0) < 0.5
    lower[thin] = np.nan
    upper[thin] = np.nan
    return lower, upper


# --- Cox partial likelihood ----------------------------------------------


def breslow_score_information(start, stop, event, x, beta):
    """Breslow score vector and information matrix of a counting-process
    Cox model with risk intervals (start, stop], at coefficients beta."""
    x = np.asarray(x, dtype=float).reshape(len(start), -1)
    w = np.exp(x @ beta - np.max(x @ beta))
    times, inverse = np.unique(stop[event], return_inverse=True)
    d = np.bincount(inverse, minlength=times.size).astype(float)

    def risk_sum(values):
        # sum of values over {start < t <= stop} for every event time t
        by_stop = np.argsort(stop)
        by_start = np.argsort(start)
        tail_stop = np.cumsum(values[by_stop][::-1], axis=0)[::-1]
        tail_start = np.cumsum(values[by_start][::-1], axis=0)[::-1]
        pad = np.zeros((1,) + values.shape[1:])
        tail_stop = np.concatenate([tail_stop, pad])
        tail_start = np.concatenate([tail_start, pad])
        return (tail_stop[np.searchsorted(stop[by_stop], times, side="left")]
                - tail_start[np.searchsorted(start[by_start], times, side="left")])

    s0 = risk_sum(w)
    s1 = risk_sum(w[:, None] * x)
    s2 = risk_sum(w[:, None, None] * x[:, :, None] * x[:, None, :])
    xbar = s1 / s0[:, None]
    score = x[event].sum(axis=0) - d @ xbar
    info = np.einsum("t,tab->ab", d / s0, s2) - np.einsum("t,ta,tb->ab", d, xbar, xbar)
    return score, info


# --- analytic model curves -----------------------------------------------


def constant_hazard_curves(a01, a02, a03, a14, a15, t):
    """Exact curves of the six-state model with constant hazards."""
    t = np.asarray(t, dtype=float)
    a0, a1 = a01 + a02 + a03, a14 + a15
    p00 = np.exp(-a0 * t)
    p03 = a03 / a0 * (1.0 - p00)
    ever_exposed = a01 / a0 * (1.0 - p00)
    # entering 1 at u and dying from 1 by t, integrated in closed form
    p05 = a15 * a01 / (a0 - a1) * ((1.0 - np.exp(-a1 * t)) / a1 - (1.0 - p00) / a0)
    pd = p03 + p05
    cpf = p03 / (1.0 - ever_exposed)
    p030 = a03 / (a02 + a03) * (1.0 - np.exp(-(a02 + a03) * t))
    with np.errstate(invalid="ignore", divide="ignore"):
        paf_o = np.where(pd > 0, (pd - cpf) / pd, np.nan)
        paf_c = np.where(pd > 0, (pd - p030) / pd, np.nan)
    p01 = a01 * (np.exp(-a1 * t) - p00) / (a0 - a1)
    p02 = a02 / a0 * (1.0 - p00)
    p04 = ever_exposed - p01 - p05
    return {
        "p00": p00, "p01": p01, "p02": p02, "p03": p03, "p04": p04, "p05": p05,
        "overall_death": pd, "cpf": cpf, "p030": p030, "paf_o": paf_o, "paf_c": paf_c,
    }


def piecewise_exit_integral(until, exit_rates, target_rates, t):
    """int_0^t target(u) exp(-int_0^u exit) du for piecewise-constant rates.

    ``until`` holds the right ends of the segments; the last rate runs on
    for ever.  Each segment is integrated exactly.  Also returns
    exp(-int_0^t exit).
    """
    t = np.asarray(t, dtype=float)
    starts = np.concatenate(([0.0], until[:-1]))
    ends = np.concatenate((until[:-1], [np.inf]))
    total = np.zeros_like(t)
    cum_exit = np.zeros_like(t)
    for s, e, q, r in zip(starts, ends, exit_rates, target_rates):
        span = np.clip(t - s, 0.0, e - s)  # time spent in this segment by t
        surv_at_s = np.exp(-cum_exit)
        if q > 0:
            total += r / q * surv_at_s * (1.0 - np.exp(-q * span))
        else:
            total += r * surv_at_s * span
        cum_exit = cum_exit + q * span
    return total, np.exp(-cum_exit)
