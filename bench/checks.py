"""Output checks.  Each function raises ``CheckFailed`` on a wrong result
and returns a one-line description of what held.

The checks compare the package's outputs with ``reference`` (code that
does not import the package) or with a property the method must have;
none of them compares with a stored copy of earlier output.
"""

from __future__ import annotations

import numpy as np

import reference


class CheckFailed(AssertionError):
    pass


def _gap(got, want):
    """Largest |got - want|; inf when the NaN patterns differ."""
    got, want = np.atleast_1d(np.asarray(got, float)), np.atleast_1d(np.asarray(want, float))
    if got.shape != want.shape:
        return np.inf
    if not np.array_equal(np.isnan(got), np.isnan(want)):
        return np.inf
    ok = ~np.isnan(got)
    return float(np.max(np.abs(got[ok] - want[ok]))) if ok.any() else 0.0


def close(label, got, want, tol):
    gap = _gap(got, want)
    if not gap <= tol:
        raise CheckFailed(f"{label}: max deviation {gap:.3e} exceeds {tol:.0e}")
    return f"{label}: max deviation {gap:.2e} <= {tol:.0e}"


def read_cohort_csv(path):
    """(inf with NaN, end, status code) from a cohort file."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()  # header: id,inf_time,end_time,end_status[,covariates]
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    codes = {"censored": reference.CENSORED, "death": reference.DEATH,
             "discharge": reference.DISCHARGE}
    cols = list(zip(*rows))
    inf = np.array([float(v) if v else np.nan for v in cols[1]])
    end = np.array(cols[2], dtype=float)
    status = np.array([codes[v] for v in cols[3]])
    return inf, end, status


def read_table_csv(path):
    """Header names and a float matrix (empty cells as NaN) from a CSV."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) if v else np.nan for v in line.strip().split(",")]
                for line in fh if line.strip()]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def snap_times(times, inf, end):
    """Map times read back from a CSV (12 significant digits) onto the
    event times they print, so a step curve is read at its own jumps."""
    candidates = np.unique(np.concatenate([inf[~np.isnan(inf)], end]))
    pos = np.clip(np.searchsorted(candidates, times), 1, candidates.size - 1)
    nearer = np.where(np.abs(candidates[pos - 1] - times) <= np.abs(candidates[pos] - times),
                      pos - 1, pos)
    snapped = candidates[nearer]
    worst = float(np.max(np.abs(snapped - times) / np.maximum(1.0, np.abs(times))))
    if not worst <= 1e-11:
        raise CheckFailed(f"output time off every event time by {worst:.3e} relative")
    return snapped


def paf_matches_reference(label, estimand, times, values, inf, end, status, tol):
    want = reference.paf(estimand, inf, end, status, times)
    return close(f"{label} == reference {estimand}", values, want, tol)


def occupation_sums_to_one(occupation, tol=1e-12):
    err = reference.occupation_sum_error(occupation)
    if not err <= tol:
        raise CheckFailed(f"occupation probabilities: max |sum - 1| {err:.3e} exceeds {tol:.0e}")
    return f"occupation probabilities sum to 1: max |sum - 1| {err:.2e} <= {tol:.0e}"


def cox_at_root(label, start, stop, event, x, beta, se, score_tol=1e-6, se_rtol=1e-8):
    """beta solves the Breslow score equation and se matches the inverse
    information, both recomputed from the risk intervals."""
    score, info = reference.breslow_score_information(start, stop, event, x, np.asarray(beta))
    z = np.abs(score) / np.sqrt(np.diag(info))  # score in standard-error units
    if not np.all(z <= score_tol):
        raise CheckFailed(f"{label}: standardized score {np.max(z):.3e} exceeds {score_tol:.0e}")
    want_se = np.sqrt(np.diag(np.linalg.inv(info)))
    rel = float(np.max(np.abs(np.asarray(se) / want_se - 1.0)))
    if not rel <= se_rtol:
        raise CheckFailed(f"{label}: standard error off by {rel:.3e} relative")
    return (f"{label}: standardized score {np.max(z):.2e} <= {score_tol:.0e}, "
            f"se relative error {rel:.2e} <= {se_rtol:.0e}")


def band_matches_reference(label, estimand, lower, upper, inf, end, status, grid, B, seed, tol):
    want_lo, want_hi = reference.bootstrap_band(estimand, inf, end, status, grid, B, seed)
    close(f"{label} lower", lower, want_lo, tol)
    close(f"{label} upper", upper, want_hi, tol)
    gap = max(_gap(lower, want_lo), _gap(upper, want_hi))
    return f"{label} == reference percentiles of {B} resamples: max deviation {gap:.2e} <= {tol:.0e}"


def oracle_matches_exact(header, table, spec, exact_tol=1e-6, sum_tol=1e-5):
    """p00, p02, p03 and p030 of an oracle table equal exact integrals of
    the piecewise-constant hazards, and each row's occupation sums to 1.

    ``spec`` holds ``until`` and the five rate arrays on common segments.
    """
    col = {name: j for j, name in enumerate(header)}
    t = table[:, col["t"]]
    until = spec["until"]
    a01, a02, a03 = spec["alpha01"], spec["alpha02"], spec["alpha03"]
    exit0 = a01 + a02 + a03
    p02, p00 = reference.piecewise_exit_integral(until, exit0, a02, t)
    p03, _ = reference.piecewise_exit_integral(until, exit0, a03, t)
    p030, _ = reference.piecewise_exit_integral(until, a02 + a03, a03, t)
    worst = 0.0
    for name, want in (("p00", p00), ("p02", p02), ("p03", p03), ("p030", p030)):
        close(f"oracle {name}", table[:, col[name]], want, exact_tol)
        worst = max(worst, _gap(table[:, col[name]], want))
    states = [col[f"p0{k}"] for k in range(6)]
    sums = np.abs(table[:, states].sum(axis=1) - 1.0)
    if not np.max(sums) <= sum_tol:
        raise CheckFailed(f"oracle rows: max |sum - 1| {np.max(sums):.3e} exceeds {sum_tol:.0e}")
    return (f"oracle p00/p02/p03/p030 == exact integrals: max deviation {worst:.2e} <= "
            f"{exact_tol:.0e}; rows sum to 1 within {np.max(sums):.2e} <= {sum_tol:.0e}")
