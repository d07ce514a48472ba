"""Discrete-time estimators on the daily panel.

The person-day clock: on day s a subject still in the initial state can
die, be discharged, or acquire the exposure.  Terminal events settle
before exposures within a day, so the empirical daily exposure hazard
conditions on having survived the day; this is the convention under which
the weighted estimator reproduces the censor-at-exposure Aalen-Johansen
estimator exactly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .cohort import STATUS_DEATH, DailyPanel, covariate_column
from .curves import StepCurve
from .errors import ConvergenceError, DataError, PositivityError, SeparationError

__all__ = [
    "PersonDayRecords",
    "ExposureModel",
    "WeightTable",
    "expand_person_days",
    "naive_f01",
    "fit_pooled_logistic",
    "nonparametric_daily_hazard",
    "compute_weights",
    "ipw_f01",
]


@dataclass(frozen=True)
class PersonDayRecords:
    """Long format: one row per subject-day at risk of new exposure."""

    subject_ids: np.ndarray  # row -> panel subject index
    days: np.ndarray
    infected_today: np.ndarray  # bool
    covariates: np.ndarray  # (rows, k) float design columns (no intercept)
    covariate_names: tuple[str, ...]
    ids: tuple[str, ...]  # panel subject ids, for export

    def __len__(self):
        return self.days.size

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("id,day,at_risk,infected_today")
        for name in self.covariate_names:
            buf.write(f",{name}")
        buf.write("\n")
        for r in range(len(self)):
            buf.write(
                f"{self.ids[self.subject_ids[r]]},{self.days[r]},1,{int(self.infected_today[r])}"
            )
            for c in range(self.covariates.shape[1]):
                buf.write(f",{self.covariates[r, c]:g}")
            buf.write("\n")
        return buf.getvalue()


@dataclass(frozen=True)
class ExposureModel:
    """Pooled logistic model for the daily exposure probability."""

    coefficients: np.ndarray  # intercept first
    covariate_names: tuple[str, ...]
    iterations: int
    log_likelihood: float

    def predict(self, covariates: np.ndarray) -> np.ndarray:
        x = np.column_stack([np.ones(len(covariates)), covariates])
        return _logistic(x @ self.coefficients)

    def daily_probabilities(self, panel: DailyPanel) -> np.ndarray:
        """Fitted p-hat per subject-day, shape (n_subjects, n_days).

        Covariates are baseline-only, so each subject's probability is
        constant over days.
        """
        covs = _covariate_matrix(panel, self.covariate_names)
        p = self.predict(covs)
        return np.repeat(p[:, None], panel.n_days, axis=1)


@dataclass(frozen=True)
class WeightTable:
    """Inverse-probability-of-exposure weights W[i, t-1] per subject-day."""

    weights: np.ndarray  # (n_subjects, n_days)
    ids: tuple[str, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("id,day,weight\n")
        n, m = self.weights.shape
        for i in range(n):
            for t in range(m):
                buf.write(f"{self.ids[i]},{t + 1},{self.weights[i, t]:.12g}\n")
        return buf.getvalue()


def _logistic(z):
    return 1.0 / (1.0 + np.exp(-z))


def _covariate_matrix(panel: DailyPanel, names) -> np.ndarray:
    cols = [covariate_column(panel.covariates, name, panel.ids, numeric=True) for name in names]
    if not cols:
        return np.empty((panel.n_subjects, 0))
    return np.array(cols).T


def _at_risk_days(panel: DailyPanel) -> np.ndarray:
    """Per subject, the last day s at risk of new exposure (A(s-1) = eps(s-1) = 0)."""
    return np.minimum(panel.exposure_day, panel.terminal_day)


def _on_or_before(days, m) -> np.ndarray:
    """How many of ``days`` (each in 1..m+1) are <= s, for s = 0..m."""
    return np.cumsum(np.bincount(days, minlength=m + 2))[:-1]


def _day_ratio(num, den) -> StepCurve:
    """num / den on days 1, 2, ..., undefined where den is 0."""
    defined = den > 0
    values = np.where(defined, num / np.where(defined, den, 1.0), np.nan)
    days = np.arange(1, num.size + 1, dtype=float)
    undefined_from = float(days[~defined][0]) if (~defined).any() else None
    return StepCurve(days, values, initial=0.0, undefined_from=undefined_from)


def expand_person_days(panel: DailyPanel, covariate_names=()) -> PersonDayRecords:
    """Rows exactly for the subject-days at risk of new exposure, subject-major."""
    at_risk = _at_risk_days(panel)
    subj = np.repeat(np.arange(panel.n_subjects), at_risk)
    days = np.arange(1, subj.size + 1) - np.repeat(np.cumsum(at_risk) - at_risk, at_risk)
    covs = _covariate_matrix(panel, covariate_names)
    return PersonDayRecords(
        subject_ids=subj,
        days=days,
        infected_today=days == panel.exposure_day[subj],
        covariates=covs[subj] if covs.size else np.empty((subj.size, 0)),
        covariate_names=tuple(covariate_names),
        ids=panel.ids,
    )


def _death_proportion(panel: DailyPanel) -> StepCurve:
    """Share of the panel dead by each day."""
    deaths = _on_or_before(panel.terminal_day[panel.status == STATUS_DEATH], panel.n_days)[1:]
    days = np.arange(1, panel.n_days + 1, dtype=float)
    return StepCurve(days, deaths / panel.n_subjects, initial=0.0)


def naive_f01(panel: DailyPanel) -> StepCurve:
    """Deaths without exposure by t over subjects unexposed until t."""
    m, exposure = panel.n_days, panel.exposure_day
    died_unexposed = (panel.status == STATUS_DEATH) & (exposure > m)
    num = _on_or_before(panel.terminal_day[died_unexposed], m)[1:].astype(float)
    den = (panel.n_subjects - _on_or_before(exposure, m)[1:]).astype(float)
    return _day_ratio(num, den)


def fit_pooled_logistic(records: PersonDayRecords, covariate_names=None) -> ExposureModel:
    """Maximum-likelihood Bernoulli fit by damped Newton iterations."""
    if covariate_names is None:
        covariate_names = records.covariate_names
    if tuple(covariate_names) != records.covariate_names:
        keep = [records.covariate_names.index(n) for n in covariate_names]
        covs = records.covariates[:, keep]
    else:
        covs = records.covariates
    y = records.infected_today.astype(float)
    if y.sum() == 0:
        raise DataError("no exposure events; the model has no MLE")
    if y.sum() == y.size:
        raise DataError("every person-day is an exposure; the model has no MLE")
    x = np.column_stack([np.ones(y.size), covs])
    names = ("intercept",) + tuple(covariate_names)

    beta = np.zeros(x.shape[1])
    loglik = _bernoulli_loglik(x, y, beta)
    trace = []
    for it in range(1, 101):
        p = _logistic(x @ beta)
        score = x.T @ (y - p)
        trace.append((it, float(np.max(np.abs(score))), float(loglik)))
        if np.max(np.abs(score)) < 1e-8:
            return ExposureModel(beta, tuple(covariate_names), it, float(loglik))
        w = p * (1.0 - p)
        hess = (x * w[:, None]).T @ x
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError:
            raise SeparationError(
                f"singular information matrix; check covariates {names}"
            ) from None
        # halve the step while the log-likelihood would decrease; relative
        # slack as in the Cox fit: near the optimum a valid micro-step moves
        # the log-likelihood by less than its own rounding
        slack = 1e-12 * max(1.0, abs(loglik))
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            cand_ll = _bernoulli_loglik(x, y, cand)
            if cand_ll >= loglik - slack:
                break
            scale /= 2.0
        beta = beta + scale * step
        loglik = _bernoulli_loglik(x, y, beta)
        if np.max(np.abs(beta)) > 30:
            worst = names[int(np.argmax(np.abs(beta)))]
            raise SeparationError(f"coefficients diverged (|beta| > 30), driven by {worst!r}")
    raise ConvergenceError("pooled logistic fit did not converge in 100 iterations", trace)


def _bernoulli_loglik(x, y, beta):
    z = x @ beta
    # log(p) and log(1-p) written stably via logaddexp
    return float(np.sum(y * z - np.logaddexp(0.0, z)))


def nonparametric_daily_hazard(panel: DailyPanel) -> np.ndarray:
    """Empirical per-day exposure probabilities, shape (n_subjects, n_days).

    Day s pools everyone at risk at the start of s; subjects with a
    terminal event on s have already left, so their own probability on
    that day is 0 and the shared hazard divides by the day's survivors.
    """
    m, n = panel.n_days, panel.n_subjects
    exposure, terminal = panel.exposure_day, panel.terminal_day
    left_unexposed = np.flatnonzero(terminal < exposure)
    n_at_risk = (n - _on_or_before(_at_risk_days(panel), m)[:-1]).astype(float)
    survivors = n_at_risk - np.diff(_on_or_before(terminal[left_unexposed], m))
    dn = np.diff(_on_or_before(exposure, m)).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        hazard = np.where(dn > 0, dn / survivors, 0.0)
    probs = np.repeat(hazard[None, :], n, axis=0)
    probs[left_unexposed, terminal[left_unexposed] - 1] = 0.0
    return probs


def compute_weights(panel: DailyPanel, daily_probs: np.ndarray) -> WeightTable:
    """W[i, t] = p_i(t) / prod_{s <= t ^ T_i} (1 - p-hat_i(s)).

    p_i(t) indicates that subject i followed the unexposed path through t:
    weight 0 from the exposure day on, frozen after a terminal event,
    growing while still at risk.  The weights are the one (n_subjects,
    n_days) float array built here, worked in place.
    """
    daily_probs = np.asarray(daily_probs, dtype=float)
    if daily_probs.shape != (panel.n_subjects, panel.n_days):
        raise DataError("daily_probs must have shape (n_subjects, n_days)")
    days = np.arange(1, panel.n_days + 1)
    weights = np.subtract(1.0, daily_probs)
    mask = days > _at_risk_days(panel)[:, None]  # the product runs to t ^ T_i
    np.copyto(weights, 1.0, where=mask)
    np.cumprod(weights, axis=1, out=weights)
    with np.errstate(divide="ignore"):
        np.divide(1.0, weights, out=weights)
    np.greater_equal(days, panel.exposure_day[:, None], out=mask)
    np.copyto(weights, 0.0, where=mask)  # zero from the exposure day on
    if not np.isfinite(weights, out=mask).all():
        raise PositivityError(
            "a daily exposure probability reached 1 on an unexposed path; "
            "weights are unbounded"
        )
    return WeightTable(weights, panel.ids)


def ipw_f01(panel: DailyPanel, weights: WeightTable) -> StepCurve:
    """Weighted death proportion under the no-exposure path."""
    w = weights.weights
    if w.shape != (panel.n_subjects, panel.n_days):
        raise DataError("weight table does not match the panel")
    died = np.arange(1, panel.n_days + 1) >= panel.terminal_day[:, None]
    died &= (panel.status == STATUS_DEATH)[:, None]
    return _day_ratio(w.sum(axis=0, where=died), w.sum(axis=0))
