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

from .cohort import DailyPanel, covariate_column
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


def _at_risk_matrix(panel: DailyPanel) -> np.ndarray:
    """at_risk[i, s-1]: A(s-1) = 0 and eps(s-1) = 0 (at risk of new exposure)."""
    prev_a = np.concatenate([np.zeros((panel.n_subjects, 1), dtype=np.uint8), panel.a[:, :-1]], axis=1)
    prev_e = np.concatenate([np.zeros((panel.n_subjects, 1), dtype=np.uint8), panel.eps[:, :-1]], axis=1)
    return (prev_a == 0) & (prev_e == 0)


def expand_person_days(panel: DailyPanel, covariate_names=()) -> PersonDayRecords:
    """Rows exactly for the subject-days at risk of new exposure."""
    at_risk = _at_risk_matrix(panel)
    subj, day_idx = np.nonzero(at_risk)
    infected_today = panel.a[subj, day_idx] == 1
    covs = _covariate_matrix(panel, covariate_names)
    return PersonDayRecords(
        subject_ids=subj,
        days=day_idx + 1,
        infected_today=infected_today,
        covariates=covs[subj] if covs.size else np.empty((subj.size, 0)),
        covariate_names=tuple(covariate_names),
        ids=panel.ids,
    )


def naive_f01(panel: DailyPanel) -> StepCurve:
    """Deaths without exposure by t over subjects unexposed until t."""
    died_unexposed = (panel.eps == 1) & (panel.a == 0)
    unexposed = panel.a == 0
    num = died_unexposed.sum(axis=0).astype(float)
    den = unexposed.sum(axis=0).astype(float)
    defined = den > 0
    values = np.where(defined, num / np.where(defined, den, 1.0), np.nan)
    days = np.arange(1, panel.n_days + 1, dtype=float)
    undefined_from = float(days[~defined][0]) if (~defined).any() else None
    return StepCurve(days, values, initial=0.0, undefined_from=undefined_from)


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
    at_risk = _at_risk_matrix(panel)
    infected_today = at_risk & (panel.a == 1)
    terminal_today = at_risk & (panel.eps != 0) & (panel.a == 0)
    n_at_risk = at_risk.sum(axis=0).astype(float)
    survivors = n_at_risk - terminal_today.sum(axis=0)
    dn = infected_today.sum(axis=0).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        hazard = np.where(dn > 0, dn / survivors, 0.0)
    probs = np.repeat(hazard[None, :], panel.n_subjects, axis=0)
    probs[terminal_today] = 0.0
    return probs


def compute_weights(panel: DailyPanel, daily_probs: np.ndarray) -> WeightTable:
    """W[i, t] = p_i(t) / prod_{s <= t ^ T_i} (1 - p-hat_i(s)).

    p_i(t) indicates that subject i followed the unexposed path through t:
    weight 0 from the exposure day on, frozen after a terminal event,
    growing while still at risk.
    """
    daily_probs = np.asarray(daily_probs, dtype=float)
    if daily_probs.shape != panel.a.shape:
        raise DataError("daily_probs must have shape (n_subjects, n_days)")
    n, m = daily_probs.shape
    exposure_day = panel.exposure_day()
    terminal_day = panel.terminal_day()
    t_i = np.minimum(exposure_day, terminal_day)  # exit day from state 0

    days = np.arange(1, m + 1)
    used = days[None, :] <= t_i[:, None]  # product runs to t ^ T_i
    one_minus = np.where(used, 1.0 - daily_probs, 1.0)
    denom = np.cumprod(one_minus, axis=1)
    with np.errstate(divide="ignore"):
        weights = 1.0 / denom
    # zero from the exposure day on
    weights[days[None, :] >= exposure_day[:, None]] = 0.0
    if not np.all(np.isfinite(weights)):
        raise PositivityError(
            "a daily exposure probability reached 1 on an unexposed path; "
            "weights are unbounded"
        )
    return WeightTable(weights, panel.ids)


def ipw_f01(panel: DailyPanel, weights: WeightTable) -> StepCurve:
    """Weighted death proportion under the no-exposure path."""
    if weights.weights.shape != panel.a.shape:
        raise DataError("weight table does not match the panel")
    died = (panel.eps == 1).astype(float)
    num = (died * weights.weights).sum(axis=0)
    den = weights.weights.sum(axis=0)
    defined = den > 0
    values = np.where(defined, num / np.where(defined, den, 1.0), np.nan)
    days = np.arange(1, panel.n_days + 1, dtype=float)
    undefined_from = float(days[~defined][0]) if (~defined).any() else None
    return StepCurve(days, values, initial=0.0, undefined_from=undefined_from)
