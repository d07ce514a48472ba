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
from .curves import _CSV_CHUNK, StepCurve
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
    "empirical_weights",
    "model_weights",
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
        buf.write(",".join(("id", "day", "at_risk", "infected_today") + self.covariate_names) + "\n")
        # formatted from Python values (covariates as repr, exact), a chunk of rows per write
        for k in range(0, len(self), _CSV_CHUNK):
            part = slice(k, k + _CSV_CHUNK)
            ids = map(self.ids.__getitem__, self.subject_ids[part].tolist())
            rows = zip(ids, self.days[part].tolist(), self.infected_today[part].astype(int).tolist(),
                       self.covariates[part].tolist())
            buf.write("".join([f"{i},{d},1,{e}" + "".join([f",{c}" for c in covs]) + "\n"
                               for i, d, e, covs in rows]))
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


# Weights are built and summed in blocks of at most this many (subject x
# day) cells, so that memory grows with n_subjects + n_days.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class WeightTable:
    """Inverse-probability-of-exposure weights W[i, t-1] per subject-day.

    Before its exposure day, subject i has W[i, t-1] = 1 / prod_{s <=
    min(t, freeze_day[i])} (1 - p_i(s)); from ``exposure_day[i]`` on, 0.
    The factors 1 - p are rows, ``factors[row[i]]`` for subject i: one
    shared row for the empirical hazard, one (k, 1) row per distinct
    fitted probability of a pooled logistic model, or one row per subject.
    The estimator and the CSV writer fill it block by block, never whole.
    """

    factors: np.ndarray  # (k, n_days), or (k, 1) for a probability constant over days
    row: np.ndarray  # (n_subjects,) each subject's row of factors
    freeze_day: np.ndarray  # (n_subjects,) the last day whose factor enters the product
    exposure_day: np.ndarray  # (n_subjects,)
    n_days: int
    ids: tuple[str, ...]

    @property
    def n_subjects(self) -> int:
        return self.row.size

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("id,day,weight\n")
        days = range(1, self.n_days + 1)
        for part, inverse, local in self._blocks():
            block = np.empty((local.size, self.n_days))
            self._fill(part, inverse, local, block)
            for i, row in zip(self.ids[part], block.tolist()):
                buf.write("".join([f"{i},{t},{w:.12g}\n" for t, w in zip(days, row)]))
        return buf.getvalue()

    def _inverse_survival(self, factors) -> np.ndarray:
        """1 / prod_{s <= t} f(s) for t = 0..n_days (1 at t = 0), row by row."""
        out = np.ones((len(factors), self.n_days + 1))
        np.cumprod(np.broadcast_to(factors, (len(factors), self.n_days)), axis=1, out=out[:, 1:])
        with np.errstate(divide="ignore"):
            return np.divide(1.0, out, out=out)

    def _blocks(self):
        """Per block of subjects: its slice, inverse-survival rows, and the
        row each of its subjects reads.  Few rows are computed once."""
        m, n = self.n_days, self.n_subjects
        # one block when m == 1: numpy sums a single column pairwise, not row by row
        step = n if m == 1 else max(1, min(n, _BLOCK_CELLS // max(m, 1)))
        shared = self._inverse_survival(self.factors) if len(self.factors) <= step else None
        for first in range(0, n, step):
            part = slice(first, first + step)
            rows = self.row[part]
            if shared is not None:
                yield part, shared, rows
            else:
                yield part, self._inverse_survival(self.factors[rows]), np.arange(rows.size)

    def _fill(self, part, inverse, local, out):
        """Write the weights of the subjects in ``part`` into ``out``."""
        days = np.arange(1, self.n_days + 1)
        cell = np.minimum(days, self.freeze_day[part, None])
        if len(inverse) > 1:
            cell += (local * (self.n_days + 1))[:, None]
        np.take(inverse, cell, out=out, mode="clip")
        np.copyto(out, 0.0, where=days >= self.exposure_day[part, None])

    def _check_bounded(self):
        """PositivityError if a weight the estimator reads is not finite."""
        checked = None
        for part, inverse, local in self._blocks():
            if inverse is not checked:
                bad = ~np.isfinite(inverse)
                first_bad = np.where(bad.any(axis=1), bad.argmax(axis=1), self.n_days + 1)
                checked = inverse
            # subject i reads days 1..min(freeze_day, exposure_day - 1) of its row
            read = np.minimum(self.freeze_day[part], self.exposure_day[part] - 1)
            if (first_bad[local] <= read).any():
                raise PositivityError(
                    "a daily exposure probability reached 1 on an unexposed path; "
                    "weights are unbounded"
                )


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


def _daily_hazard(panel: DailyPanel):
    """The empirical exposure hazard of each day, and the subjects who
    leave unexposed (their own probability is 0 on their terminal day)."""
    m, n = panel.n_days, panel.n_subjects
    exposure, terminal = panel.exposure_day, panel.terminal_day
    left_unexposed = np.flatnonzero(terminal < exposure)
    n_at_risk = (n - _on_or_before(_at_risk_days(panel), m)[:-1]).astype(float)
    survivors = n_at_risk - np.diff(_on_or_before(terminal[left_unexposed], m))
    dn = np.diff(_on_or_before(exposure, m)).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        hazard = np.where(dn > 0, dn / survivors, 0.0)
    return hazard, left_unexposed


def nonparametric_daily_hazard(panel: DailyPanel) -> np.ndarray:
    """Empirical per-day exposure probabilities, shape (n_subjects, n_days).

    Day s pools everyone at risk at the start of s; subjects with a
    terminal event on s have already left, so their own probability on
    that day is 0 and the shared hazard divides by the day's survivors.
    """
    hazard, left_unexposed = _daily_hazard(panel)
    probs = np.repeat(hazard[None, :], panel.n_subjects, axis=0)
    probs[left_unexposed, panel.terminal_day[left_unexposed] - 1] = 0.0
    return probs


def _weight_table(panel: DailyPanel, factors, row, freeze_day) -> WeightTable:
    table = WeightTable(factors, row, freeze_day, panel.exposure_day, panel.n_days, panel.ids)
    table._check_bounded()
    return table


def compute_weights(panel: DailyPanel, daily_probs: np.ndarray) -> WeightTable:
    """W[i, t] = p_i(t) / prod_{s <= t ^ T_i} (1 - p-hat_i(s)).

    p_i(t) indicates that subject i followed the unexposed path through t:
    weight 0 from the exposure day on, frozen after a terminal event,
    growing while still at risk.  Each subject keeps its own row of
    factors; ``empirical_weights`` and ``model_weights`` share rows.
    """
    daily_probs = np.asarray(daily_probs, dtype=float)
    if daily_probs.shape != (panel.n_subjects, panel.n_days):
        raise DataError("daily_probs must have shape (n_subjects, n_days)")
    return _weight_table(panel, np.subtract(1.0, daily_probs), np.arange(panel.n_subjects),
                         _at_risk_days(panel))


def empirical_weights(panel: DailyPanel) -> WeightTable:
    """``compute_weights(panel, nonparametric_daily_hazard(panel))`` from one
    shared row of factors.

    A subject who leaves unexposed on day T has probability 0 that day, a
    factor of exactly 1, so its product stops at T - 1.
    """
    hazard, left_unexposed = _daily_hazard(panel)
    freeze_day = _at_risk_days(panel)
    freeze_day[left_unexposed] -= 1
    return _weight_table(panel, np.subtract(1.0, hazard)[None, :],
                         np.zeros(panel.n_subjects, dtype=np.intp), freeze_day)


def model_weights(panel: DailyPanel, model: ExposureModel) -> WeightTable:
    """``compute_weights`` for the model's fitted probabilities, constant
    over days, with one row of factors per distinct probability."""
    p = model.predict(_covariate_matrix(panel, model.covariate_names))
    values, row = np.unique(p, return_inverse=True)
    return _weight_table(panel, np.subtract(1.0, values)[:, None], row, _at_risk_days(panel))


def ipw_f01(panel: DailyPanel, weights: WeightTable) -> StepCurve:
    """Weighted death proportion under the no-exposure path."""
    if (weights.n_subjects, weights.n_days) != (panel.n_subjects, panel.n_days):
        raise DataError("weight table does not match the panel")
    m = panel.n_days
    days = np.arange(1, m + 1)
    death_day = np.where(panel.status == STATUS_DEATH, panel.terminal_day, m + 1)
    total = died = None
    # numpy sums axis 0 row by row, so each block summed below the running
    # total adds the rows in the order of one sum over the whole matrix
    for part, inverse, local in weights._blocks():
        if total is None:  # the first block is the largest
            buf, mask = np.empty((local.size + 1, m)), np.empty((local.size + 1, m), dtype=bool)
            mask[0] = True
        w, d = buf[: local.size + 1], mask[: local.size + 1]
        weights._fill(part, inverse, local, w[1:])
        np.greater_equal(days, death_day[part, None], out=d[1:])
        if total is None:  # the first block starts the sums
            total, died = w[1:].sum(axis=0), w[1:].sum(axis=0, where=d[1:])
        else:
            w[0] = total
            total = w.sum(axis=0)
            w[0] = died
            died = w.sum(axis=0, where=d)
    if total is None:
        total = died = np.zeros(m)
    return _day_ratio(died, total)
