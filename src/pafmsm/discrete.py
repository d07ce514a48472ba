"""Discrete-time estimators on the daily panel.

The person-day clock: on day s a subject still in the initial state can
die, be discharged, or acquire the exposure.  Terminal events settle
before exposures within a day, so the empirical daily exposure hazard
conditions on having survived the day; this is the convention under which
the weighted estimator reproduces the censor-at-exposure Aalen-Johansen
estimator exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import STATUS_DEATH, DailyPanel, covariate_column
from .curves import StepCurve
from .errors import DataError, PositivityError
from .newton import newton

__all__ = [
    "ExposureModel",
    "WeightTable",
    "naive_f01",
    "fit_pooled_logistic",
    "nonparametric_daily_hazard",
    "compute_weights",
    "empirical_weights",
    "model_weights",
    "ipw_f01",
]


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


_UNBOUNDED = ("a daily exposure probability reached 1 on an unexposed path; "
              "weights are unbounded")

# Weights are built and summed in blocks of at most this many (subject x
# day) cells, so that memory grows with n_subjects + n_days.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class WeightTable:
    """Inverse-probability-of-exposure weights W[i, t-1] per subject-day.

    Before its exposure day, subject i has W[i, t-1] = 1 / prod_{s <=
    min(t, freeze_day[i])} (1 - p_i(s)); from ``exposure_day[i]`` on, 0.
    The factors 1 - p are rows, ``factors[row[i]]`` for subject i: one
    shared row for the empirical hazard, one (k, 1) row per covariate
    pattern of a pooled logistic model, or one row per subject.
    The estimator builds one weight row per pattern of subjects (see
    ``_Patterns``) and gathers those rows block by block; the whole matrix
    is never built.  ``row`` may be a read-only view: ``empirical_weights``
    gives every subject row 0 through one zero-stride element.
    """

    factors: np.ndarray  # (k, n_days), or (k, 1) for a probability constant over days
    row: np.ndarray  # (n_subjects,) each subject's row of factors
    freeze_day: np.ndarray  # (n_subjects,) the last day whose factor enters the product
    exposure_day: np.ndarray  # (n_subjects,)
    n_days: int

    @property
    def n_subjects(self) -> int:
        return self.row.size

    def _patterns(self, death_day) -> "_Patterns":
        return _Patterns(self.row, self.freeze_day, self.exposure_day, death_day, self.n_days)

    def _check_bounded(self):
        """PositivityError if a weight the estimator reads is not finite.

        Subject i reads cells 0..min(freeze_day, exposure_day - 1, n_days)
        of its row's inverse survival.  Factors lie in [0, 1], so that never
        decreases along a row: the last cell it reads is finite exactly when
        all are.  Shared rows are built once, rows of one subject each a
        block of subjects at a time.
        """
        m, n = self.n_days, self.n_subjects
        last = np.subtract(self.exposure_day, 1)
        np.minimum(last, m, out=last)
        np.minimum(last, self.freeze_day, out=last)
        step = max(1, _BLOCK_CELLS // (m + 1))
        if len(self.factors) <= step:  # shared rows: each built once
            blocks = [(self.factors, self.row, last)]
        else:
            blocks = ((self.factors[self.row[first:first + step]], np.arange(min(step, n - first)),
                       last[first:first + step]) for first in range(0, n, step))
        if not all(np.isfinite(_inverse_survival(factors, m))[row, cell].all()
                   for factors, row, cell in blocks):
            raise PositivityError(_UNBOUNDED)


def _inverse_survival(factors, m) -> np.ndarray:
    """1 / prod_{s <= t} f(s) for t = 0..m (1 at t = 0), row by row."""
    out = np.ones((len(factors), m + 1))
    np.cumprod(np.broadcast_to(factors, (len(factors), m)), axis=1, out=out[:, 1:])
    with np.errstate(divide="ignore"):
        return np.divide(1.0, out, out=out)


def _weight_cells(row, freeze_day, exposure_day, death_day, m):
    """For the weight rows of some subjects or patterns: the factor rows
    they read, the cell of those rows' inverse survival each weight is,
    where the weights are 0 (from the exposure day on), and the days dead."""
    days = np.arange(1, m + 1)
    rows, local = np.unique(row, return_inverse=True)
    cells = (local * (m + 1))[:, None] + np.minimum(days, freeze_day[:, None])
    return rows, cells, days >= exposure_day[:, None], days >= death_day[:, None]


def _weight_rows(factors, rows, cells, exposed, died):
    """The weight rows that ``_weight_cells`` located in ``factors``, their
    death masks, and which rows are finite throughout."""
    weights = np.take(_inverse_survival(factors[rows], cells.shape[1]), cells, mode="clip")
    np.copyto(weights, 0.0, where=exposed)
    return weights, died, np.isfinite(weights).all(axis=1)


def _ranked(values, size):
    """``np.unique(values, return_inverse=True)`` of integers in 0..size-1:
    from a table over that range where it is no longer than ``values``,
    which takes no sort, and then written over ``values``."""
    if size > values.size:
        return np.unique(values, return_inverse=True)
    table = np.zeros(size, values.dtype)
    table[values] = 1
    distinct = np.flatnonzero(table)
    table[distinct] = np.arange(distinct.size)
    # each rank goes over the value it was read from: no second array.
    # numpy checks that ``out`` does not overlap ``table``, not ``values``:
    # this relies on its take loop reading index j before it writes
    # element j, which tests/test_discrete.py checks past any chunk width
    return distinct, np.take(table, values, out=values, mode="clip")


class _Patterns:
    """Subjects grouped by their weight row and their days dead.

    A pattern is a distinct (factor row, freeze day, exposure day, death
    day), the death day kept only when on or before the exposure day.
    From the exposure day on the weights are 0, so a later death masks
    only zeros, and a row-by-row masked sum that adds a 0 or skips it
    gives the same bits.  A single column numpy sums pairwise, in runs of
    unmasked cells, where the mask could move bits; but with one day no
    death comes after the exposure day.  A pattern's subjects share one
    weight row and one death mask.  Resampling subjects keeps their
    patterns, so a replicate only brings new factors.
    """

    def __init__(self, row, freeze_day, exposure_day, death_day, n_days):
        m, base = n_days, n_days + 2  # every day column lies in 0..m+1
        # each subject's rank among the distinct (freeze, exposure) days, then
        # among the distinct (freeze, exposure, death) days, then by factor
        # row and those days: ranks keep the order of the columns, so the
        # last are those of np.unique of the packed (row, freeze, exposure,
        # death), and no key passes n * base**2
        rank = freeze_day * base
        rank += exposure_day
        pairs, rank = _ranked(rank, base * base)
        rank *= base
        early = death_day <= exposure_day  # else the death day is m + 1
        np.add(rank, death_day, out=rank, where=early)
        np.add(rank, m + 1, out=rank, where=~early)
        del early
        triples, rank = _ranked(rank, pairs.size * base)
        width, n_rows = triples.size, int(row.max(initial=0)) + 1
        keys = np.arange(width)  # one factor row: the patterns are the triples
        if n_rows > 1:
            rank += row * width
            keys, rank = _ranked(rank, n_rows * width)
        self.index = rank
        rows, days = np.divmod(keys, width)
        pair, death = np.divmod(triples[days], base)
        # (row, freeze, exposure, death day)
        self.columns = [rows, *np.divmod(pairs[pair], base), death]
        # subjects per block; one block when m == 1: numpy sums a single
        # column pairwise, not row by row
        self.n_days, n = m, row.size
        self.step = max(1, n if m == 1 else min(n, _BLOCK_CELLS // max(m, 1)))
        # the cells of at most a block's worth of patterns are located once
        self.cells = self._cells(slice(None)) if keys.size <= self.step else None

    def _cells(self, patterns):
        """``_weight_cells`` of the patterns ``patterns``."""
        return _weight_cells(*(c[patterns] for c in self.columns), self.n_days)

    def blocks(self, factors, order=None):
        """Per block of n subjects, in ``order`` (by default each subject
        once, in turn): weight rows for these ``factors``, their death masks
        and the row of each subject.  A call builds each pattern's row once,
        or, if its patterns fill more than a block, each block those of its
        own patterns.  Raises PositivityError if a weight of one of these
        subjects is not finite."""
        index = self.index if order is None else self.index[order]
        rows = None
        if self.cells is not None:
            rows = _weight_rows(factors, *self.cells)
        elif order is not None:  # without an order all the patterns are used: too many
            patterns, local = np.unique(index, return_inverse=True)
            if patterns.size <= self.step:
                rows, index = _weight_rows(factors, *self._cells(patterns)), local
        for first in range(0, index.size, self.step):
            local = index[first:first + self.step]
            if rows is None:
                patterns, local = np.unique(local, return_inverse=True)
                weights, died, finite = _weight_rows(factors, *self._cells(patterns))
            else:
                weights, died, finite = rows
            # a row holds the cells of its inverse survival that the subject
            # reads, days 1..min(freeze_day, exposure_day - 1), and zeros
            if not finite[local].all():
                raise PositivityError(_UNBOUNDED)
            yield weights, died, local


def _buffers(step, m):
    """Block buffers of weights and death masks: ``step`` subjects below
    one row for the running totals."""
    dead = np.empty((step + 1, m), dtype=bool)
    dead[0] = True
    return np.empty((step + 1, m)), dead


def _gathered(blocks, w, d):
    """Each block's weights and death masks, subject by subject, gathered
    into rows 1.. of the reused buffers ``w`` and ``d``: views of the rows
    in use, row 0 included."""
    for weights, died, local in blocks:
        k = local.size + 1
        np.take(weights, local, axis=0, out=w[1:k], mode="clip")
        np.take(died, local, axis=0, out=d[1:k], mode="clip")
        yield w[:k], d[:k]


def _ipw_sums(blocks, w, d):
    """Per day, the sums of the subjects' weights and of their weights on
    the days they are dead, from ``blocks`` gathered into ``w`` and ``d``
    (see ``_buffers``)."""
    total = died = None
    # numpy sums axis 0 row by row, so each block summed below the running
    # total adds the rows in the order of one sum over the whole matrix
    for block, dead in _gathered(blocks, w, d):
        if total is None:  # the first block starts the sums
            total, died = block[1:].sum(axis=0), block[1:].sum(axis=0, where=dead[1:])
        else:
            block[0] = total
            total = block.sum(axis=0)
            block[0] = died
            died = block.sum(axis=0, where=dead)
    if total is None:
        total = died = np.zeros(w.shape[1])
    return total, died


def _logistic(z):
    return 1.0 / (1.0 + np.exp(-z))


def _at_risk_days(panel: DailyPanel) -> np.ndarray:
    """Per subject, the last day s at risk of new exposure (A(s-1) = eps(s-1) = 0)."""
    return np.minimum(panel.exposure_day, panel.terminal_day)


def _on_or_before(days, m, draws=None) -> np.ndarray:
    """How many of ``days`` (each in 1..m+1) are <= s, for s = 0..m.  With
    ``draws``, a (k x n) block of draws of the subjects whose days these
    are, the (k x (m+1)) counts of the k draws, from one offset ``bincount``
    of the drawn days."""
    if draws is None:
        return np.cumsum(np.bincount(days, minlength=m + 2))[:-1]
    cells = np.take(days, draws)
    cells += np.arange(0, len(draws) * (m + 2), m + 2)[:, None]
    counts = np.bincount(cells.ravel(), minlength=len(cells) * (m + 2))
    return np.cumsum(counts.reshape(-1, m + 2), axis=1)[:, :-1]


def _ratio_values(num, den):
    """num / den on days 1, 2, ..., NaN where den is 0, and the first such
    day (None if there is none)."""
    defined = den > 0
    values = np.where(defined, num / np.where(defined, den, 1.0), np.nan)
    undefined = np.flatnonzero(~defined)
    return values, float(undefined[0] + 1) if undefined.size else None


def _day_ratio(num, den) -> StepCurve:
    """num / den on days 1, 2, ..., undefined where den is 0."""
    values, undefined_from = _ratio_values(num, den)
    return StepCurve(np.arange(1, num.size + 1, dtype=float), values, initial=0.0,
                     undefined_from=undefined_from)


def _death_days(panel: DailyPanel) -> np.ndarray:
    """Per subject, its terminal day if it died, else n_days + 1."""
    return np.where(panel.status == STATUS_DEATH, panel.terminal_day, panel.n_days + 1)


def _death_rows(panel: DailyPanel, draws=None) -> np.ndarray:
    """Share of the panel dead by each day 1..m; with ``draws``, a (k x n)
    block of draws of its subjects, one row per draw."""
    return _on_or_before(_death_days(panel), panel.n_days, draws)[..., 1:] / panel.n_subjects


def _death_proportion(panel: DailyPanel) -> StepCurve:
    """Share of the panel dead by each day."""
    days = np.arange(1, panel.n_days + 1, dtype=float)
    return StepCurve(days, _death_rows(panel), initial=0.0)


def _naive_rows(panel: DailyPanel, draws=None):
    """Per day 1..m, the deaths without exposure on or before it and the
    subjects still unexposed; with ``draws`` (see ``_death_rows``), one row
    of each per draw."""
    m, exposure = panel.n_days, panel.exposure_day
    died_unexposed = np.where(exposure > m, _death_days(panel), m + 1)
    num = _on_or_before(died_unexposed, m, draws)[..., 1:]
    return num, panel.n_subjects - _on_or_before(exposure, m, draws)[..., 1:]


def naive_f01(panel: DailyPanel) -> StepCurve:
    """Deaths without exposure by t over subjects unexposed until t."""
    return _day_ratio(*_naive_rows(panel))


def fit_pooled_logistic(panel: DailyPanel, covariate_names) -> ExposureModel:
    """Maximum-likelihood fit, by damped Newton iterations, of the daily
    exposure probability on an intercept and the baseline covariates
    ``covariate_names`` (``()`` for the intercept alone), pooled over the
    subject-days at risk of new exposure.

    With no day terms, every subject-day of a covariate pattern g shares
    one linear predictor z_g, so the Bernoulli likelihood of the
    subject-days collapses exactly onto the patterns: sum_g Y_g z_g -
    D_g log(1 + e^{z_g}), with D_g the pattern's days at risk and Y_g its
    exposures (D'Agostino et al. 1990, Stat Med 9:1501).  The fit holds
    one row per pattern, never one per subject-day.
    """
    return _pattern_fit(panel, covariate_names)[0](slice(None))


def _pattern_fit(panel: DailyPanel, names):
    """For the model on the covariates ``names``: its fit to a draw ``idx``
    of the panel's subjects, the factors 1 - p of each covariate pattern
    for coefficients ``beta``, and each subject's pattern.  A draw's D_g
    and Y_g are summed in draw order over the patterns drawn, in the order
    ``np.unique`` gives the resampled panel.  p is predicted on the
    (n_subjects x p) design: the (patterns x p) matrix may round otherwise.
    """
    cols = [covariate_column(panel, name, numeric=True) for name in names]
    x = np.column_stack([np.ones(panel.n_subjects), *cols])
    patterns, first, group = np.unique(x, axis=0, return_index=True, return_inverse=True)
    at_risk, exposed = _at_risk_days(panel), panel.exposure_day <= panel.terminal_day
    terms = ("intercept",) + tuple(names)

    def fit(idx):
        d = np.bincount(group[idx], weights=at_risk[idx], minlength=len(patterns))
        y = np.bincount(group[idx], weights=exposed[idx], minlength=len(patterns))
        kept = d > 0  # the patterns drawn: every subject is at risk on day 1
        return _fit_patterns(patterns[kept], d[kept], y[kept], terms)

    return fit, lambda beta: np.subtract(1.0, _logistic(x @ beta)[first])[:, None], group


def _fit_patterns(x, d, y, names) -> ExposureModel:
    """The fit on the patterns ``x``, columns ``names``, with D_g = ``d`` and Y_g = ``y``."""
    if y.sum() == 0:
        raise DataError("no exposure events; the model has no MLE")
    if y.sum() == d.sum():
        raise DataError("every person-day is an exposure; the model has no MLE")

    def evaluate(beta):
        z = x @ beta
        p = _logistic(z)
        # log(p) and log(1-p) written stably via logaddexp
        ll = float(np.sum(y * z - d * np.logaddexp(0.0, z)))
        return ll, x.T @ (y - d * p), (x * (d * p * (1.0 - p))[:, None]).T @ x

    beta, loglik, _, it = newton(
        evaluate, names,
        singular=f"singular information matrix; check covariates {names}",
        diverged="coefficients diverged (|beta| > 30), driven by {!r}",
        unconverged="pooled logistic fit did not converge in 100 iterations",
    )
    return ExposureModel(beta, names[1:], it, loglik)


def _daily_hazard(exposure, terminal, m):
    """The empirical exposure hazard of each day 1..m for subjects with
    these exposure and terminal days, and the subjects who leave unexposed
    (their own probability is 0 on their terminal day)."""
    n = exposure.size
    left_unexposed = np.flatnonzero(terminal < exposure)
    n_at_risk = (n - _on_or_before(np.minimum(exposure, terminal), m)[:-1]).astype(float)
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
    hazard, left_unexposed = _daily_hazard(panel.exposure_day, panel.terminal_day, panel.n_days)
    probs = np.repeat(hazard[None, :], panel.n_subjects, axis=0)
    probs[left_unexposed, panel.terminal_day[left_unexposed] - 1] = 0.0
    return probs


def _weight_table(panel: DailyPanel, factors, row, freeze_day) -> WeightTable:
    table = WeightTable(factors, row, freeze_day, panel.exposure_day, panel.n_days)
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
    bad = ~((daily_probs >= 0.0) & (daily_probs <= 1.0))  # NaN fails both
    if bad.any():
        i, s = np.unravel_index(np.argmax(bad), bad.shape)
        raise DataError(f"subject {panel.ids[i]}, day {s + 1}: probability {daily_probs[i, s]} "
                        "is not a finite number in [0, 1]")
    return _weight_table(panel, np.subtract(1.0, daily_probs), np.arange(panel.n_subjects),
                         _at_risk_days(panel))


def empirical_weights(panel: DailyPanel) -> WeightTable:
    """``compute_weights(panel, nonparametric_daily_hazard(panel))`` from one
    shared row of factors.

    A subject who leaves unexposed on day T has probability 0 that day, a
    factor of exactly 1, so its product stops at T - 1.
    """
    hazard, left_unexposed = _daily_hazard(panel.exposure_day, panel.terminal_day, panel.n_days)
    freeze_day = _at_risk_days(panel)
    freeze_day[left_unexposed] -= 1
    return _weight_table(panel, np.subtract(1.0, hazard)[None, :],
                         np.broadcast_to(np.intp(0), panel.n_subjects), freeze_day)


def model_weights(panel: DailyPanel, model: ExposureModel) -> WeightTable:
    """``compute_weights`` for the model's fitted probabilities, constant
    over days, with one row of factors per covariate pattern."""
    _, factors, row = _pattern_fit(panel, model.covariate_names)
    return _weight_table(panel, factors(model.coefficients), row, _at_risk_days(panel))


def ipw_f01(panel: DailyPanel, weights: WeightTable) -> StepCurve:
    """Weighted death proportion under the no-exposure path."""
    if (weights.n_subjects, weights.n_days) != (panel.n_subjects, panel.n_days):
        raise DataError("weight table does not match the panel")
    patterns = weights._patterns(_death_days(panel))
    total, died = _ipw_sums(patterns.blocks(weights.factors), *_buffers(patterns.step, panel.n_days))
    return _day_ratio(died, total)
