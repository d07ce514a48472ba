"""Proportional-hazards fits with time-dependent exposure and Breslow ties.

The exposure-only fit reads the risk-set counts of the six-state exit
table.  A fit with covariates and the Markov diagnostic use risk intervals
(t_start, t_stop], so delayed entry falls out of the risk-set definition.
Every fit runs the one damped Newton solver, ``newton.newton``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .cohort import EXIT_STATE, STATUS_DEATH, STATUS_DISCHARGE, Cohort, covariate_column
from .continuous import _ROWS, _at_risk, _exit_table
from .errors import DataError, SeparationError
from .newton import newton

__all__ = ["CoxFit", "fit_cox_td", "markov_test"]

_Z975 = 1.959963984540054
_NO_EVENTS = "no events of the requested type"
_DIVERGED = "Cox coefficients diverged (|beta| > 30), driven by {!r}"


@dataclass(frozen=True)
class CoxFit:
    """Result of one partial-likelihood fit."""

    outcome: str
    terms: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    log_likelihood: float
    iterations: int
    n_events: int

    @property
    def hazard_ratios(self) -> np.ndarray:
        return np.exp(self.coefficients)

    @property
    def ci_lower(self) -> np.ndarray:
        return np.exp(self.coefficients - _Z975 * self.standard_errors)

    @property
    def ci_upper(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # a bound past the float range is inf
            return np.exp(self.coefficients + _Z975 * self.standard_errors)

    @property
    def p_values(self) -> np.ndarray:
        z = np.abs(self.coefficients) / self.standard_errors
        return np.array([math.erfc(v / math.sqrt(2.0)) for v in z])

    def summary_csv(self) -> str:
        buf = io.StringIO()
        buf.write("outcome,term,coef,hr,se,ci_low,ci_high,p,n_events\n")
        for j, term in enumerate(self.terms):
            buf.write(
                f"{self.outcome},{term},{self.coefficients[j]:.6g},"
                f"{self.hazard_ratios[j]:.6g},{self.standard_errors[j]:.6g},"
                f"{self.ci_lower[j]:.6g},{self.ci_upper[j]:.6g},"
                f"{self.p_values[j]:.6g},{self.n_events}\n"
            )
        return buf.getvalue()


class _RiskSets:
    """The risk sets {start < t <= stop} at the event times ``t``.

    Delayed entry makes a risk set the difference of two tail sums, over
    the intervals with stop >= t and over those with start >= t.  Both
    orders and every tail's first position are found once, so a sum over
    the risk sets costs two gathers and two cumulative sums.
    """

    def __init__(self, start, stop, event_times):
        self._tails = []
        for key in (stop, start):
            order = np.argsort(key)
            first = np.searchsorted(key[order], event_times, side="left")
            # the tail from sorted position i is entry n - i of a cumulative
            # sum over the reversed order that starts with the empty tail
            self._tails.append((order[::-1].copy(), key.size - first))

    def sums(self, values):
        """Sums of the rows of the 2-d ``values`` over each risk set."""
        (stop_order, stop_tail), (start_order, start_tail) = self._tails
        return (_tail_sums(values, stop_order, stop_tail)
                - _tail_sums(values, start_order, start_tail)).astype(float)


def _tail_sums(values, order, tail):
    # extended precision: the 1e-8 score tolerance sits below the float64
    # rounding of a cumulative sum over large cohorts
    acc = np.zeros((values.shape[0] + 1,) + values.shape[1:], dtype=np.longdouble)
    np.cumsum(values[order], axis=0, dtype=np.longdouble, out=acc[1:])
    return acc[tail]


def _interval_likelihood(start, stop, event, x):
    """The Breslow log partial likelihood of the risk intervals (start,
    stop] as a function of beta that returns it, its score and information."""
    p = x.shape[1]
    if event.sum() == 0:
        raise DataError(_NO_EVENTS)
    event_times, inverse = np.unique(stop[event], return_inverse=True)
    d = np.bincount(inverse).astype(float)  # tied events per time
    x_event_sum = np.zeros((event_times.size, p))
    np.add.at(x_event_sum, inverse, x[event])
    risk = _RiskSets(start, stop, event_times)

    def loglik_score_info(beta):
        eta = x @ beta
        shift = eta.max()  # keeps exp() in range; restored in the log below
        w = np.exp(eta - shift)
        wx = w[:, None] * x
        s0 = risk.sums(w[:, None])[:, 0]
        if np.any(s0 <= 0.0):
            # a risk-set sum underflowed; treat the point as infeasible
            return -np.inf, np.full(p, np.nan), np.full((p, p), np.nan)
        s1 = risk.sums(wx)
        # second moment, one pass per covariate
        s2 = np.empty((event_times.size, p, p))
        for a in range(p):
            s2[:, a, :] = risk.sums(wx * x[:, a : a + 1])
        xbar = s1 / s0[:, None]
        ll = float((x[event] @ beta).sum() - (d * (np.log(s0) + shift)).sum())
        score = x_event_sum.sum(axis=0) - (d[:, None] * xbar).sum(axis=0)
        info = np.einsum("t,tab->ab", d, s2 / s0[:, None, None]) - np.einsum(
            "t,ta,tb->ab", d, xbar, xbar
        )
        return ll, score, info

    return loglik_score_info


def _count_likelihood(cohort: Cohort, outcome: str):
    """The exposure-only log partial likelihood beta D1 - sum_t d(t)
    log(Y0(t-) + e^beta Y1(t-)) from the six-state exits, with d(t) the
    events at t and D1 those after exposure; and the number of events."""
    states = _OUTCOME_STATES[outcome]
    n_events = int(np.isin(EXIT_STATE[cohort.exposed.astype(int), cohort.status], states).sum())
    if n_events == 0:
        raise DataError(_NO_EVENTS)
    # the six-state exits in five rows: exposures, the outcome's exits from
    # states 0 and 1, and the other exits from each state; summed in place
    # to all exits from state 0, and the exits from state 1 less exposures
    merge = np.array([0, 3, 3, 3, 4, 4, 4])
    merge[[_ROWS[0, states[0]], _ROWS[1, states[1]]]] = 1, 2
    exposures, before, after, y0, y1 = _exit_table(cohort, "six_state", merge)[1]()
    y0 += before
    y0 += exposures
    y1 += after
    y1 -= exposures
    d = np.add(before, after, out=exposures)
    at = d > 0
    d, y0, y1, d1 = d[at], _at_risk(y0)[at], _at_risk(y1)[at], float(after.sum())
    # the score d1 - sum_t d(t) p(t) falls from d1 - sum_{Y0(t-)=0} d(t) at
    # beta -> -inf to d1 - sum_{Y1(t-)>0} d(t) at +inf; a limit of 0 leaves
    # it one sign, a likelihood without maximum (equal limits: flat)
    limits = (d1 - d[y0 == 0].sum(), d1 - d[y1 > 0].sum())
    if 0.0 in limits and limits[0] != limits[1]:
        raise SeparationError(_DIVERGED.format("exposure"))

    def evaluate(beta):
        b = float(beta[0])
        shift = max(0.0, b)  # the interval engine's shift: keeps exp() in range
        w1 = math.exp(b - shift)
        s0 = y0 * math.exp(-shift) + y1 * w1
        if np.any(s0 <= 0.0):  # as in the interval engine: an underflowed risk set
            return -np.inf, np.full(1, np.nan), np.full((1, 1), np.nan)
        p = y1 * w1 / s0
        ll = b * d1 - float(d @ (np.log(s0) + shift))
        return ll, np.array([d1 - d @ p]), np.array([[d @ (p * (1.0 - p))]])

    return evaluate, n_events


def _fit(outcome, terms, evaluate, n_events) -> CoxFit:
    """The fit that maximises ``evaluate``, with Wald standard errors."""
    beta, ll, info, it = newton(
        evaluate, terms,
        singular="singular information matrix in the Cox fit",
        diverged=_DIVERGED,
        unconverged="Cox fit did not converge in 100 iterations",
    )
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise SeparationError("singular information matrix; a covariate is constant "
                              "within every risk set") from None
    var = np.diag(cov)
    if not (var > 0).all():  # a flat ridge, not a maximum
        raise SeparationError("information matrix not positive definite at convergence")
    return CoxFit(outcome, terms, beta, np.sqrt(var), ll, it, n_events)


_OUTCOME_STATES = {"death": (3, 5), "discharge": (2, 4)}


def _interval_arrays(cohort: Cohort, extra_covariates):
    """(start, stop, to_state, x) of the risk intervals in row order
    (``Cohort._intervals``), x the exposure and the ``extra_covariates``."""
    subject, state, to_state, start, stop = cohort._intervals()
    cols = [covariate_column(cohort, name, numeric=True)[subject] for name in extra_covariates]
    return start, stop, to_state, np.column_stack([state.astype(float), *cols])


def fit_cox_td(cohort: Cohort, outcome: str, extra_covariates=()) -> CoxFit:
    """Hazard ratio of the exposure for death or discharge.

    The exposure enters as a time-varying 0/1 covariate: each subject
    contributes an unexposed interval and, if exposed, a second interval
    with the covariate switched on.
    """
    if outcome not in _OUTCOME_STATES:
        raise ValueError("outcome must be 'death' or 'discharge'")
    terms = ("exposure",) + tuple(extra_covariates)
    if not extra_covariates:
        return _fit(outcome, terms, *_count_likelihood(cohort, outcome))
    start, stop, to_state, x = _interval_arrays(cohort, extra_covariates)
    event = np.isin(to_state, _OUTCOME_STATES[outcome])
    return _fit(outcome, terms, _interval_likelihood(start, stop, event, x), int(event.sum()))


def markov_test(cohort: Cohort, outcome: str = "death_after") -> CoxFit:
    """Wald test of the exposure time as a covariate after exposure.

    Under the Markov assumption the post-exposure hazards do not depend
    on when the exposure happened, so the coefficient should be null.
    """
    targets = {"death_after": STATUS_DEATH, "discharge_after": STATUS_DISCHARGE}
    if outcome not in targets:
        raise ValueError("outcome must be 'death_after' or 'discharge_after'")
    inf, end, status = cohort.inf, cohort.end, cohort.status
    exposed = cohort.exposed
    if not exposed.any():
        raise DataError("no post-exposure intervals; nothing to test")
    start, stop = inf[exposed], end[exposed]
    event = status[exposed] == targets[outcome]
    x = start[:, None].copy()  # time of exposure acquisition
    return _fit(outcome, ("inf_time",), _interval_likelihood(start, stop, event, x), int(event.sum()))
