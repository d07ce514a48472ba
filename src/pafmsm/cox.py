"""Proportional-hazards fits with time-dependent exposure.

The partial likelihood uses counting-process risk intervals (t_start,
t_stop], so delayed entry (needed both for the time-varying exposure and
for the Markov diagnostic's clock) falls out of the risk-set definition.
Ties are handled with the Breslow approximation.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .cohort import EXIT_STATE, STATUS_DEATH, STATUS_DISCHARGE, TransitionRecords, covariate_column
from .errors import ConvergenceError, DataError, SeparationError

__all__ = ["CoxFit", "fit_cox_td", "markov_test"]

_Z975 = 1.959963984540054


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


def _risk_sums(start, stop, w, wx, event_times):
    """Sums of w and w*x over the risk sets {start < t <= stop}."""
    risk = _RiskSets(start, stop, event_times)
    return risk.sums(w[:, None])[:, 0], risk.sums(wx)


def _cox_engine(start, stop, event, x, term_names):
    """Damped Newton maximization of the Breslow log partial likelihood."""
    n, p = x.shape
    if event.sum() == 0:
        raise DataError("no events of the requested type")
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

    beta = np.zeros(p)
    ll, score, info = loglik_score_info(beta)
    trace = []
    for it in range(1, 101):
        trace.append((it, float(np.max(np.abs(score))), ll))
        if np.max(np.abs(score)) < 1e-8:
            try:
                cov = np.linalg.inv(info)
            except np.linalg.LinAlgError:
                raise SeparationError(
                    "singular information matrix; a covariate is constant "
                    "within every risk set"
                ) from None
            var = np.diag(cov)
            if not (var > 0).all():  # a flat ridge, not a maximum
                raise SeparationError("information matrix not positive definite at convergence")
            return beta, np.sqrt(var), ll, it
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise SeparationError("singular information matrix in the Cox fit") from None
        # relative slack: near the optimum a valid micro-step moves ll by
        # less than its own rounding, so an absolute cutoff would stall
        slack = 1e-12 * max(1.0, abs(ll))
        scale = 1.0
        for _ in range(60):
            cand = beta + scale * step
            cand_ll, cand_score, cand_info = loglik_score_info(cand)
            if np.isfinite(cand_ll) and cand_ll >= ll - slack:
                break
            scale /= 2.0
        beta, ll, score, info = cand, cand_ll, cand_score, cand_info
        if np.max(np.abs(beta)) > 30:
            worst = term_names[int(np.argmax(np.abs(beta)))]
            raise SeparationError(f"Cox coefficients diverged (|beta| > 30), driven by {worst!r}")
    raise ConvergenceError("Cox fit did not converge in 100 iterations", trace)


def _log_partial_likelihood(start, stop, event, x, beta):
    """Exposed for finite-difference checks of the analytic score."""
    event_times, inverse = np.unique(stop[event], return_inverse=True)
    d = np.bincount(inverse).astype(float)
    eta = x @ beta
    shift = eta.max()
    w = np.exp(eta - shift)
    s0, _ = _risk_sums(start, stop, w, w[:, None] * x, event_times)
    return float((x[event] @ beta).sum() - (d * (np.log(s0) + shift)).sum())


_OUTCOME_STATES = {"death": (3, 5), "discharge": (2, 4)}


def _interval_arrays(records: TransitionRecords, extra_covariates):
    """(start, stop, to_state, x) of the risk intervals in row order: each
    subject's state-0 interval, then its state-1 interval if exposed."""
    ids, inf, end, status = records.subject_arrays()
    exposed = ~np.isnan(inf)
    subject = np.repeat(np.arange(end.size), np.where(exposed, 2, 1))
    after = np.zeros(subject.size, dtype=bool)  # the second interval of a subject
    after[1:] = subject[1:] == subject[:-1]
    inf, end, exposed, status = inf[subject], end[subject], exposed[subject], status[subject]
    to_state = np.where(after | ~exposed, EXIT_STATE[after.astype(int), status], 1)
    cols = [after.astype(float)]
    for name in extra_covariates:
        cols.append(covariate_column(records.covariates, name, ids, numeric=True)[subject])
    return (
        np.where(after, inf, 0.0),
        np.where(after | ~exposed, end, inf),
        to_state,
        np.column_stack(cols),
    )


def fit_cox_td(records: TransitionRecords, outcome: str, extra_covariates=()) -> CoxFit:
    """Hazard ratio of the exposure for death or discharge.

    The exposure enters as a time-varying 0/1 covariate: each subject
    contributes an unexposed interval and, if exposed, a second interval
    with the covariate switched on.
    """
    if outcome not in _OUTCOME_STATES:
        raise ValueError("outcome must be 'death' or 'discharge'")
    start, stop, to_state, x = _interval_arrays(records, extra_covariates)
    event = np.isin(to_state, _OUTCOME_STATES[outcome])
    terms = ("exposure",) + tuple(extra_covariates)
    beta, se, ll, it = _cox_engine(start, stop, event, x, terms)
    return CoxFit(outcome, terms, beta, se, ll, it, int(event.sum()))


def markov_test(records: TransitionRecords, outcome: str = "death_after") -> CoxFit:
    """Wald test of the exposure time as a covariate after exposure.

    Under the Markov assumption the post-exposure hazards do not depend
    on when the exposure happened, so the coefficient should be null.
    """
    targets = {"death_after": STATUS_DEATH, "discharge_after": STATUS_DISCHARGE}
    if outcome not in targets:
        raise ValueError("outcome must be 'death_after' or 'discharge_after'")
    _, inf, end, status = records.subject_arrays()
    exposed = ~np.isnan(inf)
    if not exposed.any():
        raise DataError("no post-exposure intervals; nothing to test")
    start, stop = inf[exposed], end[exposed]
    event = status[exposed] == targets[outcome]
    x = start[:, None].copy()  # time of exposure acquisition
    beta, se, ll, it = _cox_engine(start, stop, event, x, ("inf_time",))
    return CoxFit(outcome, ("inf_time",), beta, se, ll, it, int(event.sum()))
