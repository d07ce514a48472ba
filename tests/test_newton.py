"""The damped Newton solver that every maximum-likelihood fit calls."""

from pathlib import Path

import numpy as np
import pytest

from pafmsm import (
    ConvergenceError,
    SeparationError,
    discretize,
    fit_cox_td,
    fit_pooled_logistic,
    markov_test,
    parse_cohort,
)
from pafmsm import cox, discrete
from pafmsm import newton as newton_module
from pafmsm.newton import newton

GOLDEN = Path(__file__).resolve().parent / "golden"
MESSAGES = dict(singular="singular", diverged="diverged by {!r}", unconverged="unconverged")


def quadratic(centre):
    """The log-likelihood -|beta - centre|^2 / 2, with its score and information."""
    def evaluate(beta):
        r = beta - centre
        return -0.5 * float(r @ r), -r, np.eye(beta.size)
    return evaluate


def test_a_quadratic_is_maximised_by_one_full_step():
    beta, ll, info, it = newton(quadratic(np.array([1.5, -2.0])), ("a", "b"), **MESSAGES)
    assert beta.tolist() == [1.5, -2.0]
    assert ll == 0.0 and it == 2
    assert info.tolist() == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("halvings", [3, 30, 59])
def test_a_step_is_halved_at_most_halvings_times_and_the_last_is_taken(halvings, monkeypatch):
    # every step away from zero is infeasible, so each iteration tries all
    # its candidates and takes the smallest; 59 is the budget of every fit
    monkeypatch.setattr(newton_module, "HALVINGS", halvings)
    tried = []

    def evaluate(beta):
        if beta[0] != 0.0:
            tried.append(float(beta[0]))
        return (0.0 if beta[0] == 0.0 else -np.inf), np.array([1.0]), np.array([[1.0]])

    with pytest.raises(ConvergenceError):
        newton(evaluate, ("a",), **MESSAGES)
    assert tried[:halvings + 2] == [0.5 ** k for k in range(halvings + 1)] + [0.5 ** halvings + 1.0]
    assert len(tried) == 100 * (halvings + 1)


def test_a_step_that_does_not_lower_the_log_likelihood_is_taken_whole():
    calls = []

    def evaluate(beta):
        calls.append(beta.copy())
        return quadratic(np.array([4.0]))(beta)

    newton(evaluate, ("a",), **MESSAGES)
    assert [b.tolist() for b in calls] == [[0.0], [4.0]]


def test_a_coefficient_past_30_is_separation_naming_it():
    with pytest.raises(SeparationError, match="^diverged by 'b'$"):
        newton(quadratic(np.array([1.0, -31.0])), ("a", "b"), **MESSAGES)


def test_a_singular_information_is_separation():
    def evaluate(beta):
        return 0.0, np.array([1.0, 1.0]), np.zeros((2, 2))

    with pytest.raises(SeparationError, match="^singular$"):
        newton(evaluate, ("a", "b"), **MESSAGES)


def test_no_convergence_in_100_iterations_carries_the_trace():
    # a score that never falls below tolerance on a flat log-likelihood
    def evaluate(beta):
        return 0.0, np.array([1e-6]), np.array([[1e6]])

    with pytest.raises(ConvergenceError, match="^unconverged$") as caught:
        newton(evaluate, ("a",), **MESSAGES)
    trace = caught.value.trace
    assert [row[0] for row in trace] == list(range(1, 101))
    assert all(row[1:] == (1e-6, 0.0) for row in trace)


def test_every_fit_runs_the_one_solver(monkeypatch):
    calls = []

    def recording(evaluate, names, **messages):
        calls.append(tuple(names))
        return newton(evaluate, names, **messages)

    monkeypatch.setattr(cox, "newton", recording)
    monkeypatch.setattr(discrete, "newton", recording)
    cohort = parse_cohort(GOLDEN / "daily" / "cohort.csv")
    fit_cox_td(cohort, "death")
    fit_cox_td(cohort, "death", extra_covariates=("x",))
    markov_test(cohort, "death_after")
    fit_pooled_logistic(discretize(cohort, allow_drop=True), ("x",))
    assert calls == [("exposure",), ("exposure", "x"), ("inf_time",), ("intercept", "x")]
