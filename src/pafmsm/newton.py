"""The damped Newton solver that every maximum-likelihood fit calls."""

import numpy as np

from .errors import ConvergenceError, SeparationError

HALVINGS = 59


def newton(evaluate, names, *, singular, diverged, unconverged):
    """(beta, log-likelihood, information, iterations) at max|score| < 1e-8,
    from beta = 0; ``evaluate(beta)`` gives (log-likelihood, score, information).
    A step that would lower the log-likelihood is halved at most HALVINGS times,
    and the last candidate is taken as it is.  ``diverged`` is formatted
    with the name of a coefficient past |beta| > 30."""
    beta = np.zeros(len(names))
    ll, score, info = evaluate(beta)
    trace = []
    for it in range(1, 101):
        trace.append((it, float(np.max(np.abs(score))), ll))
        if trace[-1][1] < 1e-8:
            return beta, ll, info, it
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise SeparationError(singular) from None
        # relative slack: near the optimum a valid micro-step moves ll by
        # less than its own rounding, so an absolute cutoff would stall
        slack = 1e-12 * max(1.0, abs(ll))
        for k in range(HALVINGS + 1):
            cand = beta + 0.5**k * step
            cand_ll, cand_score, cand_info = evaluate(cand)
            if np.isfinite(cand_ll) and cand_ll >= ll - slack:
                break
        beta, ll, score, info = cand, cand_ll, cand_score, cand_info
        if np.max(np.abs(beta)) > 30:
            raise SeparationError(diverged.format(names[int(np.argmax(np.abs(beta)))]))
    raise ConvergenceError(unconverged, trace)
