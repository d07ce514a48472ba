"""Population-attributable-fraction assembly.

Combines the building-block curves into the two time-dependent estimands,
the time-fixed fourfold-table version, preventable-case counts, bootstrap
bands and stratified output.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cohort import (
    STATUS_DEATH,
    Cohort,
    DailyPanel,
    covariate_column,
    discretize,
    to_transitions,
)
from . import continuous
from .continuous import overall_death_risk
from .curves import StepCurve, _csv_rows, union_grid
from .discrete import (
    _death_proportion,
    empirical_weights,
    expand_person_days,
    fit_pooled_logistic,
    ipw_f01,
    model_weights,
    naive_f01,
)
from .errors import DataError, NumericalError

__all__ = [
    "PafCurve",
    "CurveWithBands",
    "FourfoldTable",
    "paf_o",
    "paf_c",
    "paf_fixed",
    "fourfold_at",
    "preventable_count",
    "estimate_paf",
    "bootstrap_ci",
    "stratified_paf",
]

_DENOM_TOL = 1e-12

# valid estimand/estimator pairs
ESTIMAND_ESTIMATORS = {
    "paf_o": ("multistate", "naive"),
    "paf_c": ("multistate", "ipw"),
}

# The multistate curve each estimand subtracts from P(death by t): the name
# in .continuous of its point estimator and of its reduction of the exit
# table.  The estimator is looked up at call time, so a patched one is used.
_SUBTRACTED = {"paf_o": "cpf_unexposed", "paf_c": "cif_counterfactual"}


@dataclass(frozen=True)
class PafCurve:
    """A PAF step curve tagged with what it estimates and how."""

    curve: StepCurve
    estimand: str
    estimator: str

    def __call__(self, t):
        return self.curve(t)

    @property
    def times(self):
        return self.curve.times

    @property
    def values(self):
        return self.curve.values

    def to_csv(self) -> str:
        return self.curve.to_csv()


def _paf_values(pd, q):
    """(pd - q) / pd where both are finite and pd > 0; NaN elsewhere."""
    defined = np.isfinite(pd) & np.isfinite(q) & (pd > _DENOM_TOL)
    return np.where(defined, (pd - q) / np.where(defined, pd, 1.0), np.nan)


def _ratio(overall: StepCurve, subtracted: StepCurve, estimand, estimator) -> PafCurve:
    grid = union_grid(overall, subtracted)
    values = _paf_values(np.atleast_1d(overall(grid)), np.atleast_1d(subtracted(grid)))
    undef = [c.undefined_from for c in (overall, subtracted) if c.undefined_from is not None]
    return PafCurve(
        StepCurve(
            grid,
            values,
            initial=np.nan,  # PAF is 0/0 before the first death
            undefined_from=min(undef) if undef else None,
        ),
        estimand,
        estimator,
    )


def paf_o(overall: StepCurve, cpf: StepCurve, estimator="multistate") -> PafCurve:
    """PAF against the observable proportion among the still-unexposed."""
    return _ratio(overall, cpf, "paf_o", estimator)


def paf_c(overall: StepCurve, counterfactual: StepCurve, estimator="multistate") -> PafCurve:
    """PAF against the counterfactual no-exposure death risk."""
    return _ratio(overall, counterfactual, "paf_c", estimator)


@dataclass(frozen=True)
class FourfoldTable:
    """Exposure-by-outcome counts at a fixed time point."""

    exposed_cases: int
    exposed_noncases: int
    unexposed_cases: int
    unexposed_noncases: int

    @property
    def total(self) -> int:
        return self.cases + self.exposed_noncases + self.unexposed_noncases

    @property
    def cases(self) -> int:
        return self.exposed_cases + self.unexposed_cases


def fourfold_at(cohort: Cohort, t: float) -> FourfoldTable:
    """Classify every subject by exposure and death status at time t."""
    exposed = cohort.inf <= t  # NaN (never exposed) compares False
    case = (cohort.status == STATUS_DEATH) & (cohort.end <= t)
    counts = np.bincount(2 * exposed + case, minlength=4).tolist()
    return FourfoldTable(
        exposed_cases=counts[3],
        exposed_noncases=counts[2],
        unexposed_cases=counts[1],
        unexposed_noncases=counts[0],
    )


def paf_fixed(table: FourfoldTable) -> float:
    """Time-fixed PAF from a fourfold table; NaN when it has no cases."""
    if table.total <= 0:
        raise DataError("empty fourfold table")
    if table.cases == 0:
        return float("nan")
    p_d = table.cases / table.total
    unexposed = table.unexposed_cases + table.unexposed_noncases
    if unexposed == 0:
        return float("nan")
    p_d_unexposed = table.unexposed_cases / unexposed
    return (p_d - p_d_unexposed) / p_d


def preventable_count(paf_value: float, deaths_by_t: int) -> int:
    """Number of deaths attributed to the exposure, rounded to nearest."""
    if not math.isfinite(paf_value):
        raise DataError("PAF is undefined; no count can be attributed")
    return int(math.floor(paf_value * deaths_by_t + 0.5))


def estimate_paf(
    cohort: Cohort,
    estimand: str,
    estimator: str = "multistate",
    covariates=(),
    allow_drop=False,
) -> PafCurve:
    """Run one of the four estimand/estimator pipelines end to end.

    covariates selects a pooled logistic exposure model for the IPW
    weights; without them the weights use the empirical daily hazard.
    """
    _check_pair(estimand, estimator)
    return _paf_from(estimand, estimator, covariates, *_inputs(cohort, estimator, allow_drop))


def _check_pair(estimand, estimator):
    if estimand not in ESTIMAND_ESTIMATORS:
        raise ValueError(f"unknown estimand {estimand!r}")
    if estimator not in ESTIMAND_ESTIMATORS[estimand]:
        raise ValueError(f"estimator {estimator!r} does not estimate {estimand}")


def _inputs(cohort: Cohort, estimator, allow_drop):
    """What the estimator reads: (counting-process records, None) or (None, daily panel)."""
    if estimator == "multistate":
        return to_transitions(cohort), None
    return None, discretize(cohort, allow_drop=allow_drop)


def _paf_from(estimand, estimator, covariates, records, panel) -> PafCurve:
    if estimator == "multistate":
        overall = overall_death_risk(records)
        other = getattr(continuous, _SUBTRACTED[estimand])(records)
    else:
        overall = _death_proportion(panel)
        if estimator == "naive":
            other = naive_f01(panel)
        else:
            other = ipw_f01(panel, _panel_weights(panel, covariates))
    return _ratio(overall, other, estimand, estimator)


def _panel_weights(panel: DailyPanel, covariates):
    if covariates:
        return model_weights(panel, fit_pooled_logistic(expand_person_days(panel, covariates)))
    return empirical_weights(panel)


@dataclass(frozen=True)
class CurveWithBands:
    """Point estimate with pointwise percentile confidence bands.

    ``failed`` counts the replicates whose estimator raised a
    :class:`NumericalError`; each contributes an undefined row.
    """

    estimate: StepCurve
    lower: StepCurve
    upper: StepCurve
    B: int
    seed: int
    failed: int

    def to_csv(self) -> str:
        grid = self.lower.times
        columns = (np.atleast_1d(self.estimate(grid)), self.lower.values, self.upper.values)
        defined = np.isfinite(columns[1]) & np.isfinite(columns[2])
        # a non-finite cell is written blank, as NaN
        cells = [np.where(np.isfinite(c), c, np.nan) for c in columns]
        return "t,estimate,lower,upper,defined\n" + "".join(
            _csv_rows((grid, *cells, defined.astype(float))))


# Multistate replicates are computed in blocks whose exit table, and whose
# (replicate x subject) count matrix, hold at most this many cells, so that
# memory grows with n + B * len(grid) and not with B * n.
_BLOCK_CELLS = 1 << 17


def _on_grid(ut, rows, grid):
    """Evaluate (k x T) step-curve rows, 0 before ``ut[0]``, at ``grid``."""
    cols = np.searchsorted(ut, grid, side="right") - 1
    return np.where(cols < 0, 0.0, rows[:, np.maximum(cols, 0)])


def _multistate_replicates(records, estimand, streams, grid):
    """PAF of every replicate on ``grid``, one row per stream.

    A replicate is the vector of how often each subject was drawn; the
    exit table weighted by those counts gives exactly the curves of the
    resampled cohorts, a block of replicates per table.
    """
    n = records.end.size
    times, table = continuous._exit_table(records)
    block = max(1, _BLOCK_CELLS // max(7 * times.size, n))
    est = np.empty((len(streams), grid.size))
    for first in range(0, len(streams), block):
        part = streams[first:first + block]
        counts = table(_draw_counts(part, n))
        pd, q = (_on_grid(times, continuous._reduction(counts, name)[0], grid)
                 for name in ("overall_death_risk", _SUBTRACTED[estimand]))
        est[first:first + len(part)] = _paf_values(pd, q)
    return est


def _draw_counts(streams, n):
    """(k x n) matrix of how often the replicate of each stream drew each
    subject, as floats: the weights of the exit table, one ``bincount`` per
    stream written into one preallocated matrix."""
    out = np.empty((len(streams), n))
    for row, stream in zip(out, streams):
        row[:] = np.bincount(np.random.default_rng(stream).integers(0, n, size=n), minlength=n)
    return out


def _percentile_band(est):
    """Per column of ``est``, the 2.5th and 97.5th percentiles of its values
    that are not NaN (NaN if it has none), as ``np.nanpercentile`` gives
    them: one vectorised call for the columns without NaN, ``nanpercentile``,
    a Python loop over columns, only for the rest."""
    band = np.full((2, est.shape[1]), np.nan)
    whole = ~np.isnan(est).any(axis=0)
    band[:, whole] = np.percentile(est[:, whole], [2.5, 97.5], axis=0)
    if not whole.all():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
            band[:, ~whole] = np.nanpercentile(est[:, ~whole], [2.5, 97.5], axis=0)
    return band


def bootstrap_ci(
    cohort: Cohort,
    estimand: str,
    estimator: str = "multistate",
    B: int = 500,
    seed: int = 0,
    grid=None,
    covariates=(),
    allow_drop=False,
) -> CurveWithBands:
    """Pointwise 95% percentile band from B subject-level resamples.

    Replicate r resamples the subjects with
    ``default_rng(SeedSequence(seed).spawn(B)[r]).integers(0, n, size=n)``,
    so results are reproducible and independent of execution order.
    Multistate replicates are evaluated together as count weights; the
    panel estimators refit each resampled panel.  Grid points where more
    than half the replicates are undefined get no band.
    """
    if B < 2:
        raise DataError("B must be >= 2")
    _check_pair(estimand, estimator)
    records, panel = _inputs(cohort, estimator, allow_drop)
    point = _paf_from(estimand, estimator, covariates, records, panel)
    if grid is None:
        grid = np.arange(1.0, math.ceil(cohort.horizon) + 1.0)
    grid = np.asarray(grid, dtype=float)

    streams = np.random.SeedSequence(seed).spawn(B)
    failed = 0
    if panel is None:
        est = _multistate_replicates(records, estimand, streams, grid)
    else:
        n = panel.n_subjects
        est = np.full((B, grid.size), np.nan)
        for r in range(B):
            idx = np.random.default_rng(streams[r]).integers(0, n, size=n)
            try:
                curve = _paf_from(estimand, estimator, covariates, None, panel.take(idx))
            except NumericalError:
                failed += 1  # the replicate contributes an undefined row
                continue
            est[r] = curve(grid)

    defined_frac = np.isfinite(est).mean(axis=0)
    lo, hi = _percentile_band(est)
    bad = defined_frac < 0.5
    lo[bad] = np.nan
    hi[bad] = np.nan
    return CurveWithBands(
        estimate=point.curve,
        lower=StepCurve(grid, lo, initial=np.nan),
        upper=StepCurve(grid, hi, initial=np.nan),
        B=B,
        seed=seed,
        failed=failed,
    )


def stratified_paf(
    cohort: Cohort,
    covariate_name: str,
    estimand: str,
    estimator: str = "multistate",
) -> dict:
    """One PafCurve per level of a categorical baseline covariate."""
    column = covariate_column(cohort.covariates, covariate_name, cohort.ids)
    nan = column != column  # NaN values form one stratum
    levels = sorted(dict.fromkeys(math.nan if v != v else v for v in column.tolist()), key=str)
    strata = {level: nan if level != level else column == level for level in levels}
    return {level: estimate_paf(cohort.subset(m), estimand, estimator) for level, m in strata.items()}
