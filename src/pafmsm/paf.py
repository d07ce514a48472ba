"""Population-attributable-fraction assembly.

Combines the building-block curves into the two time-dependent estimands,
the time-fixed fourfold-table version, preventable-case counts, bootstrap
bands and stratified output.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._bytes import _csv_table
from .cohort import (
    STATUS_DEATH,
    Cohort,
    DailyPanel,
    _horizon_days,
    covariate_column,
    discretize,
    to_transitions,
)
from . import continuous
from .continuous import overall_death_risk
from .curves import StepCurve, union_grid
from .discrete import (
    _buffers,
    _daily_hazard,
    _death_days,
    _death_proportion,
    _ipw_sums,
    _on_or_before,
    _ratio_values,
    empirical_weights,
    fit_pooled_logistic,
    ipw_f01,
    model_weights,
    naive_f01,
)
from .errors import DataError, NumericalError, PositivityError

__all__ = [
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


def _paf_values(pd, q):
    """(pd - q) / pd where both are finite and pd > 0; NaN elsewhere."""
    defined = np.isfinite(pd) & np.isfinite(q) & (pd > _DENOM_TOL)
    return np.where(defined, (pd - q) / np.where(defined, pd, 1.0), np.nan)


def _ratio(overall: StepCurve, subtracted: StepCurve) -> StepCurve:
    grid = union_grid(overall, subtracted)
    values = _paf_values(np.atleast_1d(overall(grid)), np.atleast_1d(subtracted(grid)))
    undef = [c.undefined_from for c in (overall, subtracted) if c.undefined_from is not None]
    return StepCurve(
        grid,
        values,
        initial=np.nan,  # PAF is 0/0 before the first death
        undefined_from=min(undef) if undef else None,
    )


def paf_o(overall: StepCurve, cpf: StepCurve) -> StepCurve:
    """PAF against the observable proportion among the still-unexposed."""
    return _ratio(overall, cpf)


def paf_c(overall: StepCurve, counterfactual: StepCurve) -> StepCurve:
    """PAF against the counterfactual no-exposure death risk."""
    return _ratio(overall, counterfactual)


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
) -> StepCurve:
    """Run one of the four estimand/estimator pipelines end to end.

    covariates selects a pooled logistic exposure model for the IPW
    weights; without them the weights use the empirical daily hazard.
    """
    _check_pair(estimand, estimator)
    return _paf_from(estimand, estimator, covariates, _inputs(cohort, estimator, allow_drop))


def _check_pair(estimand, estimator):
    if estimand not in ESTIMAND_ESTIMATORS:
        raise ValueError(f"unknown estimand {estimand!r}")
    if estimator not in ESTIMAND_ESTIMATORS[estimand]:
        raise ValueError(f"estimator {estimator!r} does not estimate {estimand}")


def _inputs(cohort: Cohort, estimator, allow_drop):
    """What the estimator reads: the cohort (multistate) or its daily panel."""
    if estimator == "multistate":
        return to_transitions(cohort)
    return discretize(cohort, allow_drop=allow_drop)


def _paf_from(estimand, estimator, covariates, data) -> StepCurve:
    """The PAF curve of ``data``, what :func:`_inputs` returns for ``estimator``."""
    if estimator == "multistate":
        overall = overall_death_risk(data)
        other = getattr(continuous, _SUBTRACTED[estimand])(data)
    else:
        overall = _death_proportion(data)
        if estimator == "naive":
            other = naive_f01(data)
        else:
            other = ipw_f01(data, _panel_weights(data, covariates))
    return _ratio(overall, other)


def _panel_weights(panel: DailyPanel, covariates):
    if covariates:
        return model_weights(panel, fit_pooled_logistic(panel, covariates))
    return empirical_weights(panel)


@dataclass(frozen=True)
class CurveWithBands:
    """Point estimate with pointwise percentile confidence bands.

    ``failed`` counts the replicates whose estimator raised a
    :class:`NumericalError`, or a :class:`DataError` that the original
    sample passed (no exposure drawn, say); each contributes an undefined
    row.
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
        return _csv_table(["t", "estimate", "lower", "upper", "defined"],
                          [grid, *cells, defined.astype(float)])


# Multistate and naive replicates are computed in blocks whose exit tables or
# day counts, and whose (replicate x subject) count matrix, hold at most this
# many cells, so that memory grows with n + B * len(grid) and not with B * n.
_BLOCK_CELLS = 1 << 15


def _on_grid(ut, rows, grid):
    """Evaluate (k x T) step-curve rows, 0 before ``ut[0]``, at ``grid``."""
    cols = np.searchsorted(ut, grid, side="right") - 1
    return np.where(cols < 0, 0.0, rows[:, np.maximum(cols, 0)])


def _multistate_replicates(cohort, estimand, words, grid):
    """PAF of every replicate on ``grid``, one row per row of ``words``.

    A replicate is the vector of how often each subject was drawn; each
    curve's exit table weighted by those counts gives exactly the curves
    of the resampled cohorts, a block of replicates per table.
    """
    n = len(cohort)
    names = ("overall_death_risk", _SUBTRACTED[estimand])
    tables = [continuous._exit_table(cohort, continuous._REDUCTIONS[name][0]) for name in names]
    block = max(1, _BLOCK_CELLS // max(4 * max(times.size for times, _ in tables), n))
    est = np.empty((len(words), grid.size))
    for first in range(0, len(words), block):
        counts = _draw_counts(words[first:first + block], n)
        pd, q = (_on_grid(times, continuous._reduction(table(counts), name)[0], grid)
                 for name, (times, table) in zip(names, tables))
        est[first:first + len(counts)] = _paf_values(pd, q)
    return est


def _naive_replicates(panel, words, grid):
    """PAF_o by the naive estimator of every replicate on ``grid``, one row
    per row of ``words``.

    Both of its curves are ratios of day counts: deaths, exposures and
    deaths without exposure on or before each day.  A block of replicates
    counts them with one ``bincount`` each, weighted by the draw counts; the
    sums are whole numbers, so the ratios are bit for bit those of the
    resampled panels.
    """
    n, m = panel.n_subjects, panel.n_days
    death_day = _death_days(panel)
    days_of = (death_day, panel.exposure_day, np.where(panel.exposure_day > m, death_day, m + 1))
    block = max(1, _BLOCK_CELLS // max(m + 2, n))
    days = np.arange(1.0, m + 1.0)
    est = np.empty((len(words), grid.size))
    for first in range(0, len(words), block):
        counts = _draw_counts(words[first:first + block], n)
        cells = (np.arange(len(counts)) * (m + 2))[:, None]
        deaths, exposed, unexposed_deaths = (
            np.cumsum(np.bincount((cells + d).ravel(), weights=counts.ravel(),
                                  minlength=cells.size * (m + 2)).reshape(-1, m + 2), axis=1)[:, 1:-1]
            for d in days_of)
        q = _ratio_values(unexposed_deaths, n - exposed)[0]
        est[first:first + len(counts)] = _paf_values(_on_grid(days, deaths / n, grid),
                                                     _on_grid(days, q, grid))
    return est


def _ipw_replicates(panel, words, grid):
    """PAF_c by IPW with empirical weights of every replicate on ``grid``,
    one row per row of ``words``, and how many replicates have unbounded
    weights (their rows stay NaN).

    A replicate's panel is the drawn subjects in draw order.  They keep
    their weight patterns, so a replicate brings only a new daily hazard,
    from the drawn day counts: its weights are the patterns' rows for that
    hazard, summed in draw order, bit for bit those of a refit of the
    resampled panel.
    """
    n, m = panel.n_subjects, panel.n_days
    exposure, terminal, death_day = panel.exposure_day, panel.terminal_day, _death_days(panel)
    patterns = empirical_weights(panel)._patterns(death_day)
    buffers = _buffers(patterns.step, m)
    days = np.arange(1.0, m + 1.0)
    est = np.full((len(words), grid.size), np.nan)
    failed = 0
    for row, idx in zip(est, _draws(words, n)):
        hazard = _daily_hazard(exposure[idx], terminal[idx], m)[0]
        try:
            total, died = _ipw_sums(patterns.blocks(np.subtract(1.0, hazard)[None, :], idx), *buffers)
        except PositivityError:
            failed += 1  # the replicate keeps its undefined row
            continue
        # the two curves of _paf_from on days 1..m, taken at grid; the IPW
        # ratio is NaN from its undefined_from on, as the weights sum to 0
        # only once everybody is exposed
        q = _ratio_values(died, total)[0]
        pd = _on_or_before(death_day[idx], m)[1:] / n
        row[:] = _paf_values(*_on_grid(days, np.array([pd, q]), grid))
    return est, failed


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _entropy_words(entropy) -> int:
    """How many uint32 words ``SeedSequence`` reads from ``entropy``: an
    integer's 32-bit words (at least one), a sequence its items' words."""
    if isinstance(entropy, str):  # as numpy reads a seed string
        entropy = int(entropy, 16) if entropy.startswith("0x") else int(entropy)
    if isinstance(entropy, (int, np.integer)):
        return max(1, -(-int(entropy).bit_length() // 32))
    return sum(_entropy_words(item) for item in entropy)


def _child_words(seed, B) -> np.ndarray:
    """``[s.generate_state(4, np.uint64) for s in SeedSequence(seed).spawn(B)]``
    as one (B x 4) uint64 array, from the parent's pool in one pass.

    Child r reads the parent's entropy, padded to L >= 4 words, then its
    spawn key r.  So its pool is the parent's with r mixed into each word d:
    mix(pool[d], hashmix(r)), the hash constant advanced past the 16 + 4 (L - 4)
    hashes of the parent's entropy.  Its 4 state words hash that pool with
    the INIT_B/MULT_B constants.  ``SeedSequence(seed)`` checks the seed.
    """
    parent = np.random.SeedSequence(seed)
    steps = 16 + 4 * (max(4, _entropy_words(parent.entropy)) - 4)
    const = _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32
    key = np.arange(B, dtype=np.uint32)
    pool = np.empty((B, 4), dtype=np.uint32)
    for d, word in enumerate(parent.pool.tolist()):
        value, const = _hashed(key, const, _MULT_A)
        pool[:, d] = _shifted(np.uint32(_MIX_L * word & _MASK32) - np.uint32(_MIX_R) * value)
    state = np.empty((B, 8), dtype=np.uint32)
    const = _INIT_B
    for i in range(8):
        state[:, i], const = _hashed(pool[:, i % 4], const, _MULT_B)
    return state.view(np.uint64)


def _hashed(value, const, mult):
    """SeedSequence's hash of the uint32 array ``value`` with the constant
    ``const``, and the constant after it."""
    after = const * mult & _MASK32
    return _shifted((value ^ np.uint32(const)) * np.uint32(after)), after


def _shifted(value):
    """``value ^ (value >> 16)``, the last step of each SeedSequence hash."""
    return value ^ (value >> np.uint32(16))


@functools.cache
def _row_seed():
    """The ``ISeedSequence`` class whose state is a given row of words.
    Built on first use, so that importing the package does not import
    ``numpy.random``."""

    class RowSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for its 4 uint64 words

    return RowSeed


def _draws(words, n):
    """Per row of ``words`` (see ``_child_words``), the subjects its
    replicate draws: the ``default_rng(child).integers(0, n, size=n)`` of
    the child whose state the row is."""
    seed, bits, generator = _row_seed(), np.random.PCG64, np.random.Generator
    for row in words:
        yield generator(bits(seed(row))).integers(0, n, size=n)


def _draw_counts(words, n):
    """(k x n) matrix of how often the replicate of each row of ``words``
    drew each subject, as floats: the weights of the exit tables, one
    ``bincount`` per replicate written into one preallocated matrix."""
    out = np.empty((len(words), n))
    for row, idx in zip(out, _draws(words, n)):
        row[:] = np.bincount(idx, minlength=n)
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
    so results are reproducible and independent of execution order.  The
    B children's states are derived from the parent's pool in one pass
    (``SeedSequence(seed)`` still checks the seed), with the same draws.
    Multistate and naive replicates are evaluated in blocks from their
    draw counts, and IPW replicates without covariates from the weight
    patterns of the original panel; IPW with covariates refits each
    resampled panel, the pooled logistic model on its covariate patterns.
    Grid points where more than half the replicates are undefined get no
    band.  A ``B`` below 2 or a ``grid`` that is not 1-d and strictly
    increasing is a ValueError, raised before any replicate is drawn.
    """
    if B < 2:
        raise ValueError("B must be >= 2")
    _check_pair(estimand, estimator)
    if grid is None:
        grid = np.arange(1.0, _horizon_days(cohort.horizon) + 1.0)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not (np.diff(grid) > 0).all():  # NaN fails the comparison
        raise ValueError("grid must be a 1-d array of strictly increasing times")
    data = _inputs(cohort, estimator, allow_drop)
    point = _paf_from(estimand, estimator, covariates, data)

    words = _child_words(seed, B)
    failed = 0
    if estimator == "multistate":
        est = _multistate_replicates(data, estimand, words, grid)
    elif estimator == "naive":
        est = _naive_replicates(data, words, grid)
    elif not covariates:
        est, failed = _ipw_replicates(data, words, grid)
    else:  # each resampled panel refit, its exposure model included
        est = np.full((B, grid.size), np.nan)
        for row, idx in zip(est, _draws(words, data.n_subjects)):
            try:
                row[:] = _paf_from(estimand, estimator, covariates, data.take(idx))(grid)
            except (NumericalError, DataError):  # the point estimate passed: the draw is at fault
                failed += 1  # the replicate contributes an undefined row

    defined_frac = np.isfinite(est).mean(axis=0)
    lo, hi = _percentile_band(est)
    bad = defined_frac < 0.5
    lo[bad] = np.nan
    hi[bad] = np.nan
    return CurveWithBands(
        estimate=point,
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
    """The PAF curve of each level of a categorical baseline covariate."""
    column = covariate_column(cohort.covariates, covariate_name, cohort.ids)
    nan = column != column  # NaN values form one stratum
    levels = sorted(dict.fromkeys(math.nan if v != v else v for v in column.tolist()), key=str)
    strata = {level: nan if level != level else column == level for level in levels}
    return {level: estimate_paf(cohort.subset(m), estimand, estimator) for level, m in strata.items()}
