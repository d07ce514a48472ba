"""Population-attributable-fraction assembly.

Combines the building-block curves into the two time-dependent estimands,
the time-fixed fourfold-table version, preventable-case counts, bootstrap
bands and stratified output.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from ._bytes import _csv_chunks
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
from .curves import StepCurve, _merged
from .discrete import (
    _buffers,
    _daily_hazard,
    _death_days,
    _death_proportion,
    _death_rows,
    _ipw_sums,
    _naive_rows,
    _pattern_fit,
    _ratio_values,
    empirical_weights,
    fit_pooled_logistic,
    ipw_f01,
    model_weights,
    naive_f01,
)
from .errors import DataError, NumericalError

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
    """(pd - q) / pd where both are finite and pd > 0; NaN elsewhere, where
    nothing is computed."""
    defined = np.isfinite(pd) & np.isfinite(q) & (pd > _DENOM_TOL)
    values = np.subtract(pd, q, out=np.full(defined.shape, np.nan), where=defined)
    return np.divide(values, pd, out=values, where=defined)


def _ratio(overall: StepCurve, subtracted: StepCurve) -> StepCurve:
    """The PAF curve of the two on the union of their jump times, each
    evaluated there by its index from the one merge of ``curves._merged``."""
    grid, (i, j) = _merged((overall, subtracted))
    pd = overall._at(grid, i)
    del i  # each index goes once its curve is read, before the next curve's temporaries
    q = subtracted._at(grid, j)
    del j
    values = _paf_values(pd, q)
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
    data = _inputs(cohort, estimator, allow_drop)
    del cohort  # the panel estimators read the panel alone
    return _paf_from(estimand, estimator, covariates, data)


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

    ``failed`` counts the replicates whose draw leaves the estimator
    undefined where the original sample does not: unbounded weights, or a
    pooled logistic model with no estimate on the drawn subjects (no
    exposure drawn, say).  Each contributes an undefined row.
    """

    estimate: StepCurve
    lower: StepCurve
    upper: StepCurve
    B: int
    seed: int
    failed: int

    def to_csv(self) -> str:
        return "".join(self._csv_chunks())

    def _csv_chunks(self):
        """The text of ``to_csv`` in pieces (``_bytes._csv_chunks``)."""
        grid = self.lower.times
        columns = (np.atleast_1d(self.estimate(grid)), self.lower.values, self.upper.values)
        defined = np.isfinite(columns[1]) & np.isfinite(columns[2])
        # a non-finite cell is written blank, as NaN
        cells = [np.where(np.isfinite(c), c, np.nan) for c in columns]
        return _csv_chunks(["t", "estimate", "lower", "upper", "defined"],
                           [grid, *cells, defined.astype(float)])


# Replicates come in blocks of draws, the (k x n) subjects drawn by k
# replicates (``_draw_block``).  A block's draws, each (k x n) gather of
# them and its exit tables or day counts hold at most this many cells, so
# that memory grows with n + B * len(grid) and not with B * n.
_BLOCK_CELLS = 1 << 15


def _on_grid(ut, rows, grid):
    """Evaluate (... x T) step-curve rows, 0 before ``ut[0]``, at ``grid``."""
    cols = np.searchsorted(ut, grid, side="right") - 1
    return np.where(cols < 0, 0.0, rows[..., np.maximum(cols, 0)])


def _multistate_replicates(cohort, estimand, words, grid):
    """PAF of every replicate on ``grid``, one row per row of ``words``.

    Each curve's exit table counts a block of draws with one ``bincount``
    of the drawn subjects' cells: exactly the integer tables of the
    resampled cohorts, on the original's exit times.
    """
    n = len(cohort)
    names = ("overall_death_risk", _SUBTRACTED[estimand])
    tables = [continuous._exit_table(cohort, continuous._REDUCTIONS[name][0]) for name in names]
    cells = max(4 * max(times.size for times, _ in tables), n)
    est = np.empty((len(words), grid.size))
    for first, draws in _draw_blocks(words, n, cells):
        pd, q = (_on_grid(times, continuous._reduction(table(draws), name)[0], grid)
                 for name, (times, table) in zip(names, tables))
        est[first:first + len(draws)] = _paf_values(pd, q)
    return est


def _naive_replicates(panel, words, grid):
    """PAF_o by the naive estimator of every replicate on ``grid``, one row
    per row of ``words``.

    Both of its curves are ratios of day counts, which a block of
    replicates takes from the estimators' own row functions
    (``_death_rows``, ``_naive_rows``): one offset ``bincount`` each of the
    drawn subjects' days.  The counts are whole numbers, so the ratios are
    bit for bit those of the resampled panels.
    """
    n, m = panel.n_subjects, panel.n_days
    days = np.arange(1.0, m + 1.0)
    est = np.empty((len(words), grid.size))
    for first, draws in _draw_blocks(words, n, max(m + 2, n)):
        curves = np.array([_death_rows(panel, draws), _ratio_values(*_naive_rows(panel, draws))[0]])
        est[first:first + len(draws)] = _paf_values(*_on_grid(days, curves, grid))
    return est


def _ipw_replicates(panel, covariates, words, grid):
    """PAF_c by IPW of every replicate on ``grid``, one row per row of
    ``words``, and how many replicates failed (their rows stay NaN).

    A replicate's panel is the drawn subjects in draw order.  They keep
    their weight patterns, those of the panel's own weight table, so a
    replicate brings only new factors (``_replicate_factors``): its
    weights are the patterns' rows for them, summed in draw order, bit for
    bit those of the resampled panel's own estimate.  Its deaths are
    counted a block of draws at a time (``_death_rows``).
    """
    n, m = panel.n_subjects, panel.n_days
    patterns = _panel_weights(panel, covariates)._patterns(_death_days(panel))
    buffers = _buffers(patterns.step, m)
    factors_of = _replicate_factors(panel, covariates)
    days = np.arange(1.0, m + 1.0)
    est = np.full((len(words), grid.size), np.nan)
    failed = 0
    # a replicate's weight buffers sit beside its block: a quarter of a naive
    # block keeps the peak near that of one replicate, as a draw at a time
    for first, draws in _draw_blocks(words, n, 4 * max(m + 2, n)):
        for row, idx, pd in zip(est[first:], draws, _death_rows(panel, draws)):
            try:
                total, died = _ipw_sums(patterns.blocks(factors_of(idx), idx), *buffers)
            except (NumericalError, DataError):  # the point estimate passed: the draw is at fault
                failed += 1  # the replicate keeps its undefined row
                continue
            # the two curves of _paf_from on days 1..m, taken at grid; the IPW
            # ratio is NaN from its undefined_from on, as the weights sum to 0
            # only once everybody is exposed
            q = _ratio_values(died, total)[0]
            row[:] = _paf_values(*_on_grid(days, np.array([pd, q]), grid))
    return est, failed


def _replicate_factors(panel, covariates):
    """The factors of a replicate's weight rows from its draw ``idx``: 1
    minus the daily hazard of the drawn days, or with covariates those of
    the pooled logistic model fit to the drawn subjects, a row per pattern."""
    if covariates:
        fit, factors, _ = _pattern_fit(panel, covariates)
        return lambda idx: factors(fit(idx).coefficients)
    exposure, terminal, m = panel.exposure_day, panel.terminal_day, panel.n_days
    return lambda idx: np.subtract(1.0, _daily_hazard(exposure[idx], terminal[idx], m)[0])[None, :]


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


def _draw_block(words, n):
    """The (k x n) block of draws of the k rows of ``words``: row r the
    ``default_rng(child).integers(0, n, size=n)`` of the child whose state
    is ``words[r]`` (see ``_child_words``), as ``integers`` draws them.

    For n < 2**32 ``integers`` takes each value by Lemire's method from the
    32-bit halves of the generator's 64-bit outputs, low half first: the
    high word of u * n for the next half u that leaves a low word of at
    least (2**32 - n) % n.  A block takes the first n halves of each row
    at once, from one ``random_raw`` call per row.  A row that rejects one
    of them, rare while n * n is small against 2**32, is drawn by
    ``integers`` itself.
    """
    seed, bits = _row_seed(), np.random.PCG64
    raw = np.empty((len(words), (n + 1) // 2), dtype=np.uint64)
    for row, word in zip(raw, words):
        row[:] = bits(seed(word)).random_raw(row.size)
    halves = raw.astype("<u8", copy=False).view("<u4")[:, :n]  # low half first
    values = np.multiply(halves, np.uint64(n), dtype=np.uint64)
    del raw, halves
    rejected = values.astype(np.uint32) < ((1 << 32) - n) % n  # by the low words
    values >>= np.uint64(32)
    out = values.view(np.int64)
    for r in np.flatnonzero(rejected.any(axis=1)):
        out[r] = np.random.Generator(bits(seed(words[r]))).integers(0, n, size=n)
    return out


def _draw_blocks(words, n, cells):
    """Per block of the rows of ``words``, as many as ``_BLOCK_CELLS`` holds
    at ``cells`` cells a replicate (one at least): the first row's number
    and the block's draws (``_draw_block``)."""
    block = max(1, _BLOCK_CELLS // cells)
    for first in range(0, len(words), block):
        yield first, _draw_block(words[first:first + block], n)


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
    so results are reproducible and independent of execution order; the B
    children's states are derived from the parent's pool in one pass.  No
    replicate builds a resampled cohort or panel: every replicate reads
    blocks of draws (``_draw_block``), multistate ones as integer exit
    tables, naive ones as the estimators' own day counts, IPW ones each
    draw as the original panel's weight patterns (``_ipw_replicates``).
    Grid points where more than half the replicates are undefined get no
    band.
    A ``B`` that is not an integer is a TypeError; a ``B`` below 2, a
    ``grid`` that is not 1-d and strictly increasing, or a bad ``seed`` a
    ValueError, raised before the point estimate.
    """
    B = operator.index(B)
    if B < 2:
        raise ValueError("B must be >= 2")
    _check_pair(estimand, estimator)
    if grid is None:
        grid = np.arange(1.0, _horizon_days(cohort.horizon) + 1.0)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not (np.diff(grid) > 0).all():  # NaN fails the comparison
        raise ValueError("grid must be a 1-d array of strictly increasing times")
    words = _child_words(seed, B)
    data = _inputs(cohort, estimator, allow_drop)
    point = _paf_from(estimand, estimator, covariates, data)
    if estimator == "multistate":
        est, failed = _multistate_replicates(data, estimand, words, grid), 0
    elif estimator == "naive":
        est, failed = _naive_replicates(data, words, grid), 0
    else:
        est, failed = _ipw_replicates(data, covariates, words, grid)
    band = _percentile_band(est)
    band[:, np.isfinite(est).mean(axis=0) < 0.5] = np.nan  # more than half undefined
    lower, upper = (StepCurve(grid, values, initial=np.nan) for values in band)
    return CurveWithBands(point, lower, upper, B=B, seed=seed, failed=failed)


def stratified_paf(
    cohort: Cohort,
    covariate_name: str,
    estimand: str,
    estimator: str = "multistate",
) -> dict:
    """The PAF curve of each level of a categorical baseline covariate."""
    column = covariate_column(cohort, covariate_name)
    nan = column != column  # NaN values form one stratum
    levels = sorted(dict.fromkeys(math.nan if v != v else v for v in column.tolist()), key=str)
    strata = {level: nan if level != level else column == level for level in levels}
    return {level: estimate_paf(cohort.subset(m), estimand, estimator) for level, m in strata.items()}
