"""Randomized invariants over generated cohorts."""

import csv
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pafmsm import (
    Cohort,
    PafmsmError,
    Subject,
    TiePolicy,
    aalen_johansen_extended,
    cif_counterfactual,
    compute_weights,
    cpf_unexposed,
    discretize,
    estimate_paf,
    fit_cox_td,
    ht_cif,
    ipw_f01,
    naive_f01,
    nonparametric_daily_hazard,
    overall_death_risk,
    to_transitions,
)
import pafmsm.cohort
from pafmsm.cohort import STATUS_CENSORED, STATUS_DEATH, _text_column
from pafmsm.continuous import exposure_survival
from pafmsm.discrete import _daily_hazard

from test_cohort import (HEADER, assert_ids_parse_as_reference, parse_both_ways,
                         read_from_bytes, reference_text_column)
from test_continuous import assert_continuous_side_matches_reference
from test_discrete import assert_matches_reference, assert_same, reference_indicators

pytestmark = pytest.mark.slow


@st.composite
def integer_cohorts(draw, min_size=2, max_size=25):
    n = draw(st.integers(min_size, max_size))
    subjects = []
    for i in range(n):
        end = draw(st.integers(1, 12))
        status = draw(st.sampled_from(["death", "discharge"]))
        exposed = end >= 2 and draw(st.booleans())
        inf = draw(st.integers(1, end - 1)) if exposed else None
        subjects.append(Subject(str(i), float(inf) if inf else None, float(end), status))
    return Cohort(tuple(subjects), horizon=14.0)


@st.composite
def fractional_cohorts(draw, max_size=20):
    """Times on a 1/7-day grid, a horizon past the last end, censored rows."""
    n = draw(st.integers(1, max_size))
    subjects = []
    for i in range(n):
        end = draw(st.integers(1, 70))
        status = "death" if i == 0 else draw(st.sampled_from(["death", "discharge", "censored"]))
        inf = draw(st.integers(1, end - 1)) if end >= 2 and draw(st.booleans()) else None
        subjects.append(Subject(str(i), inf / 7 if inf else None, end / 7, status))
    extra = draw(st.sampled_from([0.0, 1 / 7, 0.5, 3.0]))
    return Cohort(tuple(subjects), horizon=max(s.end_time for s in subjects) + extra)


@settings(max_examples=80)
@given(fractional_cohorts())
def test_columnar_panel_equals_the_dense_reference(cohort):
    panel = discretize(cohort, allow_drop=True)
    kept = [s for s in cohort.subjects if s.end_status != "censored"]
    assert panel.dropped == tuple(s.id for s in cohort.subjects if s.end_status == "censored")
    days = np.arange(1, panel.n_days + 1)
    a = np.array([days >= (s.inf_time if s.exposed else np.inf) for s in kept], dtype=np.uint8)
    codes = {"death": 1, "discharge": 2}
    eps = np.array([np.where(days >= s.end_time, codes[s.end_status], 0) for s in kept],
                   dtype=np.uint8)
    assert_same(reference_indicators(panel), (a, eps))
    assert_matches_reference(panel)


@st.composite
def tied_day_cohorts(draw, max_size=20):
    """Whole days 1..6, so exposures tie with other subjects' exits, with
    every subject, none or some exposed, and censored rows."""
    exposure = draw(st.sampled_from(["all", "none", "some"]))
    subjects = []
    for i in range(draw(st.integers(1, max_size))):
        end = draw(st.integers(2 if exposure == "all" else 1, 6))
        status = draw(st.sampled_from(["death", "discharge", "censored"]))
        exposed = exposure == "all" or exposure == "some" and end >= 2 and draw(st.booleans())
        inf = draw(st.integers(1, end - 1)) if exposed else None
        subjects.append(Subject(str(i), float(inf) if inf else None, float(end), status))
    return Cohort(tuple(subjects), horizon=6.0)


@settings(max_examples=80)
@given(st.one_of(fractional_cohorts(), tied_day_cohorts()), st.integers(0, 2**32 - 1))
def test_exit_table_equals_the_per_reduction_sweeps(cohort, seed):
    assert_continuous_side_matches_reference(cohort, seed)


# cells for plain cohort text: mostly valid, with every kind of fault the
# parser reports, padding and characters that some line splitters break on;
# decimals that the byte decoder reads in one word or two, and near misses
# it leaves to ``float`` ("٣" reads as 3.0; a cell over ``_SHORT`` bytes,
# an exponent, 2**53 + 1) or that ``float`` rejects too
_DECIMALS = ["4.", ".5", "007", "0.0", ".", "1.2.3", "1_0", "\u0663", "+1", "-0", "1234567",
             "15.4584950304", "0.300747995124", "123456789012345.", "9007199254740991",
             "9007199254740992", "9007199254740993", "0.000123456789012", "2.4816497366e-05",
             "1.23456789.0123"]
_PLAIN_CELLS = {
    "inf_time": ["", "", "", "1", "2.5", " 3 ", "1e-3", "0", "-1", "nan", "inf", "x", "7",
                 *_DECIMALS],
    "end_time": ["5", "7.25", " 9 ", "12", "3", "", "inf", "0", "-2", "abc", "1e1", *_DECIMALS],
    "end_status": ["death", "discharge", "censored", " death", "\tdischarge\x0b", "dead", "",
                   "Death", "deat", "death "],
    "covariate": ["1", "0.5", "-2", "a", " b ", "", "nan", "\x85c\u2028", "1e400", *_DECIMALS],
}


@st.composite
def plain_cohort_text(draw):
    """Cohort CSV text with no quote and no CR: full-width rows, blank and
    whitespace-only lines, rows one cell short or long, repeated ids."""
    covariates = draw(st.lists(st.sampled_from(["x", " site ", "age"]), max_size=2, unique=True))
    lines = [",".join(["id", "inf_time", "end_time", "end_status", *covariates])]
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "empty cells", "short", "long"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", " \x0c "])))
            continue
        sid = draw(st.sampled_from([f"s{i}", f" s{i} ", "", "s0"]))
        cells = [sid] + [draw(st.sampled_from(_PLAIN_CELLS[name]))
                         for name in ("inf_time", "end_time", "end_status")]
        cells += [draw(st.sampled_from(_PLAIN_CELLS["covariate"])) for _ in covariates]
        if kind == "empty cells":
            cells = [draw(st.sampled_from(["", " "])) for _ in cells]
        cells = cells[:-1] if kind == "short" else cells + ["1"] if kind == "long" else cells
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=300)
@given(plain_cohort_text(), st.sampled_from(["reject", "shift"]), st.sampled_from([None, 40]))
# multi-byte UTF-8 cells, on the split path
@example(HEADER + "é,,5,death\nB😀,2,7,discharge\n", "shift", None)
@example(HEADER + "A,,5,death,é\n", "shift", None)
@example(HEADER + "A\udcff,,5,death\n", "shift", None)  # a surrogate, as surrogateescape reads
# ragged rows whose separators still add up to full-width rows
@example("a,b\n1,2,3\n4\n", "shift", None)
@example(HEADER + "A,,5,death,1\nB,,7\n", "shift", None)
# no final newline, the header alone, a lone newline
@example(HEADER + "A,,5,death", "reject", None)
@example(HEADER, "shift", None)
@example(HEADER[:-1], "shift", None)
@example("\n", "shift", None)
# a csv field limit of 40: lines of 38 and 41 characters, a 41-character
# cell, and 25 characters that take 41 bytes
@example(HEADER + "A" * 29 + ",,5,death\n", "shift", 40)
@example(HEADER + "A" * 32 + ",,5,death\n", "shift", 40)
@example(HEADER + "A" * 41 + ",,5,death\n", "shift", 40)
@example(HEADER + "é" * 16 + ",,5,death\n", "shift", 40)
def test_split_and_reader_parse_paths_agree_on_plain_text(text, policy, field_limit):
    split_and_reader_parse_paths_agree(text, policy, field_limit)


def split_and_reader_parse_paths_agree(text, policy, field_limit):
    """Both parse paths give the same columns or error, on LF and on CRLF
    text, and the split path takes exactly the plain texts; returns them."""
    tie_policy = TiePolicy.parse(policy)
    default = csv.field_size_limit()
    csv.field_size_limit(field_limit or default)
    try:
        either = parse_both_ways(text, tie_policy=tie_policy)
        # the same rows with CRLF endings take the reader path to the same result
        assert parse_both_ways(text.replace("\n", "\r\n"), tie_policy=tie_policy) == either
        # the split path takes exactly the lines of one width that fit the
        # field limit in UTF-8 bytes
        lines = text.split("\n")[: -1 if text.endswith("\n") else None]
        longest = max(len(line.encode("utf-8", "surrogatepass")) for line in lines)
        plain = len({line.count(",") for line in lines}) == 1 and longest <= csv.field_size_limit()
        # no window of a text whose header raises is read
        header_raises = either[0] == "ParseError" and either[2] == 1
        assert read_from_bytes(text) == (plain and not header_raises)
    finally:
        csv.field_size_limit(default)
    return either


@settings(max_examples=150)
@given(plain_cohort_text(), st.sampled_from(["reject", "shift"]), st.sampled_from([None, 40]),
       st.integers(1, 40))
@example(HEADER + "é,,5,death\nB😀,2,7,discharge\n", "shift", None, 3)
@example(HEADER + "A,,5,death,1\nB,,7\n", "shift", None, 1)
@example(HEADER + "A,,5,death\n\n", "reject", None, 2)
@example(HEADER + "A" * 41 + ",,5,death\n", "shift", 40, 1)
def test_plain_text_parses_the_same_in_chunks_of_any_size(text, policy, field_limit, chunk):
    whole = split_and_reader_parse_paths_agree(text, policy, field_limit)
    with mock.patch.object(pafmsm.cohort, "_PARSE_CHUNK", chunk):
        assert split_and_reader_parse_paths_agree(text, policy, field_limit) == whole


# id characters: plain ASCII, which the reader takes as id words; padding
# and characters of several bytes, which take ids to the strings of
# str.strip; "\x85" and "\u3000" strip, "é" and "😀" do not
_PLAIN_ID_CHARS = "ab9Z_-."
_ID_CHARS = _PLAIN_ID_CHARS + " \t\x0c\x85é\u3000😀"


@st.composite
def id_columns(draw):
    """1 to 24 id cells of 1 to 24 UTF-8 bytes: distinct, or drawn from a
    few so that ids repeat, in a window or across windows."""
    chars = draw(st.sampled_from([_PLAIN_ID_CHARS, _ID_CHARS]))
    cell = st.text(st.sampled_from(chars), min_size=1, max_size=24).filter(
        lambda sid: len(sid.encode()) <= 24)
    if draw(st.booleans()):
        return draw(st.lists(cell, min_size=1, max_size=24, unique=True))
    pool = draw(st.lists(cell, min_size=1, max_size=6, unique=True))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))


@settings(max_examples=200)
@given(id_columns(), st.sampled_from([sys.maxsize, 40, 100]), st.integers(0, 3))
@example(["A", "B", "C", "A"], 40, 0)  # a repeat in a later window
@example(["x" * 9, "y" + "x" * 8, "x" * 9], 100, 2)  # ids that differ before their last 8 bytes
@example(["A", " A"], sys.maxsize, 0)  # the same id once stripped
@example(["0123456789abcdefg", "0123456789abcdefg"], sys.maxsize, 1)  # 17 bytes
def test_both_parse_paths_read_the_same_ids_and_repeats(ids, chunk, tie_every):
    assert_ids_parse_as_reference(ids, chunk, tie_every)


@settings(max_examples=60)
@given(integer_cohorts())
def test_naive_always_equals_cpf(cohort):
    panel = discretize(cohort)
    days = np.arange(1.0, panel.n_days + 1.0)
    a = np.atleast_1d(naive_f01(panel)(days))
    b = np.atleast_1d(cpf_unexposed(to_transitions(cohort))(days))
    assert np.array_equal(np.isnan(a), np.isnan(b))
    mask = ~np.isnan(a)
    if mask.any():
        assert np.max(np.abs(a[mask] - b[mask])) < 1e-12


@settings(max_examples=60)
@given(integer_cohorts())
def test_ht_always_equals_counterfactual(cohort):
    records = to_transitions(cohort)
    days = np.arange(1.0, 15.0)
    a = np.atleast_1d(ht_cif(records)(days))
    b = np.atleast_1d(cif_counterfactual(records)(days))
    assert np.max(np.abs(a - b)) < 1e-12


@settings(max_examples=80)
@given(st.one_of(integer_cohorts(), fractional_cohorts(), tied_day_cohorts()))
@example(Cohort((Subject("0", 2.0, 3.0, "discharge"), Subject("1", None, 1.0, "death")), horizon=3.0))
@example(Cohort((Subject("0", 1.0, 3.0, "death"), Subject("1", None, 1.0, "death")), horizon=3.0))
def test_exposure_survival_is_positive_before_every_unexposed_death(cohort):
    # whoever dies unexposed at t stays in every Kaplan-Meier risk set
    # before t, so no factor there is 0: S01(t-) > 0 and ht_cif's inverse
    # weights are finite even where S01 later reaches 0
    s01 = exposure_survival(cohort)
    deaths = cohort.end[~cohort.exposed & (cohort.status == STATUS_DEATH)]
    just_before = np.r_[s01.initial, s01.values][np.searchsorted(s01.times, deaths, side="left")]
    assert np.all(just_before > 0.0)
    assert np.all(np.isfinite(ht_cif(cohort).values))


@settings(max_examples=60)
@given(integer_cohorts())
@example(Cohort((Subject("0", 2.0, 3.0, "discharge"),), horizon=3.0))
@example(Cohort((Subject("0", 2.0, 3.0, "discharge"), Subject("1", None, 1.0, "death")), horizon=3.0))
def test_ipw_equals_counterfactual_while_weights_are_bounded(cohort):
    # the identity needs a never-exhausted unexposed risk set.  From the
    # first day whose exposure hazard is 1 nobody is left unexposed: the
    # counterfactual CIF is cut there (truncated_from), and before it the
    # identity holds (the days ``paf-msm check`` compares)
    panel = discretize(cohort)
    hazard, _ = _daily_hazard(panel.exposure_day, panel.terminal_day, panel.n_days)
    certain = np.flatnonzero(hazard == 1.0) + 1.0
    counterfactual = cif_counterfactual(cohort)
    assert counterfactual.truncated_from == (certain[0] if certain.size else None)
    weights = compute_weights(panel, nonparametric_daily_hazard(panel))
    days = np.arange(1.0, panel.n_days + 1.0)
    days = days[days < certain[0]] if certain.size else days
    a = np.atleast_1d(ipw_f01(panel, weights)(days))
    b = np.atleast_1d(counterfactual(days))
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert np.all(np.abs(a - b)[~np.isnan(a)] < 1e-12)


@settings(max_examples=60)
@given(integer_cohorts())
def test_occupation_probabilities_are_a_distribution(cohort):
    occ = aalen_johansen_extended(to_transitions(cohort))
    for curve in occ.as_tuple():
        assert np.all(curve.values >= -1e-12)
        assert np.all(curve.values <= 1.0 + 1e-12)
    sums = sum(c.values for c in occ.as_tuple())
    assert np.max(np.abs(sums - 1.0)) < 1e-12


@settings(max_examples=60)
@given(integer_cohorts())
def test_death_risk_is_monotone_and_paf_bounded(cohort):
    curve = overall_death_risk(to_transitions(cohort))
    assert np.all(np.diff(curve.values) >= -1e-15)
    for estimand in ("paf_o", "paf_c"):
        paf = estimate_paf(cohort, estimand)
        vals = paf.values[~np.isnan(paf.values)]
        if vals.size:
            assert np.max(vals) <= 1.0 + 1e-12


def _outcome(estimate, cohort):
    """What ``estimate`` gives on ``cohort``: its result, or the type of
    the package error it raised (a message may name a subject)."""
    try:
        return estimate(cohort)
    except PafmsmError as exc:
        return type(exc)


def _bits(curve):
    return (curve.times.tobytes(), curve.values.tobytes(),
            repr((curve.initial, curve.undefined_from, curve.truncated_from)))


# estimates that neither the order of the subjects nor a second copy of
# each subject may move by a single bit: every sum they take is of counts
_EXACT = {
    "multistate paf_o": lambda c: _bits(estimate_paf(c, "paf_o")),
    "multistate paf_c": lambda c: _bits(estimate_paf(c, "paf_c")),
    "naive paf_o": lambda c: _bits(estimate_paf(c, "paf_o", "naive", allow_drop=True)),
    "p00": lambda c: _bits(aalen_johansen_extended(c).p00),
    "p01": lambda c: _bits(aalen_johansen_extended(c).p01),
}


def _rearranged(cohort, seed):
    """The cohort with its subjects in a random order, and the cohort
    stacked twice, the second copy under new ids."""
    order = np.random.default_rng(seed).permutation(len(cohort))
    stacked = Cohort.from_columns(
        np.concatenate((cohort.ids, ["copy " + i for i in cohort.ids])),
        *(np.tile(column, 2) for column in (cohort.inf, cohort.end, cohort.status)),
        horizon=cohort.horizon)
    return cohort.subset(order), stacked


_COHORTS = st.one_of(integer_cohorts(), fractional_cohorts(), tied_day_cohorts())


@settings(max_examples=100)
@given(_COHORTS, st.integers(0, 2**32 - 1))
def test_estimates_ignore_the_order_and_the_multiplicity_of_the_subjects(cohort, seed):
    permuted, stacked = _rearranged(cohort, seed)
    # only the order: the Newton solver stops at an absolute score bound,
    # which the doubled score of a stacked cohort may cross a step later
    cox = [_outcome(lambda c: fit_cox_td(c, "death").coefficients.tobytes(), c)
           for c in (permuted, cohort)]
    assert cox[0] == cox[1]
    for other in (permuted, stacked):
        for name, estimate in _EXACT.items():
            assert _outcome(estimate, other) == _outcome(estimate, cohort), name
        # IPW adds float weights in subject order
        got, want = (_outcome(lambda c: estimate_paf(c, "paf_c", "ipw", allow_drop=True), c)
                     for c in (other, cohort))
        if isinstance(want, type):
            assert got is want
            continue
        assert got.times.tobytes() == want.times.tobytes()
        assert np.array_equal(np.isnan(got.values), np.isnan(want.values))
        assert np.all(np.abs(got.values - want.values)[~np.isnan(want.values)] <= 1e-12)


@settings(max_examples=100)
@given(_COHORTS)
def test_without_exposure_both_pafs_are_exactly_zero(cohort):
    unexposed = Cohort.from_columns(cohort.ids, np.full(len(cohort), np.nan), cohort.end,
                                    cohort.status, horizon=cohort.horizon)
    died = bool((cohort.status == STATUS_DEATH).any())
    pipelines = [("paf_o", "multistate"), ("paf_c", "multistate")]
    if not (cohort.status == STATUS_CENSORED).all():  # the panel drops censored subjects
        pipelines += [("paf_o", "naive"), ("paf_c", "ipw")]
    for estimand, estimator in pipelines:
        values = estimate_paf(unexposed, estimand, estimator, allow_drop=True).values
        defined = values[~np.isnan(values)]
        assert defined.tolist() == [0.0] * defined.size, (estimand, estimator)
        assert (defined.size > 0) == died, (estimand, estimator)


def _doubled_bits(curve):
    """``_bits`` of the curve with its times, ``undefined_from`` and
    ``truncated_from`` doubled."""
    cuts = (None if t is None else 2 * t for t in (curve.undefined_from, curve.truncated_from))
    return ((2 * curve.times).tobytes(), curve.values.tobytes(), repr((curve.initial, *cuts)))


# estimates whose values depend on the order of the times alone
_CURVES = {
    "overall_death_risk": overall_death_risk,
    "cpf_unexposed": cpf_unexposed,
    "cif_counterfactual": cif_counterfactual,
    "ht_cif": ht_cif,
    "exposure_survival": exposure_survival,
    "multistate paf_o": lambda c: estimate_paf(c, "paf_o"),
    "multistate paf_c": lambda c: estimate_paf(c, "paf_c"),
    **{f"p0{j}": lambda c, j=j: aalen_johansen_extended(c).as_tuple()[j] for j in range(6)},
}


@settings(max_examples=100)
@given(st.one_of(integer_cohorts(), fractional_cohorts()))
def test_doubling_every_time_doubles_the_times_of_the_estimates_and_nothing_else(cohort):
    doubled = Cohort.from_columns(cohort.ids, 2 * cohort.inf, 2 * cohort.end, cohort.status,
                                  horizon=2 * cohort.horizon)
    for name, estimate in _CURVES.items():
        got = _outcome(lambda c: _bits(estimate(c)), doubled)
        assert got == _outcome(lambda c: _doubled_bits(estimate(c)), cohort), name
    x = {"x": np.arange(len(cohort)) % 3.0}

    def cox(c, terms):
        c = Cohort.from_columns(c.ids, c.inf, c.end, c.status, x, horizon=c.horizon)
        fit = fit_cox_td(c, "death", terms)
        return fit.coefficients.tobytes(), fit.standard_errors.tobytes()

    # the exposure-only fit, and with a covariate the interval engine
    for terms in ((), ("x",)):
        fits = [_outcome(lambda c: cox(c, terms), c) for c in (doubled, cohort)]
        assert fits[0] == fits[1], terms


# whitespace that str.strip and float strip (and \x1c, which only str.strip
# strips), and cell cores: numbers, overflow, underscores, non-ASCII digits, text
_PADDING = ["", "", " ", "\t", "\x0b", "\x85", "\xa0", "\u2003", "\u3000", "\x1c"]
_NUMBERS = ["1", "-0", "2.5", "1e-3", "nan", "-nan", "inf", "-inf", "1e400", "1_0", "\u0663"]
_CORES = _NUMBERS + ["", "x", "abc", "1 2", "1__0", "\xe9", "0x1"]


@st.composite
def padded_cell(draw):
    return draw(st.sampled_from(_PADDING)) + draw(st.sampled_from(_CORES)) + draw(
        st.sampled_from(_PADDING))


@settings(max_examples=400)
@given(st.one_of(
    st.lists(st.sampled_from(_NUMBERS), max_size=8),  # read in one pass
    st.lists(st.sampled_from(_NUMBERS + [""]), max_size=8),  # one pass past exact "" cells
    st.lists(padded_cell(), max_size=8),  # mostly the strip fallback
))
def test_text_column_agrees_with_the_strip_then_float_reference(cells):
    text, values, blank, number = _text_column(cells)
    ref_text, ref_values, ref_blank, ref_number = reference_text_column(cells)
    assert values.tobytes() == ref_values.tobytes()
    assert blank.tolist() == ref_blank.tolist()
    assert number.tolist() == ref_number.tolist()
    # messages quote a cell stripped; a mixed covariate keeps text cells as read
    assert [t.strip() for t in text] == ref_text
    assert [t for t, ok in zip(text, number.tolist()) if not ok] == [
        t for t, ok in zip(ref_text, ref_number.tolist()) if not ok]
