"""Randomized invariants over generated cohorts."""

import csv

import numpy as np
from hypothesis import example, given, settings, strategies as st

from pafmsm import (
    Cohort,
    Subject,
    TiePolicy,
    aalen_johansen_extended,
    cif_counterfactual,
    compute_weights,
    cpf_unexposed,
    discretize,
    estimate_paf,
    ht_cif,
    ipw_f01,
    naive_f01,
    nonparametric_daily_hazard,
    overall_death_risk,
    to_transitions,
)
from pafmsm.cohort import _split_rows, _text_column
from pafmsm.continuous import exposure_survival

from test_cohort import HEADER, parse_both_ways, reference_text_column
from test_continuous import assert_continuous_side_matches_reference
from test_discrete import assert_matches_reference, assert_same, reference_indicators


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
# parser reports, padding and characters that some line splitters break on
_PLAIN_CELLS = {
    "inf_time": ["", "", "", "1", "2.5", " 3 ", "1e-3", "0", "-1", "nan", "inf", "x", "7"],
    "end_time": ["5", "7.25", " 9 ", "12", "3", "", "inf", "0", "-2", "abc", "1e1"],
    "end_status": ["death", "discharge", "censored", " death", "\tdischarge\x0b", "dead", ""],
    "covariate": ["1", "0.5", "-2", "a", " b ", "", "nan", "\x85c\u2028", "1e400"],
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
        assert (_split_rows(text) is not None) == plain
    finally:
        csv.field_size_limit(default)


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


@settings(max_examples=60)
@given(integer_cohorts())
def test_ipw_equals_counterfactual_while_weights_are_bounded(cohort):
    # the identity needs a never-exhausted unexposed risk set; cohorts
    # where exposures empty it are the documented divergence case
    records = to_transitions(cohort)
    if np.min(exposure_survival(records).values) <= 0.0:
        return
    panel = discretize(cohort)
    weights = compute_weights(panel, nonparametric_daily_hazard(panel))
    days = np.arange(1.0, panel.n_days + 1.0)
    a = np.atleast_1d(ipw_f01(panel, weights)(days))
    b = np.atleast_1d(cif_counterfactual(records)(days))
    assert np.nanmax(np.abs(a - b)) < 1e-12


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
