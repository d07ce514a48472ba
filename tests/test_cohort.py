import io
import math
from unittest import mock

import numpy as np
import pytest

import pafmsm.cohort
from pafmsm import (
    CENSORED,
    Cohort,
    DataError,
    ParseError,
    Subject,
    TiePolicy,
    TransitionRecords,
    cohort_to_csv,
    discretize,
    parse_cohort,
    summarize,
    to_transitions,
)
from pafmsm.cohort import _ABSENT, TransitionRow
from pafmsm.curves import _CSV_CHUNK

from test_discrete import reference_indicators

CSV = """id,inf_time,end_time,end_status
A,,5,death
B,2,7,discharge
C,,3,censored
"""


def test_parse_basic_cohort():
    cohort = parse_cohort(CSV)
    assert len(cohort) == 3
    b = cohort.subjects[1]
    assert b.inf_time == 2.0 and b.end_time == 7.0 and b.end_status == "discharge"


def test_parse_accepts_path(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text(CSV)
    assert len(parse_cohort(p)) == 3


NOT_UTF8 = b"id,inf_time,end_time,end_status\nA,,5,d\xe9c\n"


@pytest.mark.parametrize("kind", ["bytes", "path", "str path", "binary file", "text file"])
def test_input_that_is_not_utf8_raises_parse_error(tmp_path, kind):
    path = tmp_path / "latin1.csv"
    path.write_bytes(NOT_UTF8)
    codec = "'utf-8' codec can't decode byte 0xe9 in position "
    with pytest.raises(ParseError) as info:
        if kind == "bytes":
            parse_cohort(NOT_UTF8)
        elif kind.endswith("path"):
            parse_cohort(path if kind == "path" else str(path))
        elif kind == "binary file":
            with open(path, "rb") as fh:
                parse_cohort(fh)
        else:
            with open(path, encoding="utf-8") as fh:
                parse_cohort(fh)
    what = f"input file {path}" if kind.endswith("path") else "input"
    assert str(info.value).startswith(f"{what} is not UTF-8 text: {codec}")
    assert info.value.row is None


def test_round_trip_through_csv():
    cohort = parse_cohort(CSV)
    again = parse_cohort(cohort_to_csv(cohort))
    assert again.subjects == cohort.subjects


def test_covariates_are_parsed():
    text = "id,inf_time,end_time,end_status,sex\nA,,5,death,f\n"
    cohort = parse_cohort(text)
    assert cohort.subjects[0].covariates == {"sex": "f"}


def test_missing_covariate_cell_names_the_row():
    text = "id,inf_time,end_time,end_status,sex\nA,,5,death,f\nB,,4,death,\n"
    with pytest.raises(ParseError, match="row 3"):
        parse_cohort(text)


def test_inf_after_end_rejected_with_row():
    text = "id,inf_time,end_time,end_status\nA,9,5,death\n"
    with pytest.raises(ParseError, match="row 2"):
        parse_cohort(text)


def test_duplicate_ids_rejected():
    text = "id,inf_time,end_time,end_status\nA,,5,death\nA,,4,death\n"
    with pytest.raises(DataError, match="duplicate"):
        parse_cohort(text)


def test_tie_policy_shift_moves_the_exposure():
    text = "id,inf_time,end_time,end_status\nA,5,5,death\n"
    cohort = parse_cohort(text, tie_policy=TiePolicy.shift(0.25))
    assert cohort.subjects[0].inf_time == 4.75
    assert len(cohort.diagnostics) == 1


def test_tie_policy_reject_raises():
    text = "id,inf_time,end_time,end_status\nA,5,5,death\n"
    with pytest.raises(ParseError):
        parse_cohort(text, tie_policy=TiePolicy.reject())


def test_tie_policy_parse():
    assert TiePolicy.parse("reject").kind == "reject"
    assert TiePolicy.parse("shift:0.5").eps == 0.5
    with pytest.raises(ValueError):
        TiePolicy.parse("nearest")
    with pytest.raises(ValueError, match="shift epsilon"):
        TiePolicy.shift(float("inf"))


@pytest.mark.parametrize("text", ["shift:inf", "shift:1e400", "shift:nan", "shift:abc", "shift:0",
                                  "shift:-1"])
def test_tie_policy_shift_needs_a_finite_positive_epsilon(text):
    with pytest.raises(ValueError, match="shift epsilon must be a finite number > 0"):
        TiePolicy.parse(text)


def test_summary_counts():
    s = summarize(parse_cohort(CSV))
    assert s.n == 3
    assert s.exposed == 1
    assert s.unexposed_deaths == 1
    assert s.exposed_discharges == 1
    assert s.unexposed_censored == 1
    # exposed subject contributes 2 pre-exposure days, 5 post
    assert s.person_days == 5 + 7 + 3


def test_transitions_shape():
    records = to_transitions(parse_cohort(CSV))
    by_id = {}
    for r in records.rows:
        by_id.setdefault(r.subject_id, []).append(r)
    assert [(r.from_state, r.to_state) for r in by_id["A"]] == [(0, 3)]
    assert [(r.from_state, r.to_state) for r in by_id["B"]] == [(0, 1), (1, 4)]
    assert [(r.from_state, r.to_state) for r in by_id["C"]] == [(0, CENSORED)]


def reference_subjects_from_transitions(records):
    """The inverse of ``to_transitions``: one ``Subject`` per chain of
    transition rows, with the covariates a subject has in the columns."""
    chains = {}
    for r in records.rows:
        chains.setdefault(r.subject_id, []).append(r)
    outcome = {CENSORED: "censored", 2: "discharge", 3: "death", 4: "discharge", 5: "death"}
    columns = {name: column.tolist() for name, column in records.covariates.items()}
    return [
        Subject(sid, rows[0].t_stop if len(rows) == 2 else None, rows[-1].t_stop,
                outcome[rows[-1].to_state],
                {name: column[k] for name, column in columns.items() if column[k] is not _ABSENT})
        for k, (sid, rows) in enumerate(chains.items())
    ]


def test_subjects_round_trip_through_transitions():
    uneven = Cohort((Subject("A", None, 5.0, "death", {"x": 1.0}), Subject("B", 2.0, 7.0, "censored"),
                     Subject("C", None, 3.0, "discharge", {"x": 2, "site": "n"})))
    for cohort in (parse_cohort(CSV), uneven):
        back = reference_subjects_from_transitions(to_transitions(cohort))
        assert tuple(back) == cohort.subjects


def test_discretize_rejects_censored_by_default():
    with pytest.raises(DataError, match="censored"):
        discretize(parse_cohort(CSV))
    panel = discretize(parse_cohort(CSV), allow_drop=True)
    assert panel.dropped == ("C",)
    assert panel.n_subjects == 2


def test_discretize_indicator_paths():
    cohort = Cohort((Subject("A", 2.0, 4.0, "death"),), horizon=5)
    panel = discretize(cohort)
    a, eps = reference_indicators(panel)
    np.testing.assert_array_equal(a[0], [0, 1, 1, 1, 1])
    np.testing.assert_array_equal(eps[0], [0, 0, 0, 1, 1])
    assert panel.exposure_day[0] == 2
    assert panel.terminal_day[0] == 4


def test_horizon_must_cover_the_data():
    with pytest.raises(DataError, match="horizon"):
        Cohort((Subject("A", None, 5.0, "death"),), horizon=3)


def test_subject_validation():
    with pytest.raises(DataError):
        Subject("A", 0.0, 5.0, "death").validate()
    with pytest.raises(DataError):
        Subject("A", None, 5.0, "vanished").validate()


def test_subject_validation_rejects_non_finite_times():
    with pytest.raises(DataError, match="finite"):
        Subject("A", None, float("inf"), "death").validate()
    with pytest.raises(DataError):
        Subject("A", float("nan"), 5.0, "death").validate()


@pytest.mark.parametrize("row", ["B,,inf,death", "B,nan,5,death", "B,-inf,5,death"])
def test_parse_rejects_non_finite_times_with_row(row):
    text = f"id,inf_time,end_time,end_status\nA,,5,death\n{row}\n"
    with pytest.raises(ParseError, match="row 3: non-finite"):
        parse_cohort(text)


def test_parse_reads_a_path_that_contains_a_comma(tmp_path):
    p = tmp_path / "a,b.csv"
    p.write_text(CSV)
    assert len(parse_cohort(str(p))) == 3


def test_parse_reports_the_first_bad_row_and_its_first_fault():
    text = (
        "id,inf_time,end_time,end_status,sex\n"
        "A,,5,death,f\n"
        "B,x,-1,gone,\n"  # every cell of this row is wrong
        "C,,,death,\n"
    )
    with pytest.raises(ParseError, match="^row 3: bad inf_time 'x'$"):
        parse_cohort(text)
    with pytest.raises(ParseError, match="^row 3: expected 4 fields, got 3$"):
        parse_cohort("id,inf_time,end_time,end_status\nA,,5,death\nB,,4\n")


def test_parse_skips_blank_rows_but_counts_them():
    text = "id,inf_time,end_time,end_status\n\n , \nA,,5,death\n,,,\n"
    assert len(parse_cohort(text)) == 1
    with pytest.raises(ParseError, match="row 4: inf_time > end_time"):
        parse_cohort("id,inf_time,end_time,end_status\n\n,,,\nA,9,5,death\n")


def test_parse_builds_columns():
    cohort = parse_cohort(
        "id,inf_time,end_time,end_status,age\nA,,5,death,70\nB,2,7,discharge,old\nC,,3,censored,3\n"
    )
    assert list(cohort.ids) == ["A", "B", "C"]
    np.testing.assert_array_equal(cohort.inf, [np.nan, 2.0, np.nan])
    np.testing.assert_array_equal(cohort.end, [5.0, 7.0, 3.0])
    np.testing.assert_array_equal(cohort.status, [1, 2, 0])
    assert [s.covariates for s in cohort.subjects] == [{"age": 70.0}, {"age": "old"}, {"age": 3.0}]
    with pytest.raises(ValueError):
        cohort.end[0] = 1.0  # the columns are read-only


def test_transitions_share_the_cohort_columns():
    cohort = parse_cohort(CSV)
    ids, inf, end, status = to_transitions(cohort).subject_arrays()
    assert inf is cohort.inf and end is cohort.end and status is cohort.status


def test_explicit_transition_rows_are_validated():
    rows = to_transitions(parse_cohort(CSV)).rows
    again = TransitionRecords(rows)
    for got, want in zip(again.subject_arrays(), to_transitions(parse_cohort(CSV)).subject_arrays()):
        np.testing.assert_array_equal(got, want)
    with pytest.raises(DataError, match="chain"):
        TransitionRecords([rows[1], TransitionRow("B", 1, 4, 3.0, 7.0)])
    with pytest.raises(DataError, match="t_start"):
        TransitionRecords([TransitionRow("A", 0, 3, 5.0, 5.0)])
    for t_start, t_stop in ((0.0, math.inf), (0.0, math.nan), (-math.inf, 3.0)):
        with pytest.raises(DataError, match="subject A: t_start and t_stop must be finite"):
            TransitionRecords([TransitionRow("A", 0, 3, t_start, t_stop)])
    with pytest.raises(DataError, match="subject A: t_start and t_stop must be finite"):
        TransitionRecords([TransitionRow("A", 0, 1, 0.0, 2.0), TransitionRow("A", 1, 5, 2.0, math.inf)])
    for t_start in (1.0, -1.0):  # would be read as entry at time 0
        with pytest.raises(DataError, match="subject A: a state-0 row must start at time 0"):
            TransitionRecords([TransitionRow("A", 0, 3, t_start, 5.0)])


def test_lone_exposure_row_is_rejected():
    # without a 1->... row the subject would read as discharged and never exposed
    with pytest.raises(DataError, match="subject A: exposure row 0->1 has no follow-up row"):
        TransitionRecords([TransitionRow("A", 0, 1, 0.0, 3.0)])


def test_subjects_view_round_trips_uneven_covariates():
    subjects = (Subject("A", None, 5.0, "death", {"x": 1.0}), Subject("B", 2.0, 7.0, "censored"),
                Subject("C", None, 3.0, "discharge", {"x": 2, "site": "n"}))
    cohort = Cohort(subjects)
    rebuilt = Cohort.from_columns(cohort.ids, cohort.inf, cohort.end, cohort.status,
                                  cohort.covariates)
    assert rebuilt.subjects == subjects
    assert cohort_to_csv(rebuilt).splitlines()[1:] == ["A,,5,death,1.0,", "B,2,7,censored,,",
                                                       "C,,3,discharge,2,n"]
    with pytest.raises(DataError, match="subject B: inf_time"):
        Cohort.from_columns(["A", "B"], [np.nan, 9.0], [5.0, 7.0], [1, 1])
    with pytest.raises(DataError, match="duplicate subject id 'A'"):
        Cohort.from_columns(["A", "A"], [np.nan, np.nan], [5.0, 7.0], [1, 1])


def test_discretize_matches_a_per_subject_fill():
    from conftest import integer_cohort

    cohort = integer_cohort(5, n=300, censored=True)
    panel = discretize(cohort, allow_drop=True)
    kept = [s for s in cohort.subjects if s.end_status != "censored"]
    days = np.arange(1, panel.n_days + 1)
    a = np.array([days >= (s.inf_time if s.exposed else np.inf) for s in kept], dtype=np.uint8)
    codes = {"death": 1, "discharge": 2}
    eps = np.array([np.where(days >= s.end_time, codes[s.end_status], 0) for s in kept], dtype=np.uint8)
    np.testing.assert_array_equal(reference_indicators(panel), (a, eps))
    assert panel.ids == tuple(s.id for s in kept)


def test_discretize_rejects_an_empty_cohort():
    with pytest.raises(DataError, match="empty cohort"):
        discretize(parse_cohort("id,inf_time,end_time,end_status\n"))


def test_round_trip_through_csv_quotes_cells_as_csv_does():
    text = ('id,inf_time,end_time,end_status,"note, free",site\n'
            '"a,b",,3,death,"said ""no""",x\n'
            'c,1,4,discharge,"two\nlines",y\n')
    cohort = parse_cohort(text)
    assert list(cohort.ids) == ["a,b", "c"]
    written = cohort_to_csv(cohort)
    assert written == text
    again = parse_cohort(written)
    assert again.subjects == cohort.subjects
    assert again.covariate_names() == ["note, free", "site"]


def test_cohort_csv_writes_times_as_12_digit_floats_and_never_exposed_blank():
    rng = np.random.default_rng(3)
    n = 2 * _CSV_CHUNK + 5
    end = 10.0 ** rng.uniform(-300, 300, n)
    end[:5] = [5e-324, 1e308, 1 / 3, 123456789012345.0, 1e16]
    inf = np.where(rng.random(n) < 0.5, end * rng.uniform(0.01, 0.99, n), np.nan)
    inf[:2] = np.nan
    status = rng.integers(0, 3, n)
    cohort = Cohort.from_columns([f"s{i}" for i in range(n)], inf, end, status, {"x": end})
    names = ("censored", "death", "discharge")
    assert cohort_to_csv(cohort).splitlines()[1:] == [
        f"s{i},{'' if np.isnan(t) else format(t, '.12g')},{format(e, '.12g')},{names[c]},{e}"
        for i, (t, e, c) in enumerate(zip(inf.tolist(), end.tolist(), status.tolist()))
    ]


def cohort_columns(cohort):
    """Every column of a cohort as comparable values: float and int columns
    as bytes, text and mixed columns by ``repr`` (which tells -0.0 and NaN)."""
    covariates = [(name, column.dtype.str,
                   repr(column.tolist()) if column.dtype == object else column.tobytes())
                  for name, column in cohort.covariates.items()]
    return (cohort.ids.tolist(), cohort.inf.tobytes(), cohort.end.tobytes(),
            cohort.status.tobytes(), cohort.horizon, cohort.diagnostics, covariates)


def reference_text_column(cells):
    """The strip-then-float conversion that ``_text_column`` falls back on:
    stripped cells, their floats (NaN where blank or not a number), and the
    masks of blank cells and of cells that read as numbers."""
    text = list(map(str.strip, cells))
    blank = ~np.fromiter(map(bool, text), bool, len(text))
    values = np.full(len(text), math.nan)

    def is_number(cell):
        try:
            return float(cell) is not None
        except ValueError:
            return False

    try:
        number = ~blank
        values[number] = [float(t) for t, ok in zip(text, number) if ok]
    except ValueError:
        number = np.fromiter(map(is_number, text), bool, len(text))
        values[number] = [float(t) for t, ok in zip(text, number) if ok]
    return text, values, blank, number


def test_a_column_of_numbers_and_empty_cells_is_read_as_given():
    for cells in (["1", " 2.5\t", "-0"], ["", "\u30007", ""]):
        text, values, blank, number = pafmsm.cohort._text_column(cells)
        assert text is cells  # not stripped
        assert values.tobytes() == reference_text_column(cells)[1].tobytes()


def parse_both_ways(text, **kwargs):
    """Parse ``text`` as read from a file object, once as ``parse_cohort``
    does (by ``str.split`` when the text is plain) and once by
    ``csv.reader`` alone.  Both must give the same columns or raise the
    same DataError; returns the columns or (type, message, row)."""

    def outcome():
        try:
            return cohort_columns(parse_cohort(io.StringIO(text), **kwargs))
        except DataError as exc:
            return type(exc).__name__, str(exc), getattr(exc, "row", None)

    either = outcome()
    with mock.patch.object(pafmsm.cohort, "_split_rows", lambda text: None):
        assert outcome() == either
    return either


HEADER = "id,inf_time,end_time,end_status\n"


@pytest.mark.parametrize("text, plain, ids", [
    (HEADER + '"a,b",,3,death\nc,1,4,discharge\n', False, ["a,b", "c"]),
    (CSV.replace("\n", "\r\n"), False, ["A", "B", "C"]),
    (CSV.replace("\n", "\r"), False, ["A", "B", "C"]),
    ('"id","inf_time",end_time,"end_status"\nA,,5,death\n', False, ["A"]),
    ("id , inf_time,end_time ,end_status\n A ,  2 , 7 , discharge \n\tB\t,,3, death\n", True,
     ["A", "B"]),
    (HEADER + "\n   \n , , , \nA,,5,death\n,,\n\t\n", False, ["A"]),
    (HEADER + " , , , \nA,,5,death\n , , , \n", True, ["A"]),
    (HEADER + "A,,5,death", True, ["A"]),
    (HEADER + "A,,5,death\n\n", False, ["A"]),
    (HEADER + "A\0B,,5,death\n", False, ["A\0B"]),
    (HEADER, True, []),
    (HEADER.rstrip("\n"), True, []),
], ids=["quoted-comma", "crlf", "cr", "quoted-header", "padded", "blank-rows", "blank-full-width",
        "no-final-newline", "final-blank-line", "nul", "header-only", "header-only-no-newline"])
def test_both_parse_paths_read_the_same_cells(text, plain, ids):
    assert (pafmsm.cohort._split_rows(text) is not None) == plain
    columns = parse_both_ways(text)
    assert columns[0] == ids


@pytest.mark.parametrize("text, row, message", [
    ("", None, "empty input"),
    (HEADER + "A,,5,death\nB,,4\n", 3, "expected 4 fields, got 3"),
    (HEADER + "A,,5,death\nB,,4,death,x\n", 3, "expected 4 fields, got 5"),
    (HEADER + " , , , \nB,9,5,death\n", 3, "inf_time > end_time"),
    (HEADER + "\n\nB,9,5,death\n", 4, "inf_time > end_time"),
    (HEADER.replace("\n", "\r\n") + "A,,5,death\r\nB,,4\r\n", 3, "expected 4 fields, got 3"),
    (HEADER.replace("\n", "\r") + "A,,5,death\rB,x,4,death\r", 3, "bad inf_time 'x'"),
    ("id,inf_time,end_time\nA,,5\n", 1, "header must start with id,inf_time,end_time,end_status"),
    (HEADER + '"A,,5,death\n', 2, "expected 4 fields, got 1"),
    (HEADER + "A,,5,death\nB,," + "9" * 140_000 + ",death\n", 3,
     "field larger than field limit (131072)"),
    # padded cells are quoted stripped, whichever way the column was read
    (HEADER + "A,,5,death\nB, inf ,5,death\n", 3, "non-finite inf_time 'inf'"),
    (HEADER + "A,\tnan\x0b,5,death\n", 2, "non-finite inf_time 'nan'"),
    (HEADER + "A,,\xa01e400\u3000,death\n", 2, "non-finite end_time '1e400'"),
    (HEADER + "A,\x85x\u2003,5,death\n", 2, "bad inf_time 'x'"),
    (HEADER + "A,,5,death\nB,, 1 2 ,death\n", 3, "bad end_time '1 2'"),
    (HEADER + "A,,5, dead\t\n", 2, "unknown status 'dead'"),
], ids=["empty", "short-row", "long-row", "after-blank-full-width", "after-blank-lines", "crlf", "cr",
        "header", "open-quote", "huge-cell", "padded-inf", "padded-nan", "padded-overflow",
        "padded-text", "inner-space", "padded-status"])
def test_both_parse_paths_raise_the_same_parse_error(text, row, message):
    expected = message if row is None else f"row {row}: {message}"
    assert parse_both_ways(text) == ("ParseError", expected, row)


def test_a_file_with_cr_line_endings_parses(tmp_path):
    path = tmp_path / "mac.csv"
    path.write_bytes(CSV.replace("\n", "\r").encode())
    assert parse_cohort(path).subjects == parse_cohort(CSV).subjects


@pytest.mark.parametrize("ending", ["\r", "\r\n", "\n"])
def test_text_with_any_line_ending_is_text_as_str_and_bytes(tmp_path, ending):
    text = CSV.replace("\n", ending)
    path = tmp_path / "cohort.csv"
    path.write_bytes(text.encode())
    on_disk = cohort_columns(parse_cohort(path))
    assert cohort_columns(parse_cohort(text)) == on_disk
    assert cohort_columns(parse_cohort(text.encode())) == on_disk
    assert cohort_columns(parse_cohort(str(path))) == on_disk
    lone_cr = "id,inf_time,end_time,end_status\rA,,5,death\r"
    assert parse_cohort(lone_cr).ids.tolist() == parse_cohort(lone_cr.encode()).ids.tolist() == ["A"]
