import csv
import io
import math
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import pafmsm.cohort
from pafmsm import (
    CENSORED,
    Cohort,
    DataError,
    HazardSpec,
    ParseError,
    Subject,
    TiePolicy,
    cohort_to_csv,
    discretize,
    estimate_paf,
    fit_cox_td,
    fit_pooled_logistic,
    icu_like_spec,
    parse_cohort,
    simulate_cohort,
    summarize,
    to_transitions,
)
from pafmsm._bytes import _CSV_CHUNK, _short_decimals
from pafmsm.cohort import (_ABSENT, EXIT_STATE, STATUSES, TransitionRow, _ByteCells, _Cells,
                           _file_chunks, _row_chunks, _text_column)

from test_cli import reference_columns
from test_discrete import assert_same, reference_indicators

GOLDEN = Path(__file__).resolve().parent / "golden"

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
SOURCE_KINDS = ["bytes", "path", "str path", "bytes path", "binary file", "text file"]


def parse_as(kind, data, path):
    """``parse_cohort`` of the bytes ``data`` given as ``kind``, through the
    file ``path`` for a path or a file."""
    path.write_bytes(data)
    if kind == "bytes":
        return parse_cohort(data)
    if kind.endswith("path"):
        return parse_cohort({"path": path, "str path": str(path)}.get(kind, os.fsencode(path)))
    with open(path, "rb") if kind == "binary file" else open(path, encoding="utf-8") as fh:
        return parse_cohort(fh)


@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_input_that_is_not_utf8_raises_parse_error(tmp_path, kind):
    path = tmp_path / "latin1.csv"
    codec = "'utf-8' codec can't decode byte 0xe9 in position "
    with pytest.raises(ParseError) as info:
        parse_as(kind, NOT_UTF8, path)
    what = f"input file {path}" if kind.endswith("path") else "input"
    assert str(info.value).startswith(f"{what} is not UTF-8 text: {codec}")
    assert info.value.row is None


@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_a_late_byte_that_is_not_utf8_is_reported_first_at_its_place_in_the_input(tmp_path, kind):
    # a bad cell in row 2, and a 0xff byte that starts the last of 20 000
    # rows: the decode error comes first, with its position in the whole input
    body = "A,x,5,death\n" + "".join(f"s{i},,5,death\n" for i in range(19_998))
    data = (HEADER + body).encode() + b"\xffz,,5,death\n"
    path = tmp_path / "late.csv"
    with pytest.raises(ParseError) as info:
        parse_as(kind, data, path)
    what = f"input file {path}" if kind.endswith("path") else "input"
    assert str(info.value) == (f"{what} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                               f"in position {len(data) - 12}: invalid start byte")
    assert info.value.row is None


@pytest.mark.parametrize("data", [
    # a character's first byte, then ASCII, then a byte that would end it
    b"id,inf_time,end_time,end_status\nb\xc3" + b",,5,death\n" * 3 + b"c\xa9,,5,death\n",
    b"id,inf_time,end_time,end_status\nb,,5,death\xc3",  # the input ends within a character
], ids=["cut-character", "last-character-cut"])
def test_bytes_that_are_not_utf8_across_windows_raise_at_their_place_in_the_input(data):
    with pytest.raises(UnicodeDecodeError) as codec:
        data.decode("utf-8")
    for chunk in (1, 2, 3, 5, 8, 13, 21, 34, 64):
        with mock.patch.object(pafmsm.cohort, "_PARSE_CHUNK", chunk), \
                pytest.raises(ParseError) as info:
            parse_cohort(data)
        assert str(info.value) == f"input is not UTF-8 text: {codec.value}", chunk


def test_a_bytes_path_that_is_not_utf8_raises_parse_error():
    with pytest.raises(ParseError) as info:
        parse_cohort(b"\xff")
    assert str(info.value) == ("input is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                               "in position 0: invalid start byte")
    assert info.value.row is None


@pytest.mark.parametrize("kind", SOURCE_KINDS + ["str"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, kind):
    # as the utf-8-sig codec skips it, on plain text and on text for csv.reader
    for text in (CSV, CSV.replace("\n", "\r\n"), HEADER):
        marked = "\ufeff" + text
        if kind == "str":
            cohort = parse_cohort(marked)
        else:
            cohort = parse_as(kind, marked.encode(), tmp_path / "marked.csv")
        assert cohort_columns(cohort) == cohort_columns(parse_cohort(io.StringIO(text)))
    with pytest.raises(ParseError, match="^empty input$"):
        parse_cohort(io.StringIO("\ufeff"))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
def test_a_path_of_no_size_such_as_a_pipe_is_read_whole():
    # not a regular file: its bytes are read once, and parsed from an io.BytesIO
    read, write = os.pipe()
    os.write(write, CSV.encode())
    os.close(write)
    try:
        cohort = parse_cohort(f"/dev/fd/{read}")
    finally:
        os.close(read)
    assert cohort_columns(cohort) == cohort_columns(parse_cohort(CSV))


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


def reference_first_repeat(ids):
    """The first id equal to an earlier one, by a set of the ids before it."""
    seen = set()
    for sid in ids:
        if sid in seen:
            return sid
        seen.add(sid)
    return None


@pytest.mark.parametrize("where", [0, 500, 998])
def test_a_repeated_id_at_the_start_middle_or_end_is_named(where):
    ids = [f"s{k}" for k in range(1000)]
    ids[where + 1] = ids[where]
    with pytest.raises(DataError, match=f"^duplicate subject id '{ids[where]}'$"):
        Cohort.from_columns(ids, np.full(1000, np.nan), np.ones(1000), np.ones(1000, int))
    text = HEADER + "".join(f"{sid},,5,death\n" for sid in ids)
    assert parse_both_ways(text) == ("DataError", f"duplicate subject id '{ids[where]}'", None)


def test_the_first_repeat_in_file_order_is_named_not_the_first_id_repeated():
    # A is the first id that repeats, B the first row that repeats an id
    text = HEADER + "A,,5,death\nB,,5,death\nC,,5,death\nB,,5,death\nA,,5,death\n"
    assert parse_both_ways(text) == ("DataError", "duplicate subject id 'B'", None)


class SameHash(str):
    """A str whose hash is the same for every value."""

    def __hash__(self):
        return 7


def test_ids_that_share_a_hash_are_compared_by_value():
    ids = [SameHash(f"s{k}") for k in range(50)]
    assert len(Cohort.from_columns(ids, np.full(50, np.nan), np.ones(50), np.ones(50, int))) == 50
    ids = ids[:10] + [SameHash("s3")] + ids[10:] + [SameHash("s1")]
    with pytest.raises(DataError, match="^duplicate subject id 's3'$"):
        Cohort.from_columns(ids, np.full(52, np.nan), np.ones(52), np.ones(52, int))


def test_int_ids_repeat_as_a_set_finds_them():
    # -1 and -2 share a hash in CPython, and are different ids
    assert hash(-1) == hash(-2)
    ids = [-1, -2, 3, 2**64, 4]
    assert Cohort.from_columns(ids, [np.nan] * 5, [1.0] * 5, [1] * 5).ids.tolist() == ids
    for ids, repeat in [([-1, -2, 5, -2, -1], -2), ([1, 2.0, 2], 2), ([3, True, 1], 1)]:
        assert reference_first_repeat(ids) == repeat
        with pytest.raises(DataError, match=f"^duplicate subject id {repeat!r}$"):
            Cohort.from_columns(ids, [np.nan] * len(ids), [1.0] * len(ids), [1] * len(ids))


def parse_ids(ids, chunk=sys.maxsize, tie_every=0):
    """``parse_in_chunks`` of a cohort with id cells ``ids``; every
    ``tie_every``-th row (if any) has inf_time == end_time.  The statuses
    take turns, so the bytes before an id differ from row to row."""
    statuses = ("death", "discharge", "censored")
    rows = "".join(f"{sid},{5 if tie_every and k % tie_every == 0 else ''},5,{statuses[k % 3]}\n"
                   for k, sid in enumerate(ids))
    return parse_in_chunks(HEADER + rows, chunk)


def reference_ids(ids, tie_every=0):
    """What a parse of ``parse_ids`` gives: the stripped ids and the ids
    of the tied rows; or the ParseError of the first empty id, else the
    DataError of the first id that repeats an earlier one."""
    ids = [sid.strip() for sid in ids]
    if "" in ids:
        row = ids.index("") + 2
        return "ParseError", f"row {row}: empty id", row
    repeat = reference_first_repeat(ids)
    if repeat is not None:
        return "DataError", f"duplicate subject id {repeat!r}", None
    return ids, [sid for k, sid in enumerate(ids) if tie_every and k % tie_every == 0]


def assert_ids_parse_as_reference(ids, chunk=sys.maxsize, tie_every=0):
    """Every source and both parse paths (``parse_both_ways``) give the
    ids, tie diagnostics or error of ``reference_ids``."""
    got = parse_ids(ids, chunk, tie_every)
    expected = reference_ids(ids, tie_every)
    if isinstance(expected[0], list):
        assert (got[0], [d.subject_id for d in got[5]]) == expected
    else:
        assert got == expected


# ids of up to 8 bytes are one word each, of 9 to 16 bytes two words
# mixed into one; an id of 17 bytes takes the column to the set of strings
@pytest.mark.parametrize("size", [1, 8, 9, 16, 17])
def test_ids_of_one_or_two_words_or_longer_repeat_as_strings(size):
    ids = [f"{k:0{size}d}" for k in range(40)]
    assert_ids_parse_as_reference(ids, tie_every=7)
    for where in (0, 20, 38):
        repeated = ids[:where + 1] + [ids[where]] + ids[where + 1:]
        for chunk in (sys.maxsize, 40):
            assert_ids_parse_as_reference(repeated, chunk)


def test_ids_that_differ_only_before_their_last_8_bytes_are_distinct():
    for a, b in [("A2345678", "B2345678"), ("A23456789", "B23456789"),
                 ("A234567890123456", "B234567890123456"), ("x" * 16, "y" + "x" * 15)]:
        assert_ids_parse_as_reference([a, b])
        assert_ids_parse_as_reference([a, b, a])


def test_padded_ids_repeat_once_stripped():
    assert_ids_parse_as_reference(["A", " A"])
    assert_ids_parse_as_reference(["A", "", "A"])  # an empty id comes first
    assert_ids_parse_as_reference(["A", " ", "A"])
    assert_ids_parse_as_reference(["B", "A\t", "C", "A"])
    # the padded repeat in a later window, the first id in one of plain ids
    assert_ids_parse_as_reference(["A", "B", "C", "D", " A"], chunk=13)


@pytest.mark.parametrize("rows", [
    # a ragged window (a blank row of 3 cells) is read by csv.reader
    ["A,,5,death", "B,,5,death", ",,", "A,,5,death", "C,,5,death"],
    ["A,,5,death", ",,", "B,,5,death", "C,,5,death", "A,,5,death"],
    # a text covariate: the window's columns are split into str cells
    ["A,,5,death,1", "B,,5,death,2", "C,,5,death,n", "A,,5,death,s"],
], ids=["reader-window-second", "reader-window-first", "text-covariate"])
def test_a_repeat_beside_a_window_read_from_str_cells_is_named(rows):
    header = HEADER if rows[0].count(",") == 3 else HEADER[:-1] + ",site\n"
    text = header + "\n".join(rows) + "\n"
    by_reader = mock.patch.object(pafmsm.cohort, "_reader_rows", wraps=pafmsm.cohort._reader_rows)
    by_str = mock.patch.object(_ByteCells, "text", autospec=True, side_effect=_ByteCells.text)
    assert parse_in_chunks(text, 22) == ("DataError", "duplicate subject id 'A'", None)
    # windows of both kinds: ids from bytes and ids from str cells
    with mock.patch.object(pafmsm.cohort, "_PARSE_CHUNK", 22), by_reader as reader, \
            by_str as split, pytest.raises(DataError):
        parse_cohort(text)
    assert (reader.call_count, split.call_count > 0) in [(1, False), (0, True)]


def test_a_parsed_cohort_builds_its_id_strings_only_when_read():
    text = registry_text()
    cohort = parse_cohort(text)
    for estimand in ("paf_o", "paf_c"):
        estimate_paf(cohort, estimand)
    fit_cox_td(cohort, "death")
    assert "ids" not in cohort.__dict__
    # the array of the csv.reader path, which builds the strings as it reads
    with mock.patch.object(pafmsm.cohort, "_split_rows", lambda *window: None):
        eager = parse_cohort(text)
    assert "ids" in eager.__dict__
    ids = cohort.ids
    assert ids is cohort.ids and "_id_bytes" not in cohort.__dict__
    assert ids.dtype == object and not ids.flags.writeable
    assert ids.tolist() == eager.ids.tolist() == [str(k) for k in range(len(cohort))]


def test_a_parsed_cohort_holds_short_ids_as_one_word_each_until_read_or_written():
    cohort = parse_cohort(registry_text())
    ids = cohort.__dict__["_id_bytes"]
    assert ids.gathered is None and ids.words.dtype == np.uint64 and ids.words.size == len(cohort)
    for estimand in ("paf_o", "paf_c"):
        estimate_paf(cohort, estimand)
    fit_cox_td(cohort, "death")
    discretize(cohort, allow_drop=True)
    assert cohort.subset(cohort.status == 1).__dict__["_id_bytes"].gathered is None
    text = cohort_to_csv(cohort)  # the bytes are built for the writer, and not kept
    assert cohort.__dict__["_id_bytes"] is ids and ids.gathered is None
    assert "ids" not in cohort.__dict__
    assert parse_cohort(text).ids.tolist() == cohort.ids.tolist()


def reads_as_reference(text, error=None):
    """Whether ``parse_cohort`` of ``text`` as ``str``, and
    ``parse_both_ways`` (as text, bytes and a path, by both parse paths),
    all give the columns of ``reference_columns``; or, with ``error``, all
    raise it: a (DataError type, message, row) as the parser raised it
    before ids were read as words and statuses by length."""
    got = parse_both_ways(text)
    try:
        as_str = cohort_columns(parse_cohort(text))
    except DataError as exc:
        as_str = type(exc).__name__, str(exc), getattr(exc, "row", None)
    assert as_str == got
    if error is not None:
        return got == error
    ids, inf, end, status, _ = reference_columns(text.encode("utf-8", "surrogatepass"))
    return got[:4] == (ids, np.array(inf, float).tobytes(), np.array(end, float).tobytes(),
                       np.array(status, np.int64).tobytes())


def rows_of(ids, statuses=STATUSES):
    """Body rows of ``ids``, the statuses taking turns, half of them exposed."""
    return "".join(f"{sid},{'' if k % 2 else 1.5},{k + 2},{statuses[k % len(statuses)]}\n"
                   for k, sid in enumerate(ids))


@pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 17])
def test_ids_of_one_word_two_words_or_more_read_as_the_reference(size):
    ids = [f"{k:0{size}d}" if size > 1 else chr(ord("A") + k) for k in range(20)]
    assert reads_as_reference(HEADER + rows_of(ids))
    assert read_from_bytes(HEADER + rows_of(ids))


def test_ids_of_bang_and_del_are_read_from_their_words():
    ids = ["!", "!!!!!!!!", "a\x7f", "\x7f" * 8, "!\x7f~", "~"]
    assert reads_as_reference(HEADER + rows_of(ids))
    assert reads_as_reference(HEADER + rows_of([*ids, "!!!!!!!!!", "\x7f" * 9]))


# one id with a byte below "!" or of a longer character (0x80 up), first,
# last or inside, among ids read from their words
@pytest.mark.parametrize("sid", [
    "a b", "\x1fA", "A\x1c", "é", "A\x85", "\u3000A", "\x85ab", "abcde\x85", "abcdef\x85",
    "\x1fabcdefg", "abcdefg\x1f", "abcdefg\x01", " 1234567", "1234567\t", "1234567é",
    "\x85" + "1234567", " 12345679",
])
def test_an_id_with_a_byte_outside_plain_reads_as_the_reference(sid):
    assert reads_as_reference(HEADER + rows_of(["X", sid, "Y"]))


def test_an_empty_id_on_a_row_with_cells_is_a_parse_error():
    for sid in ("", " ", "\t\x1f"):
        text = HEADER + rows_of(["A", sid, "B"])
        assert reads_as_reference(text, ("ParseError", "row 3: empty id", 3))


def test_9_byte_ids_that_share_their_last_8_bytes_are_distinct():
    assert reads_as_reference(HEADER + rows_of(["A12345678", "B12345678", "12345678"]))


def test_a_repeated_8_byte_id_is_a_duplicate():
    text = HEADER + rows_of(["12345678", "A", "12345678", "B"])
    assert reads_as_reference(text, ("DataError", "duplicate subject id '12345678'", None))


def test_status_names_have_distinct_utf8_lengths_of_at_most_9_bytes():
    lengths = [len(name.encode()) for name in STATUSES]
    assert len(set(lengths)) == len(STATUSES) and max(lengths) <= 9


def one_byte_off(name):
    """Cells that differ from ``name`` in one byte, or are one byte short or long."""
    for i in range(len(name)):  # each byte changed: case flipped, or a DEL
        yield name[:i] + chr(ord(name[i]) ^ 0x20) + name[i + 1:]
        yield name[:i] + "\x7f" + name[i + 1:]
    yield from (name[:-1], name[1:], name + "e", name + "!", "!" + name)


@pytest.mark.parametrize("cell", [cell for name in STATUSES for cell in one_byte_off(name)] + [
    "discharg﻿e", "dischargeX", "dischargee", "discharg" + "e" * 5, "discharge\x7f",
    "discharged", "dischargé", "deathé",
])
def test_a_status_a_byte_off_a_name_is_unknown(cell):
    text = HEADER + rows_of(["A", "B"]) + f"C,,9,{cell}\n"
    assert reads_as_reference(text, ("ParseError", f"row 4: unknown status {cell!r}", 4))


@pytest.mark.parametrize("code", [-1, 3, 2**40, -2**63])
def test_a_status_code_outside_the_three_is_unknown(code):
    for status in ([code, 1], [1, code]):
        with pytest.raises(DataError, match=f"unknown status {code}"):
            Cohort.from_columns(["a", "b"], [np.nan, np.nan], [1.0, 2.0], status)


def test_padded_status_names_read_as_the_names():
    statuses = ("discharge ", "\tdeath", "censored\x1f", " discharge　", "death\x85")
    assert reads_as_reference(HEADER + rows_of("ABCDEFGHIJ", statuses))


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
    by_id = {}
    for r in parse_cohort(CSV).transition_rows():
        by_id.setdefault(r.subject_id, []).append(r)
    assert [(r.from_state, r.to_state) for r in by_id["A"]] == [(0, 3)]
    assert [(r.from_state, r.to_state) for r in by_id["B"]] == [(0, 1), (1, 4)]
    assert [(r.from_state, r.to_state) for r in by_id["C"]] == [(0, CENSORED)]


def reference_subjects_from_transitions(cohort):
    """The inverse of ``Cohort.transition_rows``: one ``Subject`` per chain of
    transition rows, with the covariates a subject has in the columns."""
    chains = {}
    for r in cohort.transition_rows():
        chains.setdefault(r.subject_id, []).append(r)
    outcome = {CENSORED: "censored", 2: "discharge", 3: "death", 4: "discharge", 5: "death"}
    columns = {name: column.tolist() for name, column in cohort.covariates.items()}
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
        back = reference_subjects_from_transitions(cohort)
        assert tuple(back) == cohort.subjects


def test_discretize_rejects_censored_by_default():
    with pytest.raises(DataError) as exc:
        discretize(parse_cohort(CSV))
    assert str(exc.value) == "1 censored subjects present (pass allow_drop to exclude them): C"
    # a long list is cut to the count and the first five ids
    many = HEADER + "".join(f"{i},,{i % 3 + 1},{('censored', 'death')[i % 2]}\n" for i in range(20))
    with pytest.raises(DataError) as exc:
        discretize(parse_cohort(many))
    assert str(exc.value) == ("10 censored subjects present (pass allow_drop to exclude them): "
                              "0, 2, 4, 6, 8, ...")
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
    with pytest.raises(DataError, match="^horizon must be finite$"):
        Cohort((Subject("A", None, 5.0, "death"),), horizon=math.inf)


def test_a_source_of_another_type_is_a_type_error():
    with pytest.raises(TypeError, match="source must be a path, text, bytes, or file object"):
        parse_cohort(42)


@pytest.mark.parametrize("source", ["id,inf_time,end_time,end_status", b"id,inf_time,end_time,end_status",
                                    "no such file.csv", "a\0b"])
def test_text_or_bytes_without_a_line_break_that_names_no_file_is_a_parse_error(tmp_path, source):
    with pytest.raises(ParseError) as info:
        parse_cohort(source)
    assert str(info.value) == f"{source!r} names no file, and CSV text needs a line break"
    assert info.value.row is None
    with pytest.raises(FileNotFoundError):  # a path object keeps its OSError
        parse_cohort(tmp_path / "no such file.csv")
    with pytest.raises(IsADirectoryError):  # as does a str that names a directory
        parse_cohort(str(tmp_path))


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
    assert to_transitions(cohort) is cohort


def test_explicit_transition_rows_are_validated():
    rows = parse_cohort(CSV).transition_rows()
    again = Cohort.from_transitions(rows)
    for name in ("ids", "inf", "end", "status"):
        np.testing.assert_array_equal(getattr(again, name), getattr(parse_cohort(CSV), name))
    with pytest.raises(DataError, match="chain"):
        Cohort.from_transitions([rows[1], TransitionRow("B", 1, 4, 3.0, 7.0)])
    with pytest.raises(DataError, match="t_start"):
        Cohort.from_transitions([TransitionRow("A", 0, 3, 5.0, 5.0)])
    for t_start, t_stop in ((0.0, math.inf), (0.0, math.nan), (-math.inf, 3.0)):
        with pytest.raises(DataError, match="subject A: t_start and t_stop must be finite"):
            Cohort.from_transitions([TransitionRow("A", 0, 3, t_start, t_stop)])
    with pytest.raises(DataError, match="subject A: t_start and t_stop must be finite"):
        Cohort.from_transitions([TransitionRow("A", 0, 1, 0.0, 2.0),
                                 TransitionRow("A", 1, 5, 2.0, math.inf)])
    for t_start in (1.0, -1.0):  # would be read as entry at time 0
        with pytest.raises(DataError, match="subject A: a state-0 row must start at time 0"):
            Cohort.from_transitions([TransitionRow("A", 0, 3, t_start, 5.0)])


@pytest.mark.parametrize("rows, message", [
    ([TransitionRow("A", 0, 4, 0.0, 3.0)], "invalid transition 0->4"),
    ([TransitionRow("A", 0, 1, 0.0, 2.0), TransitionRow("A", 1, 2, 2.0, 5.0)],
     "invalid transition 1->2"),
    ([TransitionRow("A", 1, 5, 2.0, 5.0)], "single row must start in state 0"),
    ([TransitionRow("A", 0, 2, 0.0, 2.0), TransitionRow("A", 1, 5, 2.0, 5.0)],
     "rows must chain 0->1 then 1->..."),
    ([TransitionRow("A", 0, 1, 0.0, 2.0), TransitionRow("A", 1, 4, 2.0, 5.0),
      TransitionRow("A", 1, 5, 5.0, 6.0)], "more than two rows"),
], ids=["0->4", "1->2", "lone-state-1-row", "broken-0->1-chain", "three-rows"])
def test_transition_rows_outside_the_six_state_chain_are_rejected(rows, message):
    with pytest.raises(DataError) as info:
        Cohort.from_transitions(rows)
    assert str(info.value) == f"subject A: {message}"


def test_lone_exposure_row_is_rejected():
    # without a 1->... row the subject would read as discharged and never exposed
    with pytest.raises(DataError, match="subject A: exposure row 0->1 has no follow-up row"):
        Cohort.from_transitions([TransitionRow("A", 0, 1, 0.0, 3.0)])


def rebuilt_from_transition_rows(cohort):
    """``cohort`` built again from its transition rows and its subjects' covariates."""
    return Cohort.from_transitions(cohort.transition_rows(),
                                   {s.id: s.covariates for s in cohort.subjects})


def reference_intervals(cohort):
    """``Cohort._intervals`` by ``np.where`` per interval, as it was written first."""
    exposed = cohort.exposed
    subject = np.repeat(np.arange(len(cohort)), np.where(exposed, 2, 1))
    state = np.zeros(subject.size, dtype=np.int64)
    state[1:] = subject[1:] == subject[:-1]
    inf, end, last = cohort.inf[subject], cohort.end[subject], (state == 1) | ~exposed[subject]
    to_state = np.where(last, EXIT_STATE[state, cohort.status[subject]], 1)
    return subject, state, to_state, np.where(state == 1, inf, 0.0), np.where(last, end, inf)


def test_intervals_are_those_of_a_selection_per_interval():
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100, censor_rate=0.01)
    for cohort in (simulate_cohort(spec, 5000, seed=3), parse_cohort(CSV),
                   Cohort.from_columns([], [], [], []), Cohort.from_columns(["a"], [1.0], [2.0], [0])):
        for got, want in zip(cohort._intervals(), reference_intervals(cohort)):
            assert_same(got, want)


def test_transition_rows_round_trip_the_columns_and_uneven_covariates():
    mixed = parse_cohort("id,inf_time,end_time,end_status,age,x\n"
                         "A,,5,death,70,1\nB,2.5,7,discharge,old,0\nC,,3,censored,3,1\n")
    uneven = Cohort((Subject("A", None, 5.0, "death", {"x": 1.0}), Subject("B", 2.0, 7.0, "censored"),
                     Subject("C", None, 3.0, "discharge", {"x": 2, "site": "n"})))
    for cohort in (parse_cohort(GOLDEN / "daily" / "cohort.csv"), mixed, uneven):
        again = rebuilt_from_transition_rows(cohort)
        for name in ("inf", "end", "status"):
            assert_same(getattr(again, name), getattr(cohort, name))
        assert again.ids.tolist() == cohort.ids.tolist()
        assert list(again.covariates) == list(cohort.covariates)
        for name, column in cohort.covariates.items():
            assert again.covariates[name].dtype == column.dtype
            assert again.covariates[name].tolist() == column.tolist()
        assert again.subjects == cohort.subjects


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


@pytest.mark.parametrize("censored", [False, True])
def test_discretize_splits_no_id_it_does_not_report(monkeypatch, censored):
    # a parsed cohort keeps its ids as bytes: the panel splits the dropped
    # subjects' ids at once, and its own only when they are read, once
    rows = "".join(f"s{i},{'' if i % 3 else i % 5 + 1},{i % 7 + 6},"
                   f"{('death', 'discharge', 'censored' if censored else 'death')[i % 3]}\n"
                   for i in range(30))
    cohort = parse_cohort(HEADER + rows)
    split, split_ids = [], pafmsm.cohort._split
    monkeypatch.setattr(pafmsm.cohort, "_split", lambda ids: split.append(ids) or split_ids(ids))
    panel = discretize(cohort, allow_drop=True)
    kept = cohort.status != 0
    assert len(split) == censored  # the dropped subjects' ids
    assert panel.dropped == tuple(f"s{i}" for i in np.flatnonzero(~kept))
    assert panel.ids == tuple(f"s{i}" for i in np.flatnonzero(kept))
    assert panel.ids is panel.ids and len(split) == 1 + censored
    with pytest.raises(DataError, match="^subject s0 has no covariate 'x'$"):
        fit_pooled_logistic(discretize(cohort, allow_drop=True), ("x",))


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
    """Parse ``text`` as read from a text file, and, if it encodes as UTF-8,
    from its bytes and from a file that holds them; each once as
    ``parse_cohort`` does (from the bytes of a plain window) and once by
    ``csv.reader`` alone.  All must give the same columns or raise the same
    DataError; returns the columns or (type, message, row)."""
    sources = [lambda: io.StringIO(text)]
    data = text.encode("utf-8", "surrogatepass")
    if data.decode("utf-8", "replace") == text:  # no lone surrogate
        # bytes without a line break are a path
        sources.append(lambda: data if b"\n" in data or b"\r" in data else io.BytesIO(data))
        sources.append(lambda: path)

    def outcome(source):
        try:
            return cohort_columns(parse_cohort(source(), **kwargs))
        except DataError as exc:
            return type(exc).__name__, str(exc), getattr(exc, "row", None)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cohort.csv")
        path.write_bytes(data)
        either = outcome(sources[0])
        assert [outcome(source) for source in sources[1:]] == [either] * (len(sources) - 1)
        with mock.patch.object(pafmsm.cohort, "_split_rows", lambda *window: None):
            assert [outcome(source) for source in sources] == [either] * len(sources)
    return either


def window_cells(text):
    """The cells of each window of rows that ``parse_cohort`` reads ``text``
    in, with windows of unbounded size; None for a window that raises."""
    cells, data = [], io.BytesIO(text.encode("utf-8", "surrogatepass"))
    with mock.patch.object(pafmsm.cohort, "_PARSE_CHUNK", sys.maxsize):
        try:
            cells.extend(window for _, window, _ in _row_chunks(data, "surrogatepass")[1])
        except ParseError:
            cells.append(None)
    return cells


def read_from_bytes(text):
    """Whether every window of ``text`` is read from its bytes."""
    return all(isinstance(cells, _ByteCells) for cells in window_cells(text))


def byte_cells(text):
    """The cells of plain ``text``, read from its bytes in one window."""
    (cells,) = window_cells(text)
    assert isinstance(cells, _ByteCells)
    return cells


HEADER = "id,inf_time,end_time,end_status\n"


SAME_CELLS = [
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
    # padded ids beside columns read from their bytes
    (HEADER + " A ,,5,death\n\tB\x1c,2,7,discharge\n\u3000C\x85,,3,censored\n", True,
     ["A", "B", "C"]),
]
SAME_CELLS_IDS = ["quoted-comma", "crlf", "cr", "quoted-header", "padded", "blank-rows",
                  "blank-full-width", "no-final-newline", "final-blank-line", "nul", "header-only",
                  "header-only-no-newline", "padded-ids"]


@pytest.mark.parametrize("text, plain, ids", SAME_CELLS, ids=SAME_CELLS_IDS)
def test_both_parse_paths_read_the_same_cells(text, plain, ids):
    assert read_from_bytes(text) == plain
    columns = parse_both_ways(text)
    assert columns[0] == ids


PARSE_ERRORS = [
    ("", None, "empty input"),
    (HEADER + "A,,5,death\nB,,4\n", 3, "expected 4 fields, got 3"),
    (HEADER + "A,,5,death\nB,,4,death,x\n", 3, "expected 4 fields, got 5"),
    (HEADER + " , , , \nB,9,5,death\n", 3, "inf_time > end_time"),
    (HEADER + "\n\nB,9,5,death\n", 4, "inf_time > end_time"),
    (HEADER.replace("\n", "\r\n") + "A,,5,death\r\nB,,4\r\n", 3, "expected 4 fields, got 3"),
    (HEADER.replace("\n", "\r") + "A,,5,death\rB,x,4,death\r", 3, "bad inf_time 'x'"),
    ("id,inf_time,end_time\nA,,5\n", 1, "header must start with id,inf_time,end_time,end_status"),
    ("id,inf_time,end_time,end_status,x, x \nA,,5,death,1,2\n", 1, "header names column 'x' twice"),
    (HEADER + '"A,,5,death\n', 2, "expected 4 fields, got 1"),
    (HEADER + "A,,5,death\nB,," + "9" * 140_000 + ",death\n", 3,
     "field larger than field limit (131072)"),
    # the header is checked before a body row is read
    ("id,x,end_time,end_status\nA,," + "9" * 140_000 + ",death\n", 1,
     "header must start with id,inf_time,end_time,end_status"),
    ("id,x,end_time,end_status\r\nA,," + "9" * 140_000 + ",death\r\n", 1,
     "header must start with id,inf_time,end_time,end_status"),
    (HEADER[:-1] + ",x" + "9" * 140_000 + "\nA,,5,death,1\n", 1,
     "field larger than field limit (131072)"),
    # padded cells are quoted stripped, whichever way the column was read
    (HEADER + "A,,5,death\nB, inf ,5,death\n", 3, "non-finite inf_time 'inf'"),
    (HEADER + "A,\tnan\x0b,5,death\n", 2, "non-finite inf_time 'nan'"),
    (HEADER + "A,,\xa01e400\u3000,death\n", 2, "non-finite end_time '1e400'"),
    (HEADER + "A,\x85x\u2003,5,death\n", 2, "bad inf_time 'x'"),
    (HEADER + "A,,5,death\nB,, 1 2 ,death\n", 3, "bad end_time '1 2'"),
    (HEADER + "A,,5, dead\t\n", 2, "unknown status 'dead'"),
]
PARSE_ERRORS_IDS = ["empty", "short-row", "long-row", "after-blank-full-width", "after-blank-lines",
                    "crlf", "cr", "header", "repeated-column", "open-quote", "huge-cell",
                    "header-before-huge-cell", "crlf-header-before-huge-cell", "huge-header-cell",
                    "padded-inf", "padded-nan", "padded-overflow", "padded-text", "inner-space",
                    "padded-status"]


@pytest.mark.parametrize("text, row, message", PARSE_ERRORS, ids=PARSE_ERRORS_IDS)
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



def parse_in_chunks(text, chunk, **kwargs):
    """``parse_both_ways`` with the CSV body cut into slices of about
    ``chunk`` characters."""
    with mock.patch.object(pafmsm.cohort, "_PARSE_CHUNK", chunk):
        return parse_both_ways(text, **kwargs)


def assert_chunks_read_as_one(text, **kwargs):
    """The columns and diagnostics, or the (ParseError, message, row), are
    those of a parse in one chunk, whatever the chunk size; returns them."""
    whole = parse_in_chunks(text, sys.maxsize, **kwargs)
    for chunk in (1, 2, 3, 5, 8, 13, 21, 34):
        assert parse_in_chunks(text, chunk, **kwargs) == whole, chunk
    return whole


@pytest.mark.parametrize("text", [case[0] for case in SAME_CELLS + PARSE_ERRORS],
                         ids=SAME_CELLS_IDS + PARSE_ERRORS_IDS)
def test_chunks_of_rows_read_the_parse_table_inputs_as_one(text):
    assert_chunks_read_as_one(text)


def rows(prefix):
    """Twelve valid rows with ids prefix0, prefix1, ...; some exposed, some censored."""
    statuses = ("death", "discharge", "censored")
    return "".join(f"{prefix}{i},{i % 3 or ''},{i + 4},{statuses[i % 4 % 3]}\n" for i in range(12))


ROWS = rows("s")


@pytest.mark.parametrize("text, row, message", [
    (HEADER + ROWS + "B,x,5,death\n" + ROWS, 14, "bad inf_time 'x'"),
    (HEADER + ROWS + "B,,4\n" + ROWS, 14, "expected 4 fields, got 3"),
    (HEADER + ROWS + rows("t") + "B,,4,death,1\n", 26, "expected 4 fields, got 5"),
    (HEADER + "\n" + ROWS + "\n , , , \nB,9,5,death\n", 17, "inf_time > end_time"),
], ids=["bad-cell", "short-row", "long-row", "after-blank-rows"])
def test_an_error_in_a_later_chunk_counts_the_rows_before_it(text, row, message):
    assert assert_chunks_read_as_one(text) == ("ParseError", f"row {row}: {message}", row)


def test_a_line_over_the_field_limit_in_a_later_chunk():
    text = HEADER + ROWS + "B,," + "9" * 41 + ",death\n" + rows("t")
    default = csv.field_size_limit()
    csv.field_size_limit(40)
    try:
        got = assert_chunks_read_as_one(text)
    finally:
        csv.field_size_limit(default)
    assert got == ("ParseError", "row 14: field larger than field limit (40)", 14)


@pytest.mark.parametrize("text, n", [
    # blank rows at the edges of chunks
    (HEADER + "\n\n" + ROWS + "\n , , , \n,,,\n" + rows("t") + "\n", 24),
    (HEADER + " , , , \n" + ROWS + " , , , \n", 12),
    # multi-byte UTF-8 cells next to the cuts
    (HEADER + "é,,5,death\nB😀,2,7,discharge\n" + "ü" * 7 + ",1,2,death\n€,,1,censored", 4),
    # a quoted cell holding a line break: such text is one chunk, never cut
    (HEADER + ROWS + '"A\nB",,5,death\n' + rows("t"), 25),
], ids=["blank-rows", "blank-full-width-rows", "multi-byte", "quoted-line-break"])
def test_chunks_of_rows_read_as_one(text, n):
    assert len(assert_chunks_read_as_one(text)[0]) == n


def test_ties_in_a_later_chunk_are_shifted_in_file_order_or_rejected():
    text = HEADER + "T,5,5,death\n" + ROWS + "U,2.5,2.5,discharge\n"
    diagnostics = assert_chunks_read_as_one(text)[5]
    assert [(d.subject_id, d.message) for d in diagnostics] == [
        ("T", "inf_time tied with end_time; shifted to 4.999"),
        ("U", "inf_time tied with end_time; shifted to 2.499"),
    ]
    rejected = assert_chunks_read_as_one(text.replace("T,5,5", "T,4,5"),
                                         tie_policy=TiePolicy.reject())
    assert rejected == ("ParseError", "row 15: inf_time == end_time (tie policy: reject)", 15)


def path_and_text(text, chunk, **kwargs):
    """The outcome of ``parse_cohort`` of a file that holds ``text``, with
    windows of ``chunk`` bytes, and whether the file was read in windows
    (not whole by ``csv.reader``); asserts that the outcome is that of
    ``text`` read as a ``str``.  An outcome is the columns, or a
    DataError's (type, message, row)."""
    def outcome(source):
        try:
            return cohort_columns(parse_cohort(source, **kwargs))
        except DataError as exc:
            return type(exc).__name__, str(exc), getattr(exc, "row", None)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cohort.csv")
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(pafmsm.cohort, "_PARSE_CHUNK", chunk), \
                mock.patch.object(pafmsm.cohort, "_file_chunks", wraps=_file_chunks) as windows:
            by_path = outcome(path)
    assert by_path == outcome(io.StringIO(text))
    return by_path, windows.called


LATE = HEADER + ROWS + rows("t")  # 25 lines of 11 to 14 bytes


@pytest.mark.parametrize("text, windows", [
    # read whole by csv.reader, from a late window on: each is found by the byte scan
    (LATE + '"q",,5,death\n', False),
    (LATE + "q,,5,death\r\n", False),
    (LATE + "q\0r,,5,death\n", False),
    # read in windows
    (LATE + "é,,5,death\n", True),
    (LATE + "q" * 120 + ",,5,death\n", True),  # a line longer than a window
    ("\ufeff" + LATE, True),
    (LATE, True),
    (LATE.rstrip("\n"), True),
    (HEADER + "\n\n" + ROWS + "\n , , , \n,,,\n" + rows("t") + "\n\n", True),
    (HEADER + ROWS + "B,,4\n" + ROWS, True),
    (HEADER + ROWS + "B,x,5,death\n", True),
    (HEADER + ROWS + "s3,,5,death\n", True),
    (HEADER + "T,5,5,death\n" + ROWS + "U,2.5,2.5,discharge\n", True),
    # ids other than words from a late window on: padded, of 9 and of 17 bytes
    (LATE + " q ,,5,death\n" + rows("u"), True),
    (LATE + "q" * 9 + ",,5,death\n" + rows("u"), True),
    (LATE + "q" * 17 + ",,5,death\n" + rows("u"), True),
    # a text covariate from a late window on
    ("id,inf_time,end_time,end_status,x\n" + "".join(f"s{i},,{i + 1},death,{i}\n"
                                                    for i in range(20)) + "a,,5,death, n \n",
     True),
    (HEADER, True),
    (HEADER.rstrip("\n"), True),
    ("", False),
], ids=["quote", "cr", "nul", "non-ascii", "overlong-line", "bom", "plain", "no-final-newline",
        "blank-rows", "short-row", "bad-cell", "repeated-id", "ties", "padded-ids", "ids-of-9",
        "ids-of-17", "text-covariate", "header-only", "header-without-newline", "empty"])
def test_a_file_read_in_windows_reads_as_its_text(text, windows):
    for chunk in (48, 64, 100):
        assert path_and_text(text, chunk)[1] == windows, chunk
    if windows and not text.startswith(HEADER + "T"):
        path_and_text(text, 64, tie_policy=TiePolicy.reject())


def test_a_line_over_the_field_limit_in_a_late_window_is_a_window_of_its_own():
    text = HEADER + ROWS + "B,," + "9" * 41 + ",death\n" + rows("t")
    default = csv.field_size_limit()
    csv.field_size_limit(40)
    by_reader = mock.patch.object(pafmsm.cohort, "_reader_rows", wraps=pafmsm.cohort._reader_rows)
    try:
        with by_reader as reader:
            got = path_and_text(text, 100)
        assert path_and_text(text.replace("9" * 41, "9" * 30), 100)[1]  # a line within it
    finally:
        csv.field_size_limit(default)
    assert got == (("ParseError", "row 14: field larger than field limit (40)", 14), True)
    # the line alone, by path and as text: the rows before it were read from their bytes
    assert [call.args[2] for call in reader.call_args_list] == [12, 12]


def test_the_windows_beside_a_line_longer_than_a_window_stay_within_a_window(tmp_path):
    # the buffer grows to hold the long line, a window of its own; the
    # windows of the other rows are still cut within _PARSE_CHUNK bytes
    split_rows, windows = pafmsm.cohort._split_rows, []

    def sized(raw, start, stop, header):
        windows.append((stop - start, raw[start:stop].tobytes().count(b"\n")))
        return split_rows(raw, start, stop, header)

    text = HEADER + ROWS + "q" * 200 + ",,5,death\n" + rows("t")
    path = tmp_path / "cohort.csv"
    path.write_text(text)
    with mock.patch.object(pafmsm.cohort, "_PARSE_CHUNK", 64), \
            mock.patch.object(pafmsm.cohort, "_split_rows", sized):
        cohort = parse_cohort(path)
    assert cohort_columns(cohort) == cohort_columns(parse_cohort(text))
    assert (210, 1) in windows and all(size <= 64 for size, n in windows if n > 1)


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_a_window_may_end_at_a_line_end_or_a_byte_to_either_side(shift):
    # the first window ends where the 4th body row does, or a byte before or after
    text = LATE + "x,1,2,death"  # and a last line without its "\n"
    at_line_end = len(HEADER) + sum(map(len, ROWS.splitlines(keepends=True)[:4]))
    columns, windows = path_and_text(text, at_line_end + shift)
    assert windows and len(columns[0]) == 25


def test_a_file_whose_size_changes_between_the_passes_is_read_whole(tmp_path):
    path = tmp_path / "cohort.csv"
    scan = pafmsm.cohort._scan
    # a row more; a header longer than the buffer that the first pass sized
    for final in (LATE + "x,,5,death\n", HEADER[:-1] + "," + "c" * 61 + "\nx,,5,death,1\n"):
        path.write_text(LATE)

        def grown(*args):  # the file written to after the first pass
            rows = scan(*args)
            path.write_text(final)
            return rows

        with mock.patch.object(pafmsm.cohort, "_PARSE_CHUNK", 64), \
                mock.patch.object(pafmsm.cohort, "_scan", grown), \
                mock.patch.object(pafmsm.cohort, "_row_chunks", wraps=_row_chunks) as reads:
            cohort = parse_cohort(path)
        assert reads.call_count == 2 and isinstance(reads.call_args.args[0], io.BytesIO)
        assert cohort_columns(cohort) == cohort_columns(parse_cohort(final))


LAST = HEADER + ROWS
LAST_LINE = len(ROWS.splitlines(keepends=True)[-1])


@pytest.mark.parametrize("text, chunk, final", [
    # past the first window the file holds fewer bytes than the first pass read
    (LATE, 64, HEADER + "x,,5,death\n"),
    # the window of the last line finds it without its "\n"
    (LAST, len(LAST) - LAST_LINE, LAST[:-1]),
    # rows come in behind the first window: more rows than the first pass counted
    (LATE, 64, LATE[:102] + "".join(f"x{i},,1,death\n" for i in range(5)) + LATE[102:]),
], ids=["shrinks", "loses-its-last-newline", "grows"])
def test_a_file_that_changes_during_the_second_pass_reads_as_its_final_bytes(tmp_path, text,
                                                                             chunk, final):
    path = tmp_path / "cohort.csv"
    path.write_text(text)
    split_rows, changed = pafmsm.cohort._split_rows, []

    def change(*window):  # the file is rewritten once its first window is read
        rows = split_rows(*window)
        if not changed:
            changed.append(path.write_text(final))
        return rows

    assert LATE[:102].endswith("\n") and final != text
    with mock.patch.object(pafmsm.cohort, "_PARSE_CHUNK", chunk), \
            mock.patch.object(pafmsm.cohort, "_split_rows", change):
        cohort = parse_cohort(path)
    assert changed and cohort_columns(cohort) == cohort_columns(parse_cohort(final))


def test_a_parse_from_a_path_keeps_the_columns_it_fills(tmp_path):
    # the windows' rows go straight into columns allocated once: the
    # cohort keeps them, and a blank row leaves one unused at the end
    path = tmp_path / "cohort.csv"
    path.write_text(LATE + "\n")
    with mock.patch.object(pafmsm.cohort, "_PARSE_CHUNK", 64):
        cohort = parse_cohort(path)
    assert len(cohort) == 24 and cohort.end.base.size == 25 and not cohort.end.flags.writeable


def test_a_mixed_covariate_is_decided_over_the_whole_column():
    numbers = "".join(f"s{i},,{i + 1},death,{i}\n" for i in range(12))
    text = "id,inf_time,end_time,end_status,site\n" + numbers + "a,,5,death, north \nb,,5,death,2\n"
    name, dtype, cells = assert_chunks_read_as_one(text)[6][0]
    assert (name, dtype) == ("site", "|O")
    assert cells == repr([float(i) for i in range(12)] + ["north", 2.0])
    # the same column without the text rows is float64
    assert assert_chunks_read_as_one(text.replace("a,,5,death, north \n", ""))[6][0][1] == "<f8"


def test_parse_errors_come_in_file_order():
    # a bad cell before an over-long field: the csv.reader of the whole
    # file used to read every record first and report the field limit
    text = HEADER + "A,x,5,death\nB,," + "9" * 140_000 + ",death\n"
    assert parse_both_ways(text) == ("ParseError", "row 2: bad inf_time 'x'", 2)


def parse_peak(source):
    """The ``tracemalloc`` peak of ``parse_cohort(source)``, in bytes."""
    tracemalloc.start()
    try:
        parse_cohort(source)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def registry_text(**covariates):
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100, censor_rate=0.01)
    cohort = simulate_cohort(spec, 50_000, seed=1)
    return cohort_to_csv(Cohort.from_columns(cohort.ids, cohort.inf, cohort.end, cohort.status,
                                             covariates))


def test_parse_memory_stays_within_one_chunk_of_cells():
    # a parse holds the kept columns (1.5 MB: the ids stay bytes), the
    # bytes of the text and the cells of one window: 4.68 MB; the cells of
    # the whole file took 19.5 MB, and the ids as strings 8.6 MB
    assert parse_peak(registry_text()) < 4.92e6


def test_parse_memory_of_1e5_registry_rows_stays_below_that_of_gathered_ids():
    # the bytes of the benchmark's 1e5-row registry file: 9.27 MB when every
    # window gathered its ids' bytes, 8.68 MB with ids of up to 8 bytes as
    # words, and 4.96 MB read through a window buffer, not a copy of the bytes
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100, censor_rate=0.01)
    data = cohort_to_csv(simulate_cohort(spec, 100_000, seed=7)).encode()
    assert parse_peak(data) < 5.21e6


def test_a_file_its_bytes_and_its_text_are_read_in_the_same_few_windows(tmp_path):
    # a window costs about the same whatever its size: a parse reads as few
    # as windows of _PARSE_CHUNK bytes cut at line ends allow
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100, censor_rate=0.01)
    text = cohort_to_csv(simulate_cohort(spec, 100_000, seed=1))
    data = text.encode()
    path = tmp_path / "registry.csv"
    path.write_bytes(data)
    longest = max(map(len, data.splitlines(keepends=True)))
    windows = []
    for source in (path, data, text):
        with mock.patch.object(pafmsm.cohort, "_read_rows", wraps=pafmsm.cohort._read_rows) as read:
            parse_cohort(source)
        windows.append(read.call_count)
    assert windows[0] <= math.ceil(len(data) / (pafmsm.cohort._PARSE_CHUNK - longest))
    assert windows == [windows[0]] * 3


def test_parse_memory_of_text_and_bytes_is_that_of_the_same_file_by_path(tmp_path):
    # bytes are read through an io.BytesIO over them, and text once
    # encoded, by the loop that reads a file; each read whole into one
    # buffer peaked at 4.55 MB for these 50 000 rows, against 2.96 MB by path
    text = registry_text()
    path = tmp_path / "cohort.csv"
    path.write_text(text)
    data = text.encode()
    by_path = parse_peak(path)
    assert parse_peak(data) <= 1.02 * by_path
    assert parse_peak(text) <= 1.02 * (by_path + len(data))


def test_csv_writer_memory_stays_within_four_times_the_file():
    # the chunks' text and their join (2x), the id offsets and one chunk's
    # matrix: 3.0x; the per-row writer held lists of row strings, 7.3x
    spec = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100, censor_rate=0.01)
    cohort = simulate_cohort(spec, 100_000, seed=1)
    tracemalloc.start()
    try:
        text = cohort_to_csv(cohort)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_parse_memory_from_a_path_stays_within_one_window_of_cells(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text(registry_text())
    assert parse_peak(path) < 7e6


def test_parse_memory_with_a_text_covariate_stays_within_one_window_of_cells():
    # a text cell in every window: each window splits its rows into str cells
    site = np.random.default_rng(1).choice(["north", "south", "east", "west"], 50_000)
    text = registry_text(site=site.astype(object))
    split_rows = mock.patch.object(pafmsm.cohort, "_split_rows", wraps=pafmsm.cohort._split_rows)
    with mock.patch.object(_Cells, "numbers", autospec=True, side_effect=_Cells.numbers) as by_str, \
            split_rows as windows:
        assert parse_cohort(text).covariates["site"].tolist() == site.tolist()
    assert windows.call_count > 1 and by_str.call_count == windows.call_count
    assert parse_peak(text) < 11e6  # 9.5 MB; 12.1 MB with the ids as strings


# (cell, read from its bytes): decimals of at most 16 bytes whose digits
# make an integer m <= 2**53 are; the decoder leaves any other cell to
# ``float``, one by one, and a column reaches ``_text_column`` only if
# ``float`` rejects a cell of it
DECIMAL_CELLS = [
    ("4.", True), (".5", True), ("007", True), ("0.0", True), ("999999", True), ("3.0625", True),
    ("", True), (".", False), ("1.2.3", False), ("1_0", False), ("\u0663", False),
    ("+1", False), ("-0", False), ("1234567", True), ("1e1", False), (" 1", False),
    ("15.4584950304", True), ("0.300747995124", True), ("0.000123456789012", False),
    ("2.4816497366e-05", False), ("9007199254740992", True), ("9007199254740993", False),
    (".123456789012345", True), ("123456789012345.", True),
]
FLOAT_REJECTS = {".", "1.2.3"}


@pytest.mark.parametrize("cell, decoded", DECIMAL_CELLS)
def test_a_short_decimal_cell_is_decoded_to_the_bits_of_float(cell, decoded):
    cells = byte_cells(HEADER + f"A,,{cell},death\nB,,5,death\n")
    assert _short_decimals(cells.raw, *cells._bounds(2))[1].tolist() == [decoded, True]
    with mock.patch.object(pafmsm.cohort, "_text_column", wraps=_text_column) as by_text:
        values, blank, number = cells.numbers([2])[0]
    assert by_text.called == (cell in FLOAT_REJECTS)
    expected = _text_column([cell, "5"])[1:]
    assert values.tobytes() == expected[0].tobytes()
    assert (blank.tolist(), number.tolist()) == (expected[1].tolist(), expected[2].tolist())
    if cell and cell not in FLOAT_REJECTS:
        assert values[:1].tobytes() == np.float64(float(cell)).tobytes()


def test_the_decoder_gives_the_bits_of_float_at_every_offset():
    # 200 000 random cells of 1-16 bytes of digits and dots, each read
    # with its first byte at every offset mod 8 behind digits of the cell
    # before it; the first cell's 16 bytes start before the text
    rng = np.random.default_rng(20)
    n = 200_000
    length = rng.integers(1, 17, n)
    cells = rng.integers(ord("0"), ord("9") + 1, (n, 16)).astype(np.uint8)
    for _ in range(2):  # none, one or two dots
        dotted = rng.random(n) < 0.45
        cells[dotted, rng.integers(0, length[dotted])] = ord(".")
    cells = ["9825979.1"] + [row[:k].tobytes().decode() for row, k in zip(cells, length)]
    length = np.array([len(cell) for cell in cells])

    def by_float(cell):
        try:
            return float(cell)
        except ValueError:
            return math.nan

    expected = np.array([by_float(cell) for cell in cells])
    for offset in range(8):
        # the id cells before each inf_time cell put its first byte at the offset
        pad = np.empty(length.size, int)
        pad[0] = (offset - len(HEADER) - 1) % 8
        pad[1:] = (-length[:-1] - len(",1,death\n") - 1) % 8
        text = HEADER + "".join(f"{'1' * k},{cell},1,death\n"
                                for k, cell in zip(pad.tolist(), cells))
        window = byte_cells(text)
        starts, sizes = window._bounds(1)
        assert (starts % 8 == offset).all() and (sizes == length).all()
        values, ok = _short_decimals(window.raw, starts, sizes)
        assert values[ok].tobytes() == expected[ok].tobytes()
        # every cell of at most 15 bytes that float reads is decoded
        assert ok[(length <= 15) & ~np.isnan(expected)].all()
    assert ok[0] and ok.mean() > 0.5


@pytest.mark.parametrize("cell, matched", [
    ("death", True), ("discharge", True), ("censored", True), ("Death", False), ("deat", False),
    ("death ", False), ("dischargE", False), ("censore", False), ("", False),
])
def test_a_status_is_matched_byte_for_byte_or_read_as_text(cell, matched):
    cells = byte_cells(HEADER + f"A,,5,{cell}\nB,,5,death\n")
    with mock.patch.object(_Cells, "statuses", autospec=True,
                           side_effect=_Cells.statuses) as by_text:
        status = cells.statuses(3)
    assert by_text.called != matched
    assert status.tolist() == _Cells([[], [], [], [cell, "death"]]).statuses(3).tolist()


def test_a_whole_day_file_reads_the_same_from_bytes_and_by_csv_reader():
    # 2e4 whole-day rows in several chunks; covariate x (one decimal place)
    # is read from its bytes, z (up to 17 digits) mostly by float, cell by
    # cell: no column takes the str path
    cohort = simulate_cohort(icu_like_spec(round_days=True), 20_000, seed=5)
    rng = np.random.default_rng(5)
    x = np.round(rng.uniform(0, 10, len(cohort)), 1)
    text = cohort_to_csv(Cohort.from_columns(cohort.ids, cohort.inf, cohort.end, cohort.status,
                                             {"x": x}))
    with mock.patch.object(pafmsm.cohort, "_text_column", wraps=_text_column) as by_float:
        parse_cohort(text)
    assert not by_float.called  # every number read from its bytes
    assert parse_both_ways(text)[6] == [("x", "<f8", x.tobytes())]
    z = rng.normal(size=len(cohort))
    text = cohort_to_csv(Cohort.from_columns(cohort.ids, cohort.inf, cohort.end, cohort.status,
                                             {"x": x, "z": z}))
    with mock.patch.object(pafmsm.cohort, "_text_column", wraps=_text_column) as by_float:
        parse_cohort(text)
    assert not by_float.called
    columns = parse_both_ways(text)
    assert columns[1:4] == (cohort.inf.tobytes(), cohort.end.tobytes(), cohort.status.tobytes())
    assert columns[6] == [("x", "<f8", x.tobytes()), ("z", "<f8", z.tobytes())]


@pytest.mark.parametrize("form", ["bytes", "str", "path"])
@pytest.mark.parametrize("last", ["", "d", "discharg"])
def test_a_short_last_status_cell_is_a_parse_error(tmp_path, form, last):
    # the last cell of the data, shorter than "discharge": its ninth byte
    # lies past the buffer's padding and was read as such (an IndexError)
    text = f"id,inf_time,end_time,end_status\n1,,3,{last}"
    path = tmp_path / "cohort.csv"
    path.write_text(text)
    source = {"bytes": text.encode(), "str": text, "path": path}[form]
    with pytest.raises(ParseError, match=f"^row 2: unknown status '{last}'$"):
        parse_cohort(source)
