"""``cohort_to_csv`` against the per-row writer it replaced, the ids of
simulated and subset cohorts, and the pinned bytes of written tables."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pafmsm._bytes
import pafmsm.cohort
from pafmsm import Cohort, DataError, HazardSpec, cohort_to_csv, icu_like_spec, parse_cohort
from pafmsm import estimate_paf, simulate_cohort
from pafmsm._bytes import _CSV_CHUNK
from pafmsm.cli import run
from pafmsm.cohort import _ABSENT, _IdBytes

REGISTRY = HazardSpec.constant(0.05, 0.05, 0.02, 0.05, 0.03, tau=100.0, censor_rate=0.01)
STATUS_NAMES = ("censored", "death", "discharge")


def reference_quoted(cells):
    """Text cells as ``csv`` writes them: a cell holding a comma, a quote or
    a line break is quoted, with its quotes doubled; others are as given."""
    cells = list(cells)
    joined = "".join(cells)
    if not any(s in joined for s in ',"\r\n'):
        return cells
    return ['"' + c.replace('"', '""') + '"' if any(s in c for s in ',"\r\n') else c
            for c in cells]


def reference_cohort_csv(cohort):
    """The per-row writer: each time as ``format(t, ".12g")`` (NaN blank),
    then one ``",".join`` per row and one ``"\\n".join`` of the rows."""
    times = [",".join("" if t != t else format(t, ".12g") for t in row)
             for row in zip(cohort.inf.tolist(), cohort.end.tolist())]
    columns = [reference_quoted(map(str, cohort.ids)), times,
               [STATUS_NAMES[s] for s in cohort.status.tolist()]]
    for column in cohort.covariates.values():
        columns.append(reference_quoted("" if v is _ABSENT else f"{v}" for v in column.tolist()))
    lines = [",".join(reference_quoted(["id", "inf_time", "end_time", "end_status",
                                        *cohort.covariate_names()]))]
    lines += map(",".join, zip(*columns))
    return "\n".join(lines) + "\n"


def id_bytes(ids):
    """Distinct ids as the ``_IdBytes`` a parse or ``simulate_cohort`` hands
    to a cohort (no id holds a "," or a quote): as words alone if none has
    more than 8 bytes; ids of over 16 bytes, which a parse would not keep
    as bytes, get a distinct word each."""
    ids = _IdBytes.of("".join(i + "," for i in ids).encode(),
                      np.array([len(i.encode()) for i in ids], np.intp))
    if ids.words is None:
        ids.words = np.arange(ids.length.size, dtype=np.uint64)
    return ids


# the bytes of parsed ids: "!" to "~" without the separator and the quote
PLAIN = "".join(chr(c) for c in range(ord("!"), 0x7F) if chr(c) not in ',"')
TRICKY = [",", '"', "\r", "\n", "\r\n", "\0", "é", "€", "\U0001f600", "\ud800", " ", "nan"]
SPECIAL_TIMES = [5e-324, 1e-300, 1e-5, 0.1, 1 / 3, 1.0, 99.5, 123456789012.5, 1e12, 1e15, 1e308]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, 1 / 3, -1e-7, 2.0]


def texts(plain, max_size=40):
    alphabet = st.sampled_from(PLAIN) if plain else st.one_of(
        st.sampled_from(PLAIN + " "), st.sampled_from(TRICKY), st.characters())
    return st.lists(alphabet, max_size=max_size).map("".join)


@st.composite
def cohorts(draw):
    """A cohort of 0 to 4097 rows, its ids ``_IdBytes`` or ``str``, and
    whether they are bytes: filler ids of a drawn width (0 to 40 bytes), a
    few drawn ids among them, times with the extremes of the float range,
    and covariate columns of floats or of text, floats and absent cells."""
    n = draw(st.sampled_from([0, 1, 2, 7, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1]))
    as_bytes = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width, fill = draw(st.integers(0, 40)), draw(st.sampled_from("x0~" if as_bytes else "x é"))
    ids = [fill * (width - len(str(k))) + str(k) for k in range(n)]
    for sid in draw(st.lists(texts(as_bytes), max_size=6, unique=True)):
        if n and sid not in ids:
            ids[rng.integers(n)] = sid
    end = np.where(rng.random(n) < 0.3, rng.choice(SPECIAL_TIMES, n), 10.0 ** rng.uniform(-320, 308, n))
    inf = end * rng.uniform(0, 1, n)
    inf[(rng.random(n) < 0.4) | ~((inf > 0) & (inf < end))] = np.nan
    status = rng.integers(0, 3, n)
    covariates = {}
    for k, kind in enumerate(draw(st.lists(st.sampled_from(["float", "text"]), max_size=3))):
        name = draw(texts(False, 8)) + str(k)
        if kind == "float":
            covariates[name] = np.where(rng.random(n) < 0.5, rng.choice(SPECIAL_FLOATS, n),
                                        rng.normal(size=n))
        else:
            pool = draw(st.lists(texts(False), min_size=1, max_size=5)) + [_ABSENT, 1.5, -0.0, 3]
            covariates[name] = np.array([pool[i] for i in rng.integers(len(pool), size=n)], object)
    ids = id_bytes(ids) if as_bytes else ids
    return Cohort.from_columns(ids, inf, end, status, covariates), as_bytes


@settings(max_examples=60)
@given(cohorts())
@example((Cohort.from_columns(["a\0b", "\r", '"q"', "é\0", ""], [np.nan, 5e-324] + [np.nan] * 3,
                              [1e308, 1.0, 1e-5, 2.0, 3.0], [0, 1, 2, 1, 0],
                              {"x,\n": np.array([_ABSENT, "\0", 1.5, -0.0, "a\"b"], object),
                               "f": np.array([0.0, -0.0, np.nan, 5e-324, -np.inf])}), False))
def test_cohort_csv_is_the_per_row_writer_byte_for_byte(drawn):
    cohort, as_bytes = drawn
    text = cohort_to_csv(cohort)
    assert ("_id_bytes" in cohort.__dict__) == as_bytes  # written without id strings
    assert text == reference_cohort_csv(cohort)


def test_a_chunk_of_long_text_is_halved_and_written_the_same():
    # a 2 MB id and 300-byte ids pad a chunk past 1 MB; NUL and non-ASCII
    # bytes in a cell past the first word
    n = _CSV_CHUNK + 3
    ids = [f"{k:0300d}" for k in range(n)]
    ids[5], ids[_CSV_CHUNK] = "y" * 2_000_000, "é\0" * 20 + "z"
    end = np.arange(1.0, n + 1)
    cohort = Cohort.from_columns(ids, np.full(n, np.nan), end, np.ones(n, int), {"note": ids[::-1]})
    with mock.patch.object(pafmsm._bytes, "_padded", wraps=pafmsm._bytes._padded) as padded:
        assert cohort_to_csv(cohort) == reference_cohort_csv(cohort)
    # the status names are padded once; then each chunk pads its ids and notes
    rows = [call.args[1].size for call in padded.call_args_list[1::2]]
    assert sum(rows) == n and max(rows) < _CSV_CHUNK and min(rows) == 1
    long_ids = Cohort.from_columns(id_bytes([f"{k:0300d}" for k in range(n)]), np.full(n, np.nan),
                                   end, np.ones(n, int))
    assert cohort_to_csv(long_ids) == reference_cohort_csv(long_ids)


@pytest.mark.parametrize("make", [
    lambda: simulate_cohort(REGISTRY, 3000, seed=2),
    lambda: simulate_cohort(icu_like_spec(round_days=True), 3000, seed=2),
], ids=["registry", "whole-day"])
def test_a_written_cohort_parses_back_to_its_columns(make):
    cohort = make()
    rng = np.random.default_rng(4)
    x = rng.normal(size=len(cohort))
    site = rng.choice(["north", "south, east", 'the "west"'], len(cohort)).astype(object)
    cohort = Cohort.from_columns(cohort.ids, cohort.inf, cohort.end, cohort.status,
                                 {"x": x, "site": site})
    text = cohort_to_csv(cohort)
    again = parse_cohort(text)
    assert again.ids.tolist() == cohort.ids.tolist()
    assert again.status.tolist() == cohort.status.tolist()
    # times are written to 12 digits, covariates by repr
    for name in ("inf", "end"):
        written = [math.nan if t != t else float(format(t, ".12g"))
                   for t in getattr(cohort, name).tolist()]
        assert getattr(again, name).tobytes() == np.array(written).tobytes()
    assert again.covariates["x"].tobytes() == x.tobytes()
    assert again.covariates["site"].tolist() == site.tolist()
    assert cohort_to_csv(again) == text


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 10**5])
def test_simulated_ids_are_the_row_numbers(n):
    cohort = simulate_cohort(REGISTRY, n, seed=1)
    assert "_id_bytes" in cohort.__dict__
    assert list(cohort.ids) == [str(i) for i in range(n)]


@pytest.mark.parametrize("n", [1, 10, 11, 10**5])
def test_simulated_id_words_are_those_a_parse_of_the_csv_reads(n):
    ids = simulate_cohort(REGISTRY, n, seed=1).__dict__["_id_bytes"]
    text = "id,inf_time,end_time,end_status\n" + "".join(f"{k},,1,death\n" for k in range(n))
    parsed = parse_cohort(text).__dict__["_id_bytes"]
    assert ids.gathered is None and parsed.gathered is None  # words alone
    assert ids.words.tobytes() == parsed.words.tobytes()
    assert ids.length.tolist() == parsed.length.tolist()


def test_ids_of_9_to_16_bytes_have_the_words_a_parse_reads():
    ids = ["123456789", "A" * 16, "x", "12345678", "B23456789"]
    text = "id,inf_time,end_time,end_status\n" + "".join(f"{i},,1,death\n" for i in ids)
    parsed = parse_cohort(text).__dict__["_id_bytes"]
    assert parsed.gathered is not None
    made = id_bytes(ids)
    assert made.words.tobytes() == parsed.words.tobytes()
    assert made.data() == parsed.data() == "".join(i + "," for i in ids).encode()


# sha256 of cohort_to_csv(simulate_cohort(spec, 10**5, seed)) as the per-row writer wrote it
@pytest.mark.parametrize("spec, seed, digest", [
    (REGISTRY, 1, "f3a5feb1ffa096d7d1fe558695fbbe122c0ccb1ad9fb8dd5ad80b5d39dad60b8"),
    (REGISTRY, 2, "0bbec977136b7b423a276ca8f981ec8ff6327f888ffd798d19c4b79c81df7b6e"),
    (REGISTRY, 3, "5e9400630cdcf3ed4458669cd6bccac8747e2fd96191791801d3c51cbb0cb93c"),
    (icu_like_spec(round_days=True), 1,
     "852942c50763594b04cd986ac95bfb8a5995114971325658da819a450ac55fdc"),
], ids=["registry-1", "registry-2", "registry-3", "whole-day-1"])
def test_simulated_cohort_csv_keeps_its_pinned_bytes(spec, seed, digest):
    text = cohort_to_csv(simulate_cohort(spec, 10**5, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of StepCurve.to_csv of estimate_paf(simulate_cohort(REGISTRY, 10**5, 1), estimand),
# and of the oracle table, as written before _csv_table replaced the two writers
@pytest.mark.parametrize("estimand, digest", [
    ("paf_o", "4469d6ccc066bb8bb5bf8b2838f212d560547b5a1a1cc9b227c8eea0d876459a"),
    ("paf_c", "1da68fab1de4ff9a064d6860084ae8642818460dcbfe6c2a72fad25fba6fdd56"),
])
def test_curve_csv_keeps_its_pinned_bytes(estimand, digest):
    text = estimate_paf(simulate_cohort(REGISTRY, 10**5, 1), estimand).to_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_oracle_csv_keeps_its_pinned_bytes(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(icu_like_spec().to_json())
    assert run(["oracle", "--spec", str(spec), "--step", "0.01", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "oracle.csv").read_bytes()
    assert hashlib.sha256(text).hexdigest() == (
        "a50d51767f2b11574ea9d0fd5260ac1f9bfbd585b1d3435068996f2bef42f5f9")


def test_a_subset_by_mask_keeps_id_bytes_and_tests_no_repeat():
    cohort = simulate_cohort(REGISTRY, 500, seed=3)
    kept = cohort.status != 0
    expected = [str(i) for i in np.flatnonzero(kept)]
    with mock.patch.object(pafmsm.cohort, "set", create=True, wraps=set) as sets:
        subset = cohort.subset(kept)
        assert "_id_bytes" in subset.__dict__ and "_id_bytes" in cohort.__dict__
        assert cohort_to_csv(subset) == reference_cohort_csv(subset)
        assert subset.ids.tolist() == expected
        strings = subset.subset(subset.end > 10)  # from the id strings, read now
        assert "_id_bytes" not in strings.__dict__
    assert not sets.called
    assert strings.ids.tolist() == [i for i, e in zip(expected, subset.end) if e > 10]
    assert (subset.inf.tobytes(), subset.end.tobytes(), subset.status.tobytes()) == (
        cohort.inf[kept].tobytes(), cohort.end[kept].tobytes(), cohort.status[kept].tobytes())


def test_a_subset_by_index_still_tests_for_a_repeat():
    cohort = simulate_cohort(REGISTRY, 20, seed=3)
    assert cohort.subset(np.arange(1, 12)).ids.tolist() == [str(i) for i in range(1, 12)]
    with pytest.raises(DataError, match="^duplicate subject id '3'$"):
        cohort.subset([3, 4, 3])
