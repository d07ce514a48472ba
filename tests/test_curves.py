import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pafmsm import StepCurve, union_grid
from pafmsm._bytes import _CSV_CHUNK, _csv_chunks, _text_cells
from pafmsm.paf import _paf_values, _ratio


def csv_table(header, columns):
    """The text of the one CSV writer, joined."""
    return "".join(_csv_chunks(header, columns))


def reference_to_csv(curve):
    """``StepCurve.to_csv`` as one formatted write per numpy row."""
    buf = io.StringIO()
    buf.write("t,value\n")
    for t, v in zip(curve.times, curve.values):
        buf.write(f"{t:.12g},{'' if np.isnan(v) else format(v, '.12g')}\n")
    return buf.getvalue()


def test_right_continuous_evaluation():
    c = StepCurve(np.array([1.0, 3.0]), np.array([0.5, 0.8]), initial=0.0)
    assert c(0.5) == 0.0
    assert c(1.0) == 0.5
    assert c(2.999) == 0.5
    assert c(3.0) == 0.8
    assert c(10.0) == 0.8


def test_vectorized_call():
    c = StepCurve(np.array([1.0, 2.0]), np.array([0.1, 0.2]))
    np.testing.assert_allclose(c(np.array([0.0, 1.5, 2.5])), [0.0, 0.1, 0.2])


def test_undefined_from_marks_a_nan_tail():
    c = StepCurve(np.array([1.0, 2.0]), np.array([0.1, np.nan]), undefined_from=2.0)
    assert c(1.5) == 0.1
    assert np.isnan(c(2.0))


def test_non_increasing_times_rejected():
    with pytest.raises(ValueError):
        StepCurve(np.array([2.0, 1.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        StepCurve(np.array([1.0, 1.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):  # NaN fails every comparison
        StepCurve(np.array([1.0, np.nan, 3.0]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):  # a lone NaN time too
        StepCurve(np.array([np.nan]), np.array([0.1]))


def test_union_grid_merges_and_sorts():
    a = StepCurve(np.array([1.0, 4.0]), np.array([0.0, 0.0]))
    b = StepCurve(np.array([2.0, 4.0]), np.array([0.0, 0.0]))
    np.testing.assert_array_equal(union_grid(a, b), [1.0, 2.0, 4.0])
    assert union_grid().shape == (0,)


def test_an_empty_curve_is_its_initial_value_everywhere():
    # it raised IndexError, from the gather of its empty values
    c = StepCurve(np.array([]), np.array([]), initial=0.25, undefined_from=2.0)
    assert c(-1.0) == c(1.0) == 0.25 and math.isnan(c(2.0))
    np.testing.assert_array_equal(c(np.array([0.0, 1.5, 2.0, 9.0])), [0.25, 0.25, np.nan, np.nan])
    assert c(np.array([])).shape == (0,)
    paf = _ratio(StepCurve(np.array([1.0]), np.array([0.5])), c)
    np.testing.assert_array_equal(paf.values, [0.5])
    assert paf.undefined_from == 2.0


VALUES = [math.nan, 0.0, -0.0, 1e-13, 1e-12, 0.25, 1 / 3, 1.0, -1.0, math.inf]


@st.composite
def curve_sets(draw, k):
    """``k`` curves whose jump times are drawn from one pool, so that they
    share all, some or none of them, with NaN and other values that the
    PAF formula cuts, and an ``undefined_from`` on either or neither."""
    pool = sorted(draw(st.sets(st.floats(-1e6, 1e300, allow_nan=False), max_size=25)))
    curves = []
    for _ in range(k):
        times = sorted(draw(st.sets(st.sampled_from(pool), max_size=len(pool))) if pool else [])
        values = draw(st.lists(st.sampled_from(VALUES), min_size=len(times), max_size=len(times)))
        cut = draw(st.sampled_from([None, *pool[:3], *pool[-2:], 1e301]))
        curves.append(StepCurve(np.array(times, float), np.array(values, float),
                                initial=draw(st.sampled_from([0.0, math.nan, 0.5])),
                                undefined_from=cut))
    return curves


def outcome(curve):
    """The grid, values and cut of ``curve``, as bytes."""
    return curve.times.tobytes(), curve.values.tobytes(), repr(curve.initial), curve.undefined_from


def reference_paf_values(pd, q):
    """``_paf_values`` as it was: (pd - q) / pd on every point, kept where
    both are finite and pd > 0."""
    defined = np.isfinite(pd) & np.isfinite(q) & (pd > 1e-12)
    with np.errstate(invalid="ignore"):  # inf - inf where both are inf
        return np.where(defined, (pd - q) / np.where(defined, pd, 1.0), np.nan)


def reference_ratio(overall, subtracted):
    """``_ratio`` as it was: the grid by ``np.union1d``, and each curve on
    it by ``StepCurve.__call__`` (one ``searchsorted`` each)."""
    grid = np.union1d(overall.times, subtracted.times)
    values = reference_paf_values(np.atleast_1d(overall(grid)), np.atleast_1d(subtracted(grid)))
    undef = [c.undefined_from for c in (overall, subtracted) if c.undefined_from is not None]
    return StepCurve(grid, values, initial=np.nan, undefined_from=min(undef) if undef else None)


def curve(times, values, undefined_from=None):
    return StepCurve(np.array(times, float), np.array(values, float), undefined_from=undefined_from)


@settings(max_examples=300)
@given(curve_sets(2))
@example([curve([], []), curve([], [])])
@example([curve([], []), curve([1.0], [0.5])])
@example([curve([1.0, 2.0], [0.5, 0.4]), curve([], [])])
@example([curve([1.0, 2.0, 3.0], [0.5, 0.25, math.nan]), curve([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])])
@example([curve([1.0, 3.0], [0.5, 0.25], 3.0), curve([2.0, 4.0], [0.1, 0.2])])
@example([curve([1.0, 2.0, 5.0], [0.5, 0.2, 0.3]), curve([2.0, 4.0, 5.0], [0.1, 0.2, 0.3], 4.5)])
@example([curve([0.0], [math.inf]), curve([0.0], [math.inf])])
def test_the_merged_ratio_is_the_union_and_searches_bit_for_bit(curves):
    # an empty curve is its initial value on the grid (it raised IndexError);
    # two curves both inf at a point are NaN there (inf - inf raised a
    # RuntimeWarning, an error in this suite)
    assert outcome(_ratio(*curves)) == outcome(reference_ratio(*curves))
    grid = np.union1d(*(c.times for c in curves))
    assert union_grid(*curves).tobytes() == grid.tobytes()


def test_the_ratio_of_two_curves_infinite_at_a_time_is_nan_there():
    # no inf - inf is taken: under this suite's error::RuntimeWarning filter
    # the subtraction raised "invalid value encountered in subtract"
    ratio = _ratio(curve([1.0, 2.0, 3.0], [math.inf, 0.5, math.inf]),
                   curve([1.0, 2.0, 3.0], [math.inf, 0.25, 0.1]))
    assert np.isnan(ratio.values[[0, 2]]).all() and ratio.values[1] == 0.5
    both = np.array([math.inf, -math.inf])
    assert np.isnan(_paf_values(both, both)).all()


@given(st.integers(1, 4).flatmap(curve_sets))
def test_union_grid_of_any_number_of_curves_is_their_union(curves):
    grid = np.unique(np.concatenate([c.times for c in curves]))
    assert union_grid(*curves).tobytes() == grid.tobytes()


@pytest.mark.parametrize("n", [0, 1, _CSV_CHUNK - 1, _CSV_CHUNK, 2 * _CSV_CHUNK + 17])
def test_csv_equals_the_per_row_reference(n):
    rng = np.random.default_rng(n)
    times = np.cumsum(rng.exponential(1.0, n)) * 10.0 ** rng.integers(-8, 8)
    values = rng.normal(0.0, 10.0 ** rng.integers(-300, 300, n).astype(float) / 100.0)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, 1 / 3, 123456789012345.0]
    if n:
        values[rng.integers(0, n, len(specials))] = specials
    curve = StepCurve(times, values)
    assert curve.to_csv() == reference_to_csv(curve)


def test_csv_writes_nan_blank_and_signed_zero():
    c = StepCurve(np.array([0.5, 1.0, 2.0, 3.0]), np.array([-0.0, np.nan, np.inf, -np.inf]))
    assert c.to_csv() == "t,value\n0.5,-0\n1,\n2,inf\n3,-inf\n"


def test_csv_rows_blank_nan_cells_past_the_first_column_or_in_all():
    columns = [np.array([np.nan, 1.0, -0.0]), np.array([np.nan, np.inf, 2.5])]
    assert csv_table(["a", "b"], columns) == "a,b\n,\n1,inf\n-0,2.5\n"
    assert csv_table(["a"], [np.array([np.nan, -np.nan])]) == "a\n\n\n"


def reference_rows(columns):
    """The rows of ``csv_table`` cell by cell: ``format(v, ".12g")``, a NaN blank."""
    def cell(v):
        return "" if v != v else format(v, ".12g")
    return "".join(",".join(map(cell, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))


def powers_of_ten():
    p = 10.0 ** np.arange(-6, 14)
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


def ties():
    k = np.random.default_rng(5).integers(10**11, 10**12, 2000)
    return np.concatenate([[123456789012.5, 0.5, 2.5, 99999999999.5],
                           (k + 0.5) / 10.0 ** (np.arange(2000) % 17)])


def round_up_a_decade():
    x = np.array([9.99999999999949e-05, 9.9999999999995e-05, 99999999999.95, 999999999999.5,
                  9.999999999995, 0.9999999999995, 999999999999.4, 999999999999.6])
    return np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])


def non_finite_zero_and_subnormal():
    return np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308])


def random_decimals():
    rng = np.random.default_rng(6)
    digits = rng.integers(12, 17, 10**5)
    m = rng.integers(10 ** (digits - 1), 10**digits, dtype=np.int64) * rng.choice([-1, 1], 10**5)
    return m / 10.0 ** rng.integers(0, 23, 10**5)  # the double nearest m * 10**-k


def random_bits():
    return np.random.default_rng(7).integers(0, 2**64, 10**5, dtype=np.uint64).view(float)


@pytest.mark.parametrize("values", [powers_of_ten, ties, round_up_a_decade,
                                    non_finite_zero_and_subnormal, random_decimals, random_bits])
def test_csv_rows_write_each_cell_as_format_12g_does(values):
    x = values()
    for columns in [(x, x[::-1]), (x[::-1], -x, x)]:
        header = [f"c{j}" for j in range(len(columns))]
        assert csv_table(header, columns) == ",".join(header) + "\n" + reference_rows(columns)


FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
          0.5, 2.5, 123456789012.5, 999999999999.5, 9.9999999999995e-05, 1 / 3, 0.1, 1e-4, 1e12]
TEXTS = [",", '"', "\r", "\n", "\r\n", "\0", "a\0b", "é", "€", "\U0001f600", "\ud800", "a,b",
         'say "hi"', "", " ", "nan", "plain"]


def csv_line(cells):
    """One row as ``csv`` writes it, a cell with a comma, a quote, a CR or
    a LF quoted, ended by a "\\n"."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(cells)
    return out.getvalue()[:-2] + "\n"


@st.composite
def tables(draw):
    """A header and 2 to 4 columns of 0 to 4097 rows, each of floats, text
    cells one per row, or distinct text cells and a code per row; with the
    cells each column must write."""
    n = draw(st.sampled_from([0, 1, 2, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["float", "text", "coded"]), min_size=2, max_size=4))
    text = st.sampled_from(TEXTS) | st.text(max_size=6)
    header = draw(st.lists(text, min_size=len(kinds), max_size=len(kinds)))
    columns, cells = [], []
    for kind in kinds:
        if kind == "float":
            v = np.where(rng.random(n) < 0.5, rng.choice(FLOATS, n),
                         rng.normal(size=n) * 10.0 ** rng.integers(-320, 308, n))
            columns.append(v)
            cells.append(["" if x != x else format(x, ".12g") for x in v.tolist()])
            continue
        pool = draw(st.lists(text, min_size=1, max_size=6))
        if draw(st.booleans()):  # one a row pads a chunk of 4096 rows past 1 MB: halved
            pool.append("y" * 300)
        code = rng.integers(len(pool), size=n)
        cells.append([pool[k] for k in code.tolist()])
        columns.append(_text_cells(cells[-1]) if kind == "text" else _text_cells(pool, code))
    return header, columns, cells


@settings(max_examples=40, deadline=None)
@given(tables())
def test_csv_table_is_csv_quoting_and_format_12g(table):
    header, columns, cells = table
    assert csv_table(header, columns) == "".join(map(csv_line, [header, *zip(*cells)]))
