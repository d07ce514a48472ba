import io

import numpy as np
import pytest

from pafmsm import StepCurve, union_grid
from pafmsm.curves import _CSV_CHUNK, _csv_rows


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


def test_union_grid_merges_and_sorts():
    a = StepCurve(np.array([1.0, 4.0]), np.array([0.0, 0.0]))
    b = StepCurve(np.array([2.0, 4.0]), np.array([0.0, 0.0]))
    np.testing.assert_array_equal(union_grid(a, b), [1.0, 2.0, 4.0])
    assert union_grid().shape == (0,)


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
    columns = (np.array([np.nan, 1.0, -0.0]), np.array([np.nan, np.inf, 2.5]))
    assert "".join(_csv_rows(columns)) == "nan,\n1,inf\n-0,2.5\n"
    assert "".join(_csv_rows(columns, first_as_is=False)) == ",\n1,inf\n-0,2.5\n"
    assert StepCurve(np.array([np.nan]), np.array([np.nan])).to_csv() == "t,value\nnan,\n"


def reference_rows(columns, first_as_is=True):
    """``_csv_rows`` cell by cell: ``format(v, ".12g")``, a NaN blank except
    in a first column kept ``first_as_is``."""
    def cell(v, first):
        return "" if v != v and not (first and first_as_is) else format(v, ".12g")
    return "".join(",".join(cell(v, j == 0) for j, v in enumerate(row)) + "\n"
                   for row in zip(*(c.tolist() for c in columns)))


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
        for first_as_is in (True, False):
            assert "".join(_csv_rows(columns, first_as_is)) == reference_rows(columns, first_as_is)

