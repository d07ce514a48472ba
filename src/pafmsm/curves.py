"""Right-continuous step functions, the common output type of all estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StepCurve", "union_grid"]

_CSV_CHUNK = 4096  # rows formatted per write by the CSV writers

# The CSV writers print each float cell as format(v, ".12g") does, from its
# bytes.  A cell with 1e-4 <= |v| < 1e12 is fixed-point text: its correctly
# rounded 12-digit significand m (1e11 <= m < 1e12) and decimal exponent e
# (-4 <= e <= 11), with the trailing zeros of the fraction dropped.  A cell
# is written as six 4-byte words, NUL-padded, and one bytes.translate per
# chunk deletes the padding:
#   prefix (2 words)  the separator ("," or "\n"), a "-", and "0." with
#                     -e - 1 zeros when e < 0;
#   groups (4 words)  m's digits in groups of three, each group with the
#                     point after its digit q (0: none) and only its first
#                     c digits kept: one of 4 x 4 variants of 1000 words.
# The other cells are fixed words (blank or "nan", "inf", "-inf", "0", "-0")
# or written by format itself.
_SPECIALS = (b"", b"nan", b"inf", b"-inf", b"0", b"-0")
_CODES = 2 * 16 * 13  # a fixed-point cell's code is (sign, e + 4, digits kept)
_SCALE = 10.0 ** (15 - np.arange(16))  # 10**(11 - e) at e + 4, each exact
_DIVISORS = np.array([1e9, 1e6, 1e3, 1.0])[:, None]
_GROUP_END = np.array([0, 3, 6, 9], np.int8)[:, None]


def _pack(texts, size):
    """(len(texts) x size) uint8: each text NUL-padded to ``size`` bytes."""
    return np.frombuffer(b"".join(t.ljust(size, b"\0") for t in texts),
                         np.uint8).reshape(-1, size)


def _csv_tables():
    """The kernel's word table, the last-digit table of a group and the
    (6 x codes) table of each word's offset into the word table."""
    g = np.arange(1000)
    digits = np.stack([g // 100, g // 10 % 10, g % 10], axis=1).astype(np.uint8) + ord("0")
    groups = np.zeros((4, 4, 1000, 4), np.uint8)
    for q in range(4):
        for c in range(q, 4):
            text = [digits[:, :q], np.full((1000, int(q > 0)), ord(".")), digits[:, q:c]]
            groups[q, c, :, : c + (q > 0)] = np.concatenate(text, axis=1)
    prefixes = [sep + sign + zeros for sep in (b",", b"\n") for sign in (b"", b"-")
                for zeros in (b"", b"0.", b"0.0", b"0.00", b"0.000")]
    words = np.concatenate([groups.reshape(-1, 4), _pack(_SPECIALS, 4),
                            _pack(prefixes, 8).reshape(-1, 4)])
    specials, prefix = 16000, 16000 + len(_SPECIALS)
    # position of a group's last nonzero digit; a zero group never wins the max
    last = np.select([g % 10 > 0, g % 100 > 0, g > 0], [3, 2, 1], -64).astype(np.int8)
    sign, e, kept = np.ogrid[:2, -4:12, :13]
    offsets = np.zeros((6, 2, 16, 13), np.intp)
    offsets[0] = prefix + 2 * (5 * sign + np.maximum(-e, 0))
    offsets[1] = offsets[0] + 1
    for j in range(4):
        point = e + 1 - 3 * j  # the point follows digit e + 1, if a digit follows it
        point = np.where((e >= 0) & (kept > e + 1) & (point >= 1) & (point <= 3), point, 0)
        offsets[2 + j] = 1000 * (4 * point + np.clip(kept - 3 * j, 0, 3))
    special = np.zeros((6, len(_SPECIALS)), np.intp)
    special[:2] = [[prefix], [prefix + 1]]
    special[2] = specials + np.arange(len(_SPECIALS))
    return (words.view(np.uint32).ravel(), last,
            np.concatenate([offsets.reshape(6, -1), special], axis=1))


_WORDS, _LAST_DIGIT, _OFFSETS = _csv_tables()


def _buffers(cells):
    """The kernel's largest temporaries for chunks of up to ``cells`` cells,
    made once per writer call, not per chunk."""
    return (np.empty(4 * cells), np.empty(4 * cells, np.intp),
            np.empty(6 * cells, np.intp), np.empty(6 * cells, np.uint32))


def _csv_cells(v, sep, width, first_as_is, buffers):
    """The cells of ``v`` (rows of ``width`` cells, flattened) as (6 x cells)
    words of ASCII bytes and NUL padding, a view of ``buffers``; each cell
    starts with its separator (``sep``: 0 for ",", 20 for "\\n", per cell
    or one for all)."""
    n = v.size
    q, group = (b[: 4 * n].reshape(4, n) for b in buffers[:2])
    index, words = (b[: 6 * n].reshape(6, n) for b in buffers[2:])
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.abs(v)
        e = np.log10(a)
        np.floor(e, out=e)
        np.fmax(e, -4.0, out=e)  # fmax and fmin send NaN to the bounds
        np.fmin(e, 11.0, out=e)
        e4 = e.astype(np.intp)
        e4 += 4
        # One rounding of an exact product, and y < 2**40: y is within 2**-14
        # of a * 10**(11 - e), so rint(y) is its correctly rounded integer
        # unless y is within 2**-12 of a tie.
        y = _SCALE.take(e4)
        y *= a
        m = np.rint(y)
        # format writes the other cells: |v| out of range, e missed by log10
        # near a power of ten, v rounding up to the next power, near-ties
        ok = (y >= 1e11) & (m < 1e12)
        y -= m
        np.abs(y, out=y)
        ok &= y <= 0.5 - 2.0**-12
    bad = np.flatnonzero(~ok)
    m[bad] = 0.0
    np.divide(m, _DIVISORS, out=q)  # exact floors: m < 1e12
    np.floor(q, out=q)
    q[1:] -= 1000.0 * q[:-1]
    np.copyto(group, q, casting="unsafe")
    last = _LAST_DIGIT.take(group)
    last += _GROUP_END
    # digits kept: up to the last nonzero one, and every one of the e + 1 integer digits
    code = np.maximum(last.max(axis=0), e4 - 3)
    code += 13 * e4
    code += (v < 0) * (16 * 13)
    if bad.size:
        x = v[bad]
        nan, inf, zero = np.isnan(x), np.isinf(x), x == 0
        kind = 2 * inf + 4 * zero + np.signbit(x) * (inf | zero)
        if first_as_is:
            kind += nan & (bad % width == 0)
        code[bad] = _CODES + kind
    np.take(_OFFSETS, code, axis=1, out=index, mode="clip")  # unbuffered: codes are in range
    index[2:] += group
    index[:2] += sep
    np.take(_WORDS, index, out=words, mode="clip")
    if bad.size:
        other = bad[~(nan | inf | zero)]
        if other.size:  # each cell's separator is the low byte of its first word
            text = [bytes([s]) + format(x, ".12g").encode()
                    for s, x in zip((words[0, other] & 0xFF).tolist(), v[other].tolist())]
            words[:, other] = _pack(text, 24).view(np.uint32).T
    return words


def _csv_rows(columns, first_as_is=True):
    """CSV rows of equal-length float ``columns``, ``_CSV_CHUNK`` rows at a
    time: each cell as ``format(v, ".12g")`` (``inf``, ``-0``), a NaN cell
    blank, except in a first column kept ``first_as_is``."""
    width, n = len(columns), len(columns[0])
    if not n:
        return
    sep = np.zeros((min(n, _CSV_CHUNK), width), np.intp)
    sep[:, 0] = 20  # each row's first cell follows the "\n" of the row before
    sep = sep.ravel()
    buffers = _buffers(sep.size)
    for k in range(0, n, _CSV_CHUNK):
        block = np.column_stack([c[k : k + _CSV_CHUNK] for c in columns]).ravel()
        words = _csv_cells(block, sep[: block.size], width, first_as_is, buffers)
        text = words.T.tobytes().translate(None, b"\0").decode("ascii")
        yield text[1:] if k == 0 else text  # the first row follows no "\n"
    yield "\n"


@dataclass(frozen=True)
class StepCurve:
    """Piecewise-constant, right-continuous function of time.

    ``value(t)`` is the value attached to the largest jump time <= t, or
    ``initial`` before the first jump.  Evaluation outside the observed
    range clamps to the boundary values.  ``undefined_from`` marks the
    first time from which the curve is not meaningful (e.g. a vanished
    denominator); values there are NaN as well.  ``truncated_from`` marks
    risk-set exhaustion: the curve is frozen beyond that time.
    """

    times: np.ndarray
    values: np.ndarray
    initial: float = 0.0
    undefined_from: float | None = None
    truncated_from: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if not (np.diff(t) > 0).all():  # NaN fails the comparison
            raise ValueError("jump times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        """Evaluate at scalar or array ``t``."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right") - 1
        out = np.where(idx < 0, self.initial, self.values[np.clip(idx, 0, None)])
        if self.undefined_from is not None:
            out = np.where(t >= self.undefined_from, np.nan, out)
        return float(out) if out.ndim == 0 else out

    def to_csv(self) -> str:
        """Two-column CSV ``t,value`` at the jump times (a NaN value blank)."""
        return "".join(["t,value\n", *_csv_rows((self.times, self.values))])


def union_grid(*curves: StepCurve) -> np.ndarray:
    """Union of the jump times of several curves, sorted and de-duplicated."""
    if not curves:
        return np.array([])
    return np.unique(np.concatenate([c.times for c in curves]))
