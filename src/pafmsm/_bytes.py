"""The byte kernels of the CSV edge: decimal cells and ids read from their
UTF-8 bytes, and CSV tables written as NUL-padded words.

Both give the bits and bytes of the ``float`` and ``format`` calls they
replace.  Every 10**k with k <= 15 (``_POW10``) and every integer up to
2**53 is an exact double, so one operation on two of them is correctly
rounded.  Reading, a decimal cell spells an integer m and a power 10**k:
m / 10**k has the bits of ``float(cell)``, correctly rounded too (Clinger
1990).  Writing, for 1e-4 <= |v| < 1e12 and e = floor(log10|v|), y = |v| *
10**(11 - e) is below 2**40, so within 2**-14 of the exact product: unless
y is within 2**-12 of a half-integer, rint(y) is the correctly rounded
12-digit significand that ``format(v, ".12g")`` prints (Steele & White
1990; Gay 1990).  Cells are read and written as 8-byte words of the bytes
around them: NUL bytes around a buffer keep every read inside it, and one
``bytes.translate`` deletes the NUL padding of written words.
"""

import math

import numpy as np

_SHORT = 16  # bytes of the longest cell that _short_decimals reads, in two words
_PAD = 16  # NUL bytes in front of the text: no cell's two words start before it
_POW10 = np.array([float(10 ** k) for k in range(_SHORT)])  # exact: below 2**53
_EXACT = np.uint64(1 << 53)  # every integer m up to it is an exact double
# _LO_KEEP[n], _HI_KEEP[n]: 0xff in the bytes of a cell of n bytes in the
# word that ends with it and in the word before that
_LO_KEEP = np.array([((1 << 8 * n) - 1) << 64 - 8 * n for n in range(9)], np.uint64)
_HI_KEEP = np.r_[np.zeros(8, np.uint64), _LO_KEEP]
# a word times _BYTE_SUM, shifted right by 56, is the sum of its bytes (if
# below 256); times _BYTES_AFTER, the sum of each byte times the number of
# bytes after it; times _BYTES_AFTER_HI, that number plus the 8 bytes of
# the next word
_BYTE_SUM, _BYTES_AFTER = np.uint64(0x0101010101010101), np.uint64(0x0706050403020100)
_BYTES_AFTER_HI = np.uint64(0x0F0E0D0C0B0A0908)
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so times it is one to one on 64-bit words


def _words(raw):
    """The 8 bytes of ``raw`` from each offset as one little-endian word (a view)."""
    return np.ndarray((raw.size - 7,), "<u8", raw, strides=(1,))


def _byte_sums(words, weights=_BYTE_SUM):
    """The (weighted) sum of the bytes of each word, each byte 0 or 1."""
    return (words * weights) >> np.uint64(56)


def _decimal_value(words):
    """The integer each word spells with one decimal digit (0..9) per byte,
    the first byte most significant: three multiply-and-shift steps join
    digits in pairs, fours and eights (Lemire's eight-digit parse)."""
    words = (words * np.uint64(10 << 8 | 1)) >> np.uint64(8)
    words = ((words & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(100 << 16 | 1)) >> np.uint64(16)
    return ((words & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(10000 << 32 | 1)) >> np.uint64(32)


def _digit_words(raw, at, keep):
    """For each word of ``raw`` at ``at``, and-ed with ``keep``: its digits
    (0 in every other byte), a 1 in each "." byte, and a 1 in each digit
    or "." byte."""
    words = _words(raw)[at]
    words &= keep
    cells = words.view(np.uint8).reshape(-1, 8)
    dot = (cells == ord(".")).view("<u8").ravel()
    cells -= np.uint8(ord("0"))
    is_digit = cells < 10
    cells *= is_digit
    return words, dot, is_digit.view("<u8").ravel() | dot


def _without_dot(words, before):
    """Move the bytes ``before`` (0xff in each) of ``words`` one byte on, in
    place, onto a dot's 0; returns them as they were."""
    moved = words & before
    words ^= moved
    words |= moved << np.uint64(8)
    return moved


def _short_decimals(raw, starts, length):
    """The floats of the cells of ``raw`` at ``starts`` (NaN where blank),
    and whether each is blank or ASCII digits with at most one "." and at
    most ``_SHORT`` bytes that spell an integer m <= 2**53 (every cell of
    at most 15 digits does): those have the bits of ``float(cell)``.

    A cell is read as the 8 bytes that end with it (``lo``) and, if a cell
    of the column is longer than 8 bytes, the 8 before them (``hi``); the
    bytes of earlier cells are set to 0, and ``_PAD`` NUL bytes in front
    of the text keep both reads inside ``raw``.  The digits before the dot
    move one byte on, onto the dot (the last digit of ``hi`` to the front
    of ``lo`` when the dot is in ``lo``), and make m; the bytes after the
    dot give the power 10**k of m / 10**k.
    """
    stops = starts + length
    lo, dot, used = _digit_words(raw, stops - 8, _LO_KEEP.take(length, mode="clip"))
    two = length.max(initial=0) > 8
    if two:  # both words in one byte sum: no byte or sum reaches 256
        hi, hi_dot, hi_used = _digit_words(raw, stops - 16, _HI_KEEP.take(length, mode="clip"))
        n_dot, count = _byte_sums(dot + hi_dot), _byte_sums(used + hi_used)
        k = (dot * _BYTES_AFTER + hi_dot * _BYTES_AFTER_HI) >> np.uint64(56)
        # the bytes of hi before the dot, all of them (0 - 1) if the dot is
        # in lo; then the last digit of hi moves to the front of lo
        last = _without_dot(hi, hi_dot - n_dot) >> np.uint64(56)
        _without_dot(lo, dot - (dot > 0))
        m = _decimal_value(lo)
        m += _decimal_value(hi) * np.uint64(10 ** 8) + last * np.uint64(10 ** 7)
    else:
        n_dot, count, k = _byte_sums(dot), _byte_sums(used), _byte_sums(dot, _BYTES_AFTER)
        _without_dot(lo, dot - n_dot)  # 0xff in the bytes before the dot
        m = _decimal_value(lo)
    ok = (count == length) & (n_dot <= 1) & ((n_dot < count) | (length == 0))
    if two:
        ok &= m <= _EXACT
    values = m / _POW10.take(k, mode="clip")
    values[length == 0] = math.nan
    return values, ok


def _id_words(raw, stops, length):
    """One word per id of at most ``_SHORT`` bytes, none of them below "!",
    that end at ``stops`` in ``raw``: the 8 bytes that end with it, as
    ``_short_decimals`` reads them (``lo``, with the bytes of earlier cells
    set to 0), xor the 8 before them (``hi``) times ``_MIX``.  Ids of at
    most 8 bytes have the same word only if they are the same; longer ids
    may share a word.  None if an id is longer than ``_SHORT`` bytes."""
    longest = length.max(initial=0)
    if longest > _SHORT:
        return None
    words = _words(raw)
    key = words[stops - 8] & _LO_KEEP.take(length, mode="clip")
    if longest > 8:
        key ^= (words[stops - 16] & _HI_KEEP[length]) * _MIX
    return key


_BANG = _BYTE_SUM * np.uint64(ord("!"))  # "!" in every byte
_HIGH_BITS = _BYTE_SUM * np.uint64(0x80)


def _strippable(words, length):
    """Whether an id of at most 8 bytes, in its word of ``_id_words``, has
    a byte outside "!"..0x7F: one that ``str.strip`` may strip, or that
    belongs to a longer character.  The NUL bytes before each id count as
    "!"; then, with no byte at 0x80 or over, a byte below "!" is the one
    whose subtraction of "!" borrows (Mycroft's test for a byte below n)."""
    words = words | _BANG & ~_LO_KEEP[length]
    return bool((((words - _BANG) & ~words | words) & _HIGH_BITS).any())


_CSV_CHUNK = 4096  # rows of a CSV table written at a time

# A float cell is six 4-byte words, NUL-padded.  With 1e-4 <= |v| < 1e12 it
# is fixed-point text of m and e (see above), trailing zeros dropped:
#   prefix (2 words)  ",", a "-", and "0." with -e - 1 zeros when e < 0;
#   groups (4 words)  m's digits in groups of three, each group with the
#                     point after its digit q (0: none) and only its first
#                     c digits kept: one of 4 x 4 variants of 1000 words.
# Other cells are fixed words (blank for NaN, "inf", "-inf", "0", "-0") or
# written by format itself.
_SPECIALS = (b"", b"inf", b"-inf", b"0", b"-0")
_CODES = 2 * 16 * 13  # a fixed-point cell's code is (sign, e + 4, digits kept)
_DIVISORS = np.array([1e9, 1e6, 1e3, 1.0])[:, None]
_GROUP_END = np.array([0, 3, 6, 9], np.int8)[:, None]
_UNPAD = bytes.maketrans(b"\xfe", b"\0")  # a text cell's NUL byte, as 0xFE: never in UTF-8
_FIRST_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # the first k bytes of a word


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
    prefixes = [b"," + sign + zeros for sign in (b"", b"-")
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
    """The kernel's temporaries for chunks of up to ``cells`` cells, made
    once per table, not per chunk."""
    return (np.empty(4 * cells), np.empty(4 * cells, np.intp),
            np.empty(6 * cells, np.intp), np.empty(6 * cells, np.uint32))


def _csv_cells(v, buffers):
    """The cells of ``v``, each after a ",", as (6 x cells) words of ASCII
    bytes and NUL padding, a view of ``buffers``."""
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
        y = _POW10[::-1].take(e4)  # 10**(11 - e)
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
    x = v[bad]
    nan, inf, zero = np.isnan(x), np.isinf(x), x == 0
    code[bad] = _CODES + inf + 3 * zero + np.signbit(x) * (inf | zero)
    np.take(_OFFSETS, code, axis=1, out=index, mode="clip")  # unbuffered: codes are in range
    index[2:] += group
    np.take(_WORDS, index, out=words, mode="clip")
    other = bad[~(nan | inf | zero)]
    if other.size:
        text = [b"," + format(x, ".12g").encode() for x in v[other].tolist()]
        words[:, other] = _pack(text, 24).view(np.uint32).T
    return words


def _quoted(cells):
    """Text cells as ``csv`` writes them: a cell holding a comma, a quote or
    a line break is quoted, with its quotes doubled; others are as given."""
    cells = list(cells)
    joined = "".join(cells)
    if not any(s in joined for s in ',"\r\n'):
        return cells
    return ['"' + c.replace('"', '""') + '"' if any(s in c for s in ',"\r\n') else c
            for c in cells]


def _padded(data, starts, length):
    """(rows x words) uint32: the cells of ``_Text`` at ``starts``, each
    with the separator before it, NUL-padded to the longest."""
    longest = int(length.max(initial=0))
    at = np.arange(0, longest + 1, 8)
    cells = _words(data)[np.minimum(starts[:, None] - 1 + at, data.size - 8)]  # past the end: masked
    cells &= _FIRST_BYTES.take(length[:, None] + 1 - at, mode="clip")
    return cells.view(np.uint32)[:, : (longest + 4) // 4]


class _Text:
    """A text column of a CSV table: cells of ``length`` bytes in ``data``,
    each after a ",", one per row, or with ``code`` the distinct cells,
    padded once, and each row's code."""

    def __init__(self, data, length, code=None):
        self.data = np.frombuffer(data + bytes(8), np.uint8)
        self.starts, self.length = np.cumsum(length + 1) - length, length
        self.table = None if code is None else _padded(self.data, self.starts, length)
        self.code = code

    def __len__(self):
        return len(self.length if self.code is None else self.code)

    def rows(self, a, b):
        """(rows x words) uint32: the cells of rows ``a`` to ``b``, padded."""
        if self.code is None:
            return _padded(self.data, self.starts[a:b], self.length[a:b])
        return self.table[self.code[a:b]]


def _text_cells(cells, code=None):
    """A ``_Text`` of text cells as ``csv`` writes them (``_quoted``), in
    UTF-8 with a NUL byte as 0xFE."""
    cells = _quoted(cells)
    text = "," + ",".join(cells)
    data = text.encode("utf-8", "surrogatepass")
    lengths = map(len, cells) if len(data) == len(text) else (  # else a character of several bytes
        len(cell.encode("utf-8", "surrogatepass")) for cell in cells)
    return _Text(data.replace(b"\0", b"\xfe"), np.fromiter(lengths, np.intp, len(cells)), code)


def _csv_chunks(header, columns):
    """CSV text in pieces: the ``header`` names (``_quoted``), each chunk of
    the rows of equal-length ``columns``, and the final line end, so that
    a writer holds one chunk at a time.  A column is a float array, a cell
    as ``format(v, ".12g")`` writes it and a NaN blank, or a ``_Text``.

    Each chunk of ``_CSV_CHUNK`` rows is one matrix of 4-byte words, a row
    per row, whose NUL padding one ``bytes.translate`` deletes; one kernel
    call writes the float cells of a chunk.  A chunk whose text cells, one
    per row, would pad to over 1 MB is halved until they do not.
    """
    n, floats = len(columns[0]), [c for c in columns if not isinstance(c, _Text)]
    rows = [c.length for c in columns if isinstance(c, _Text) and c.code is None]
    buffers = _buffers(min(n, _CSV_CHUNK) * len(floats))
    yield ",".join(_quoted(header))
    spans = [(a, min(a + _CSV_CHUNK, n)) for a in range(0, n, _CSV_CHUNK)][::-1]
    while spans:
        a, b = spans.pop()
        if b - a > 1 and (b - a) * sum(int(length[a:b].max()) for length in rows) > 1 << 20:
            spans += [((a + b) // 2, b), (a, (a + b) // 2)]
            continue
        yield _chunk(columns, floats, buffers, a, b)
    yield "\n"


def _chunk(columns, floats, buffers, a, b):
    """The rows ``a`` to ``b`` of ``_csv_chunks``, each after a "\\n"."""
    words = _csv_cells(np.array([c[a:b] for c in floats]).T.ravel(), buffers)
    cells = iter(words.T.reshape(b - a, len(floats), 6).transpose(1, 0, 2))  # per column
    matrix = np.concatenate([c.rows(a, b) if isinstance(c, _Text) else next(cells)
                             for c in columns], axis=1)
    matrix[:, 0] = matrix[:, 0] & 0xFFFFFF00 | ord("\n")  # each row's first separator
    return matrix.tobytes().translate(_UNPAD, b"\0").decode("utf-8", "surrogatepass")
