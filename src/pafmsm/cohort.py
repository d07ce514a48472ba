"""Cohort ingestion and the counting-process / daily-panel reshapes.

State coding for the six-state model: 0 admission, 1 exposed, 2 discharge
without exposure, 3 death without exposure, 4 discharge after exposure,
5 death after exposure.  Censoring is coded as ``CENSORED``.  A cohort is
stored as per-subject columns; ``Subject`` objects and transition rows are
views built on request at the input/output edges.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter

import numpy as np

from ._bytes import (_FIRST_BYTES, _PAD, _Text, _csv_chunks, _id_words, _short_decimals,
                     _strippable, _text_cells, _words)
from .errors import DataError, ParseError

__all__ = [
    "CENSORED",
    "Subject",
    "TiePolicy",
    "Diagnostic",
    "Cohort",
    "CohortSummary",
    "DailyPanel",
    "parse_cohort",
    "cohort_to_csv",
    "summarize",
    "to_transitions",
    "discretize",
]

CENSORED = -1

STATUSES = ("death", "discharge", "censored")
# numeric status codes used in array views
STATUS_CENSORED, STATUS_DEATH, STATUS_DISCHARGE = 0, 1, 2
_STATUS_CODE = {"censored": STATUS_CENSORED, "death": STATUS_DEATH, "discharge": STATUS_DISCHARGE}
_STATUS_NAME = {v: k for k, v in _STATUS_CODE.items()}


def _status_tables():
    """Indexed by the length of a status cell, up to 9 bytes, and at 10 for
    every longer cell: the code of the status name of that many UTF-8 bytes
    (-1: none), its first 8 bytes as a word, and the mask of those bytes;
    then the ninth byte of the name of 9 bytes.  No two names have one
    length, and none is longer than 9 bytes."""
    code, head = np.full(11, -1), np.zeros(11, np.uint64)
    for name, c in _STATUS_CODE.items():
        name = name.encode()
        code[len(name)], head[len(name)] = c, int.from_bytes(name[:8], "little")
    keep = _FIRST_BYTES.take(np.arange(11), mode="clip")
    return code, head, keep, _STATUS_NAME[STATUS_DISCHARGE].encode()[8]


_STATUS_OF_LENGTH, _STATUS_HEAD, _STATUS_KEEP, _STATUS_NINTH = _status_tables()
# EXIT_STATE[exposed, status code]: the state a subject's last interval ends in
EXIT_STATE = np.array([[CENSORED, 3, 2], [CENSORED, 5, 4]])
_ABSENT = object()  # the cell of a covariate that a subject does not have
_REQUIRED = ["id", "inf_time", "end_time", "end_status"]  # the first columns of a cohort CSV
_PARSE_CHUNK = 1 << 18  # bytes of a window: the CSV rows read, checked and converted at a time
_MAX_GRID_POINTS = 10**6  # the most points of a grid, and the most days of a day grid


@dataclass(frozen=True)
class Subject:
    """One patient's exposure/outcome history."""

    id: str
    inf_time: float | None
    end_time: float
    end_status: str
    covariates: dict = field(default_factory=dict)

    def validate(self):
        if self.end_status not in STATUSES:
            raise DataError(f"subject {self.id}: unknown status {self.end_status!r}")
        if not 0 < self.end_time < math.inf:
            raise DataError(f"subject {self.id}: end_time must be a finite number > 0")
        if self.inf_time is not None:
            if not 0 < self.inf_time < self.end_time:
                raise DataError(
                    f"subject {self.id}: inf_time must lie strictly in (0, end_time)"
                )

    @property
    def exposed(self) -> bool:
        return self.inf_time is not None


@dataclass(frozen=True)
class TiePolicy:
    """How to treat rows with inf_time == end_time."""

    kind: str  # "reject" or "shift"
    eps: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("reject", "shift"):
            raise ValueError("tie policy must be 'reject' or 'shift'")
        if self.kind == "shift" and not 0 < self.eps < math.inf:
            raise ValueError(f"shift epsilon must be a finite number > 0, got {self.eps!r}")

    @classmethod
    def reject(cls):
        return cls("reject")

    @classmethod
    def shift(cls, eps=1e-3):
        return cls("shift", eps)

    @classmethod
    def parse(cls, text: str) -> "TiePolicy":
        if text == "reject":
            return cls.reject()
        if text == "shift":
            return cls.shift()
        if text.startswith("shift:"):
            eps = text.split(":", 1)[1]
            try:
                return cls.shift(float(eps))
            except ValueError:
                raise ValueError(f"shift epsilon must be a finite number > 0, got {eps!r}") from None
        raise ValueError(f"unknown tie policy {text!r}")


@dataclass(frozen=True)
class Diagnostic:
    """Structured warning attached to a cohort (one per adjusted row)."""

    subject_id: str
    message: str


def _covariate_columns(dicts):
    """Per-subject covariate dicts as name -> column, names in order of first use."""
    names = dict.fromkeys(k for d in dicts for k in d)
    return {name: _as_column([d.get(name, _ABSENT) for d in dicts]) for name in names}


def _as_column(values):
    """float64 if every value is a float, else the values as given, ``_ABSENT`` where missing."""
    if isinstance(values, np.ndarray) and values.dtype in (np.float64, object):
        return values
    values = list(values)
    if all(isinstance(v, float) for v in values):
        return np.array(values, dtype=float)
    return np.fromiter(values, dtype=object, count=len(values))


def covariate_column(owner, name, numeric=False) -> np.ndarray:
    """Covariate ``name`` of a ``Cohort`` or ``DailyPanel`` (as float64 if
    ``numeric``); DataError naming the first subject without it, or if a
    numeric covariate holds text or a value that is not finite (NaN, inf).
    Only an error reads the owner's ids."""
    columns = owner.covariates
    column = columns[name] if name in columns else np.full(owner.status.size, _ABSENT, dtype=object)
    if column.dtype == object:
        absent = column == _ABSENT
        if absent.any():
            raise DataError(f"subject {owner.ids[np.argmax(absent)]} has no covariate {name!r}")
        if numeric and not all(isinstance(v, (int, float)) for v in column.tolist()):
            raise DataError(f"covariate {name!r} is not numeric; encode it first")
    if not numeric:
        return column
    column = column.astype(float)
    if not np.isfinite(column).all():
        k = np.argmax(~np.isfinite(column))
        raise DataError(f"subject {owner.ids[k]}: covariate {name!r} is {column[k]}, "
                        "not a finite number")
    return column


def _read_only(column):
    """``column``, made read-only."""
    column.flags.writeable = False
    return column


def _subjects(ids, inf, end, status, covariates):
    names = list(covariates)
    rows = zip(*(c.tolist() for c in covariates.values())) if names else repeat(())
    return tuple(
        Subject(sid, None if t != t else t, e, _STATUS_NAME.get(s, s),
                {k: v for k, v in zip(names, covs) if v is not _ABSENT})
        for sid, t, e, s, covs in zip(list(ids), inf.tolist(), end.tolist(), status.tolist(), rows)
    )


class Cohort:
    """A validated cohort stored as per-subject columns.

    ``Cohort(subjects, ...)`` builds it from :class:`Subject` objects,
    :meth:`from_columns` from arrays and :meth:`from_transitions` from
    transition rows; ``subjects`` is a view built on first use.  The
    read-only columns are the counting-process data that every
    continuous-time estimator reads.
    """

    def __init__(self, subjects=(), *, horizon=0.0):
        subjects = tuple(subjects)
        for s in subjects:
            s.validate()
        self._set([s.id for s in subjects],
                  [math.nan if s.inf_time is None else s.inf_time for s in subjects],
                  [s.end_time for s in subjects], [_STATUS_CODE[s.end_status] for s in subjects],
                  _covariate_columns([s.covariates for s in subjects]), horizon)
        self.__dict__["subjects"] = subjects

    @classmethod
    def from_columns(cls, ids, inf, end, status, covariates=None, *, horizon=0.0, diagnostics=()):
        """Build from arrays: ``inf`` NaN for never exposed, ``status`` as STATUS_* codes."""
        self = cls.__new__(cls)
        self._set(ids, inf, end, status, covariates or {}, horizon, diagnostics)
        return self

    @classmethod
    def from_transitions(cls, rows, covariates=None) -> "Cohort":
        """Build from explicit :class:`TransitionRow`s, checked as a chain per
        subject, with ``covariates`` as subject id -> dict."""
        by_subject = {}
        for r in rows:
            if not (math.isfinite(r.t_start) and math.isfinite(r.t_stop)):
                raise DataError(f"subject {r.subject_id}: t_start and t_stop must be finite")
            if not r.t_start < r.t_stop:
                raise DataError(f"subject {r.subject_id}: t_start must be < t_stop")
            if r.from_state == 0 and r.t_start != 0:
                raise DataError(f"subject {r.subject_id}: a state-0 row must start at time 0")
            if r.from_state == 0 and r.to_state not in (1, 2, 3, CENSORED):
                raise DataError(f"subject {r.subject_id}: invalid transition 0->{r.to_state}")
            if r.from_state == 1 and r.to_state not in (4, 5, CENSORED):
                raise DataError(f"subject {r.subject_id}: invalid transition 1->{r.to_state}")
            by_subject.setdefault(r.subject_id, []).append(r)
        inf, end, status = [], [], []
        for sid, rs in by_subject.items():
            rs.sort(key=lambda r: r.t_start)
            if len(rs) == 1:
                if rs[0].from_state != 0:
                    raise DataError(f"subject {sid}: single row must start in state 0")
                if rs[0].to_state == 1:
                    raise DataError(f"subject {sid}: exposure row 0->1 has no follow-up row")
            elif len(rs) == 2:
                first, second = rs
                if not (first.from_state == 0 and first.to_state == 1 and second.from_state == 1):
                    raise DataError(f"subject {sid}: rows must chain 0->1 then 1->...")
                if first.t_stop != second.t_start:
                    raise DataError(f"subject {sid}: chained rows must share the exposure time")
            else:
                raise DataError(f"subject {sid}: more than two rows")
            inf.append(rs[0].t_stop if len(rs) == 2 else math.nan)
            end.append(rs[-1].t_stop)
            to = rs[-1].to_state
            status.append(STATUS_CENSORED if to == CENSORED
                          else STATUS_DEATH if to in (3, 5) else STATUS_DISCHARGE)
        ids = list(by_subject)
        covariates = _covariate_columns([(covariates or {}).get(sid, {}) for sid in ids])
        return cls.from_columns(ids, inf, end, status, covariates)

    def transition_rows(self) -> tuple[TransitionRow, ...]:
        """One :class:`TransitionRow` per interval, for export."""
        subject, *columns = self._intervals()
        return tuple(map(TransitionRow, self.ids[subject].tolist(), *(c.tolist() for c in columns)))

    def _intervals(self):
        """(subject, from_state, to_state, t_start, t_stop) of the risk
        intervals in row order: each subject's state-0 interval, then its
        state-1 interval if exposed."""
        exposed = self.exposed
        subject = np.repeat(np.arange(len(self)), np.where(exposed, 2, 1))
        state = np.zeros(subject.size, dtype=np.int64)  # 1 on a subject's second interval
        state[1:] = subject[1:] == subject[:-1]
        inf, end, last = self.inf[subject], self.end[subject], (state == 1) | ~exposed[subject]
        to_state = np.where(last, EXIT_STATE[state, self.status[subject]], 1)
        return subject, state, to_state, np.where(state == 1, inf, 0.0), np.where(last, end, inf)

    def _set(self, ids, inf, end, status, covariates, horizon, diagnostics=(), distinct=False):
        # private read-only copies: views handed out cannot change the cohort;
        # ids ``distinct`` (taken by a mask from a cohort's) are not tested again
        if isinstance(ids, _IdBytes) and (distinct or ids.unique()):
            self._id_bytes, distinct = ids, True  # strings on first read of ``ids``
        else:
            ids = _strings(ids)
            self.ids = _read_only(np.fromiter(ids, dtype=object, count=len(ids)))
        self.inf, self.end = np.array(inf, dtype=float), np.array(end, dtype=float)
        self.status = np.array(status, dtype=np.int64)
        self.covariates = {k: np.array(_as_column(v)) for k, v in covariates.items()}
        for column in (self.inf, self.end, self.status, *self.covariates.values()):
            _read_only(column)
        inf, end = self.inf, self.end
        # the status codes are 0, 1, 2: one unsigned compare tests both ends
        bad = self.status.view(np.uint64) >= len(_STATUS_NAME)
        bad |= ~((end > 0) & np.isfinite(end))
        bad |= self.exposed & ~((0 < inf) & (inf < end))
        if bad.any():  # the first bad subject raises its own message
            k = slice(np.argmax(bad), np.argmax(bad) + 1)
            _subjects(self.ids[k], inf[k], end[k], self.status[k], {})[0].validate()
        if not distinct and len(set(ids)) < len(self):
            repeated = np.ones(len(self), dtype=bool)
            repeated[np.unique(self.ids, return_index=True)[1]] = False
            raise DataError(f"duplicate subject id {self.ids[np.argmax(repeated)]!r}")
        max_end = float(self.end.max()) if len(self) else 0.0
        horizon = float(horizon) if horizon else max_end
        if len(self) and not max_end <= horizon:
            raise DataError("horizon must be >= the largest end_time")
        if not math.isfinite(horizon):
            raise DataError("horizon must be finite")
        self.horizon, self.diagnostics = horizon, tuple(diagnostics)

    @cached_property
    def ids(self) -> np.ndarray:
        """The subject ids, a read-only object array.  A parsed cohort whose
        ids ``_IdBytes`` showed to be distinct keeps them as bytes (or
        words) until here."""
        ids = self.__dict__.pop("_id_bytes").strings()
        return _read_only(np.fromiter(ids, dtype=object, count=len(ids)))

    @cached_property
    def subjects(self) -> tuple[Subject, ...]:
        return _subjects(self.ids, self.inf, self.end, self.status, self.covariates)

    @property
    def exposed(self) -> np.ndarray:
        return ~np.isnan(self.inf)

    def subset(self, mask) -> "Cohort":
        """The subjects selected by a boolean mask or index array, same horizon;
        by a mask, ids held as bytes stay bytes and are not tested again."""
        ids, by_mask = self.__dict__.get("_id_bytes"), np.asarray(mask).dtype == bool
        inf, end, status = self.inf[mask], self.end[mask], self.status[mask]
        ids = ids.take(mask) if ids is not None and by_mask else self.ids[mask]
        subset = Cohort.__new__(Cohort)
        subset._set(ids, inf, end, status, {k: v[mask] for k, v in self.covariates.items()},
                    self.horizon, distinct=by_mask)
        return subset

    def __len__(self):
        return self.end.size

    def covariate_names(self):
        return list(self.covariates)


@dataclass(frozen=True)
class CohortSummary:
    n: int
    exposed: int
    unexposed_deaths: int
    unexposed_discharges: int
    unexposed_censored: int
    exposed_deaths: int
    exposed_discharges: int
    exposed_censored: int
    person_days: float


@dataclass(frozen=True)
class TransitionRow:
    subject_id: str
    from_state: int
    to_state: int  # 1..5 or CENSORED
    t_start: float
    t_stop: float


class _IdsOnRead:
    """The ``ids`` field of a ``DailyPanel``: a tuple of str, given as one
    or as a function of no arguments whose result it is built from on
    first read (``discretize``: only error messages name a subject)."""

    def __get__(self, panel, owner=None):
        if panel is None:  # read on the class: the field has no default
            raise AttributeError("ids")
        ids = panel.__dict__["ids"]
        if callable(ids):
            ids = panel.__dict__["ids"] = tuple(ids())
        return ids

    def __set__(self, panel, ids):
        panel.__dict__["ids"] = ids


@dataclass(frozen=True)
class DailyPanel:
    """Integer-day discretization over days s = 1..n_days, as per-subject columns.

    ``exposure_day`` is the first day s with inf_time <= s (``n_days + 1``
    if never exposed), ``terminal_day`` the first day s with end_time <= s,
    and ``status`` its event (1 death, 2 discharge).  Censored subjects are
    excluded and listed in ``dropped``.  ``covariates`` maps name -> column
    over the panel's subjects.  No estimator reads a dense (n, n_days)
    matrix; ``a`` builds one only for the benchmark's ``panel_cells``
    counter, which still reads its size.
    """

    ids: tuple[str, ...] = _IdsOnRead()
    exposure_day: np.ndarray  # (n,) int64
    terminal_day: np.ndarray  # (n,) int64
    status: np.ndarray  # (n,) int64
    n_days: int
    covariates: dict
    dropped: tuple[str, ...] = ()

    @property
    def n_subjects(self) -> int:
        return self.exposure_day.size

    @property
    def a(self) -> np.ndarray:
        """a[i, s-1] = 1 once subject i is exposed (s >= exposure_day), uint8."""
        return (np.arange(1, self.n_days + 1) >= self.exposure_day[:, None]).view(np.uint8)


def parse_cohort(source, tie_policy: TiePolicy = TiePolicy.shift()) -> Cohort:
    """Read a cohort from CSV (``id,inf_time,end_time,end_status[,<covariate>...]``).

    ``source`` is a path (``os.PathLike``, or a ``str`` or ``bytes``
    without a line break), CSV text (a ``str`` or ``bytes`` with a "\\n"
    or "\\r"), or a file object.  A ``str`` or ``bytes`` without a line
    break that names no file, and input that does not decode as UTF-8,
    raise ParseError; a leading byte order mark is skipped.

    The text is read once into one byte buffer (``_buffer``) and parsed
    from it in windows of about ``_PARSE_CHUNK`` bytes cut at line ends,
    so a parse holds the kept columns, the bytes of the file and the cell
    strings of one window, and the first faulty row in the file raises.
    Text with a quote, a CR or a NUL is read by ``csv.reader`` in one pass;
    a plain window is read from its UTF-8 bytes (``_split_rows``), with the
    values and the error messages of ``str`` cells.  Ids of at most 8
    bytes are kept as one word each (``_IdBytes``) until ``Cohort.ids``
    is read.
    """
    header, parts = _read_chunks(_buffer(source), tie_policy)
    return _joined(header, parts)


def _buffer(source) -> bytearray:
    """The UTF-8 bytes of ``source`` (see ``parse_cohort``) in one buffer,
    with ``_PAD`` NUL bytes in front and 8 behind.  A path is read straight
    into it; text is encoded (a lone surrogate as ``surrogatepass`` writes
    it); bytes that are not UTF-8 and a text path to no file raise ParseError.
    """
    what, is_str, given = "input", False, source
    try:
        if isinstance(source, bytes) and not (b"\n" in source or b"\r" in source):
            source = source.decode("utf-8")  # a path
        if isinstance(source, os.PathLike) or isinstance(source, str) and not (
                "\n" in source or "\r" in source):
            what = f"input file {os.fspath(source)}"
            if not isinstance(source, os.PathLike) and not os.path.exists(source):
                raise ParseError(f"{given!r} names no file, and CSV text needs a line break")
            with open(source, "rb") as fh:
                buf = bytearray(_PAD + os.fstat(fh.fileno()).st_size + 8)
                with memoryview(buf) as view:
                    size = fh.readinto(view[_PAD:-8])
                buf[_PAD + size:] = fh.read() + bytes(8)  # a file that has grown, or a pipe
        else:
            data = source.read() if hasattr(source, "read") else source
            is_str = isinstance(data, str)
            if is_str:
                data = data.encode("utf-8", "surrogatepass")
            if not isinstance(data, bytes):
                raise TypeError("source must be a path, text, bytes, or file object")
            buf = bytearray(_PAD + len(data) + 8)
            with memoryview(buf) as view:  # a slice of buf itself would copy data first
                view[_PAD:-8] = data
        if not (is_str or buf.isascii()):
            str(memoryview(buf)[_PAD:-8], "utf-8")  # raises on the first byte that is not UTF-8
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not UTF-8 text: {exc}") from None
    return buf


def _is_number(text):
    try:
        return float(text) is not None
    except ValueError:
        return False


def _text_column(cells):
    """The cells (stripped if one does not read as a number as given), their
    floats (NaN where blank or not a number), and the masks of blank cells
    and of cells that read as numbers.

    ``float`` strips the whitespace that ``str.strip`` strips, so a column
    of numbers and exact "" cells is read in one pass; only a column with
    any other cell is stripped first.
    """
    n = len(cells)
    try:
        if "" not in cells:
            values = np.fromiter(map(float, cells), float, n)
            return cells, values, np.zeros(n, bool), np.ones(n, bool)
        number = np.fromiter(map(bool, cells), bool, n)
        values = np.full(n, math.nan)
        values[number] = np.fromiter(map(float, filter(None, cells)), float, int(number.sum()))
        return cells, values, ~number, number
    except ValueError:
        pass
    text = list(map(str.strip, cells))
    blank = ~np.fromiter(map(bool, text), bool, n)
    values = np.full(n, math.nan)
    try:
        number = ~blank
        values[number] = list(map(float, compress(text, number.tolist())))
    except ValueError:
        number = np.fromiter(map(_is_number, text), bool, n)
        values[number] = list(map(float, compress(text, number.tolist())))
    return text, values, blank, number


def _split_rows(raw, start, stop, header):
    """The rows of ``raw[start:stop]``, whole lines of plain text after a
    "\\n", as ``_ByteCells``, with ``header`` and each row's width; or None.

    On text with no ``"``, ``\\r`` or NUL and no line longer than the csv
    field limit (``_row_chunks`` sees to both), plain means as many commas
    on every line as on the header: there ``csv.reader`` returns the same
    cells.  One scan of the UTF-8 bytes decides it: "," and "\\n" are
    single bytes that no longer character contains.  The same scan gives
    every cell's first byte and length (``_ByteCells``).
    """
    width = len(header)
    window = raw[start - 1:stop]  # from the "\n" before the first row
    newline = window == ord("\n")
    seps = np.flatnonzero(newline | (window == ord(",")))
    newline = newline[seps]
    # plain: (width - 1) commas and a newline, once per row
    rows = np.count_nonzero(newline) - 1
    if newline.size != 1 + rows * width or not newline[width::width].all():
        return None
    seps += start - 1
    return header, _ByteCells(raw, seps, width), np.full(rows, width)


class _Cells:
    """The body cells of one window of rows, as one list of ``str`` per
    column, and their conversions for ``_read_rows``."""

    def __init__(self, columns):
        self.columns, self.width = columns, len(columns)

    def text(self, j):
        """The cells of column ``j`` as given."""
        return self.columns[j]

    def row(self, k):
        """The cells of body row ``k`` as given."""
        return [self.text(j)[k] for j in range(self.width)]

    def ids(self):
        """The id cells, stripped."""
        return list(map(str.strip, self.text(0)))

    def numbers(self, js):
        """For each column in ``js``: its floats (NaN where blank or not a
        number) and the masks of blank cells and of cells that are numbers."""
        return [_text_column(self.text(j))[1:] for j in js]

    def statuses(self, j):
        """The status codes of column ``j``, -1 where unknown or blank."""
        status = np.fromiter(map(_STATUS_CODE.get, self.text(j), repeat(-1)), np.int64)
        if (status < 0).any():  # padded, blank or unknown cells
            status = np.fromiter(map(_STATUS_CODE.get, map(str.strip, self.text(j)), repeat(-1)),
                                 np.int64)
        return status


class _ByteCells(_Cells):
    """The body cells of a window of plain text as the positions ``seps``,
    in the buffer ``raw`` of UTF-8 bytes, of the "\\n" before the window
    and of the "," or "\\n" after every cell.

    Ids of at most 8 bytes are read as one word each (``_id_words``) and
    checked for bytes that ``str.strip`` may strip on those words; longer
    ids are gathered and checked byte by byte.  A status cell's length
    picks the one name it may be (``_status_tables``): one masked compare
    of its first word, and of its ninth byte if it has 9.  In a number column,
    cells of ASCII digits with at most one "." and at most ``_SHORT``
    bytes are decoded from their bytes (``_short_decimals``), and the
    other cells (an exponent, a sign, padding, ``nan``, a longer cell) are
    gathered, decoded as one ``str`` and read by ``float`` one by one.  A
    column with a cell that ``float`` rejects, or a status column with an
    unknown name, goes through the ``str`` conversion of ``_Cells``, on
    cells that are split from the text only then.
    """

    def __init__(self, raw, seps, width):
        self.columns, self.width = None, width
        self.raw, self.seps = raw, seps

    def _bounds(self, j):
        """The first byte and the length of each body cell of column ``j``."""
        stops = self.seps[j + 1::self.width]
        starts = self.seps[j:-1:self.width] + 1
        return starts, stops - starts

    def text(self, j):
        if self.columns is None:
            rows = self.raw[self.seps[0] + 1:self.seps[-1] + 1].tobytes()
            cells = rows.decode("utf-8", "surrogatepass").replace("\n", ",").split(",")
            cells.pop()  # after the newline that ends the last row
            self.columns = [cells[i::self.width] for i in range(self.width)]
        return self.columns[j]

    def _gathered(self, starts, length):
        """The bytes of the cells at ``starts``, each followed by a ","."""
        size = length + 1  # each cell and the "," or "\n" after it
        ends = np.cumsum(size)
        gathered = self.raw[np.repeat(starts - ends + size, size) + np.arange(size.sum())]
        gathered[ends - 1] = ord(",")
        return gathered

    def ids(self):
        """The ids as ``_IdBytes``, as their words alone if none has more
        than 8 bytes; stripped ``str`` if a byte is one that ``str.strip``
        may strip: below "!", or of a longer character."""
        starts, length = self._bounds(0)
        words, short = _id_words(self.raw, starts + length, length), length.max(initial=0) <= 8
        if short and not _strippable(words, length):
            return _IdBytes(length, words)
        gathered = self._gathered(starts, length)
        if short or ((gathered < ord("!")) | (gathered >= 0x80)).any():
            return list(map(str.strip, _split(gathered)))
        return _IdBytes(length, words, gathered)

    def numbers(self, js):
        out = []
        for j in js:
            starts, length = self._bounds(j)
            values, ok = _short_decimals(self.raw, starts, length)
            if not ok.all():  # the cells the decoder leaves, each by float
                other = np.flatnonzero(~ok)
                try:
                    values[other] = list(map(float, _split(self._gathered(starts[other],
                                                                          length[other]))))
                except ValueError:  # the str path, with its masks and messages
                    out.extend(super().numbers([j]))
                    continue
            out.append((values, length == 0, length > 0))
        return out

    def statuses(self, j):
        starts, length = self._bounds(j)
        status = _STATUS_OF_LENGTH.take(length, mode="clip")  # the one name that long
        head = _words(self.raw)[starts]  # the first 8 bytes of each cell
        head &= _STATUS_KEEP.take(length, mode="clip")
        status[head != _STATUS_HEAD.take(length, mode="clip")] = -1
        nine = np.flatnonzero(length == 9)  # the ninth byte, read only in cells that long
        status[nine[self.raw[starts[nine] + 8] != _STATUS_NINTH]] = -1
        return status if (status >= 0).all() else super().statuses(j)


def _split(data):
    """The cells of ``data``, bytes (or a uint8 array) of cells each
    followed by a ",", as ``str``."""
    cells = bytes(data).decode("utf-8", "surrogatepass").split(",")
    cells.pop()
    return cells


class _IdBytes:
    """The ids of rows of plain text, or of a simulated cohort, as bytes
    (no id holds a "," or a quote, nor a byte below "!"): each id's
    ``length`` and, if every id has at most ``_SHORT`` bytes, its word
    (``_id_words``; else None).  If no id has more than 8 bytes the word
    is the id itself, its bytes after NUL bytes, and the words are all
    that is kept.  Else the ids are also kept as ``gathered`` bytes, each
    followed by a ",", and the words only tell ids apart.  A cohort keeps
    an ``_IdBytes`` and builds ``str`` ids on first read; ``data`` builds
    the bytes of ids held as words only when they are read or written."""

    def __init__(self, length, words, gathered=None):
        self.length, self.words, self.gathered = length, words, gathered

    @classmethod
    def of(cls, data, length):
        """The ids of ``data``, bytes of ids each followed by a ",", of
        ``length`` bytes each: their words read as a parse reads them."""
        raw = np.frombuffer(bytes(_PAD) + data + bytes(8), np.uint8)
        words = _id_words(raw, np.cumsum(length + 1) + (_PAD - 1), length)
        return cls(length, words, None if length.max(initial=0) <= 8 else raw[_PAD:-8])

    def data(self) -> bytes:
        """The ids' bytes, each followed by a ","."""
        if self.gathered is not None:
            return self.gathered.tobytes()
        cells = np.full((self.words.size, 9), ord(","), np.uint8)
        cells[:, :8] = self.words.view(np.uint8).reshape(-1, 8)
        return cells.tobytes().translate(None, b"\0")  # the NUL bytes before each id

    def take(self, rows):
        """The ids of the rows of the mask ``rows``."""
        words = None if self.words is None else self.words[rows]
        if self.gathered is None:
            return _IdBytes(self.length[rows], words)
        return _IdBytes(self.length[rows], words,
                        self.gathered[np.repeat(rows, self.length + 1)])

    def strings(self):
        return _split(self.data())

    def unique(self):
        """Whether one sort of the words shows no two the same: False for a
        repeated id, two ids of one word, or ids without words."""
        if self.words is None:
            return False
        words = np.sort(self.words)
        return not (words[1:] == words[:-1]).any()

    @classmethod
    def counting(cls, n):
        """The ids "0", "1", ... of ``n`` subjects, from their digits: for
        each number of digits ``d``, a matrix of rows of ``d`` digits and a ","."""
        rows, length = [], []
        for d in range(1, len(str(n - 1)) + 1):
            k = np.arange(10 ** (d - 1) if d > 1 else 0, min(n, 10**d), dtype=np.uint32)
            rows.append(np.full((k.size, d + 1), ord(","), np.uint8))
            length.append(np.full(k.size, d))
            for j in range(d - 1, -1, -1):
                rows[-1][:, j], k = k % 10 + ord("0"), k // 10
        return cls.of(b"".join(r.tobytes() for r in rows), np.concatenate(length))

    @classmethod
    def joined(cls, parts):
        words = [part.words for part in parts]
        words = None if any(w is None for w in words) else np.concatenate(words)
        length = np.concatenate([part.length for part in parts])
        if all(part.gathered is None for part in parts):
            return cls(length, words)
        return cls(length, words, np.concatenate([
            np.frombuffer(part.data(), np.uint8) if part.gathered is None else part.gathered
            for part in parts]))


def _header(reader):
    """The column names of the first row of ``reader``, a ``csv.reader``,
    stripped, read before any body row; a ParseError at row 1 unless they
    start with the four required names and name no column twice."""
    try:
        cells = next(reader, None)
    except csv.Error as exc:  # a cell over the csv field limit; a NUL before Python 3.11
        raise ParseError(str(exc), row=1) from None
    if cells is None:
        raise ParseError("empty input")
    header = [h.strip() for h in cells]
    if header[: len(_REQUIRED)] != _REQUIRED:
        raise ParseError(f"header must start with {','.join(_REQUIRED)}", row=1)
    repeated = [name for k, name in enumerate(header) if name in header[:k]]
    if repeated:
        raise ParseError(f"header names column {repeated[0]!r} twice", row=1)
    return header


def _reader_rows(reader, header, first=0):
    """Body cells (``_Cells``) of the rows left in ``reader``, a
    ``csv.reader``, which handles quoted cells and every line ending, with
    ``header`` and each row's field count.  A row of another width holds
    blank cells; if it has no non-blank cell it counts as full width and is
    skipped as blank.  Row numbers of a ParseError count the header and
    ``first`` body rows before the rows of ``reader``.
    """
    records = []
    try:
        records.extend(reader)
    except csv.Error as exc:  # a cell over the csv field limit; a NUL before Python 3.11
        raise ParseError(str(exc), row=first + len(records) + 2) from None
    width = len(header)
    lengths = np.fromiter(map(len, records), np.intp, len(records))
    for k in np.flatnonzero(lengths != width):
        if not any(f.strip() for f in records[k]):
            lengths[k] = width
        records[k] = [""] * width
    return header, _Cells([list(map(itemgetter(j), records)) for j in range(width)]), lengths


def _csv_reader(buf, start, stop):
    """A ``csv.reader`` of the text of ``buf[start:stop]``."""
    text = str(memoryview(buf)[start:stop], "utf-8", "surrogatepass")
    return csv.reader(io.StringIO(text, newline=""))


def _row_chunks(buf):
    """The header (``_header``), body cells (``_Cells``) and row widths of
    each window of rows of ``_buffer``'s ``buf``, in file order.  The header
    is checked before any body row is read.

    Text with a ``"``, a ``\\r`` or a NUL is one window read by
    ``csv.reader``: a quoted cell may hold a line break, so it is never cut
    at one.  Other text is cut at line ends into windows of about
    ``_PARSE_CHUNK`` bytes (``_window_end``), each a view of ``buf`` read by
    ``_split_rows`` with the header read once.  A ragged window, a line
    over the csv field limit (a window of its own, so that ``csv.reader``
    reports it after the rows before it are checked), and every window if
    the header line is over that limit, is decoded and read by
    ``csv.reader``.
    """
    start = _PAD + 3 * buf.startswith(b"\xef\xbb\xbf", _PAD)  # a byte order mark, as utf-8-sig
    end = len(buf) - 8
    if start == end or any(buf.find(c, start, end) >= 0 for c in (b'"', b"\r", b"\0")):
        reader = _csv_reader(buf, start, end)
        yield _reader_rows(reader, _header(reader))
        return
    if buf[end - 1] != ord("\n"):  # the last line ends in the first byte behind the text
        buf[end] = ord("\n")
        end += 1
    raw, limit = np.frombuffer(buf, np.uint8), csv.field_size_limit()
    stop = buf.find(b"\n", start) + 1
    header, plain, rows = _header(_csv_reader(buf, start, stop)), stop - start <= limit + 1, 0
    while True:
        start, stop = stop, _window_end(buf, stop, end, limit)
        # its lines fit the field limit if its first line does (_window_end)
        fits = plain and buf.find(b"\n", start, stop) - start <= limit
        chunk = fits and _split_rows(raw, start, stop, header) or _reader_rows(
            _csv_reader(buf, start, stop), header, rows)
        rows += chunk[2].size
        yield chunk
        del chunk  # a window's cells go before the next window is read
        if stop == end:
            return


def _window_end(buf, start, end, limit):
    """The end of the window of rows from ``start``: its last line end
    within ``_PARSE_CHUNK`` bytes, before the first line of more than
    ``limit`` bytes.  A line that is longer than either is a window of its
    own, so a window's lines fit ``limit`` if its first line does."""
    stop, last = start, min(start + _PARSE_CHUNK, end)
    while stop < last:  # steps of at most limit + 1 bytes, each to a line end
        found = buf.rfind(b"\n", stop, min(stop + limit + 1, last)) + 1
        if not found:
            break
        stop = found
    return stop if stop > start else buf.find(b"\n", start, end) + 1 or end


def _read_chunks(buf, tie_policy):
    """The header and, per window of rows, the columns of ``_read_rows``."""
    header, parts, rows = None, [], 0
    for header, cells, lengths in _row_chunks(buf):
        parts.append(_read_rows(header, cells, lengths, tie_policy, rows))
        rows += lengths.size
        del cells  # a window's cells go before the next window is read
    return header, parts


def _joined(header, parts):
    """The cohort of the windows' columns; empties ``parts``."""
    ids, inf, end, status, diagnostics, *covariates = zip(*parts)
    parts.clear()  # each column's windows go once the column is joined
    # a covariate is float only if every window of it is; else floats and text
    columns = {name: np.concatenate([piece.astype(object) for piece in pieces]
                                    if any(piece.dtype == object for piece in pieces) else pieces)
               for name, pieces in zip(header[4:], covariates)}
    del covariates
    ids = (_IdBytes.joined(ids) if all(isinstance(part, _IdBytes) for part in ids)
           else list(chain.from_iterable(_strings(part) for part in ids)))
    inf = np.concatenate(inf)
    end = np.concatenate(end)
    status = np.concatenate(status)
    return Cohort.from_columns(ids, inf, end, status, columns,
                               diagnostics=tuple(chain.from_iterable(diagnostics)))


def _read_rows(header, cells, lengths, tie_policy, first):
    """One window of rows (``_Cells``), checked and converted: the ids,
    ``inf``, ``end``, ``status``, tie diagnostics and covariate columns of
    its non-blank rows.  A covariate column is float64, or object (floats
    and stripped text) if a cell is not a number.  ``first`` is the number
    of body rows before the window; the first row that fails a check raises
    ParseError.
    """
    width = len(header)
    # body row k is file row first + k + 2; rows with no non-blank cell are skipped
    n = lengths.size
    wrong_width = lengths != width
    ids = cells.ids()
    if isinstance(ids, _IdBytes):
        no_id = ids.length == 0
    else:
        no_id = ~np.fromiter(map(bool, ids), bool, n) if "" in ids else np.zeros(n, bool)
    blank = no_id & ~wrong_width
    for k in np.flatnonzero(blank):
        blank[k] = not any(cell.strip() for cell in cells.row(k))
    keep = ~blank
    (raw_inf, no_inf, inf_number), (end, no_end, end_number), *numbers = cells.numbers(
        [1, 2, *range(4, width)])
    status = cells.statuses(3)
    exposed = ~no_inf
    tied = exposed & (raw_inf == end)
    inf = np.where(tied, end - tie_policy.eps, raw_inf) if tie_policy.kind == "shift" else raw_inf
    covariates = {name: (j, *number)
                  for name, j, number in zip(header[4:], range(4, width), numbers)}

    def quoted(j, k):
        return repr(cells.text(j)[k].strip())

    # one mask per check, in the order a row is checked; the first row
    # that fails any check reports the first check it fails, quoting the
    # cell stripped
    checks = [
        (wrong_width, lambda k: f"expected {width} fields, got {lengths[k]}"),
        (no_id & ~blank, lambda k: "empty id"),
        (exposed & ~inf_number, lambda k: f"bad inf_time {quoted(1, k)}"),
        (inf_number & ~np.isfinite(raw_inf), lambda k: f"non-finite inf_time {quoted(1, k)}"),
        (raw_inf < 0, lambda k: "negative inf_time"),
        (no_end, lambda k: "missing end_time"),
        (~no_end & ~end_number, lambda k: f"bad end_time {quoted(2, k)}"),
        (end_number & ~np.isfinite(end), lambda k: f"non-finite end_time {quoted(2, k)}"),
        (end < 0, lambda k: "negative end_time"),
        (status < 0, lambda k: f"unknown status {quoted(3, k)}"),
        (end <= 0, lambda k: "end_time must be positive"),
        (raw_inf > end, lambda k: "inf_time > end_time"),
        (tied & (tie_policy.kind == "reject"),
         lambda k: "inf_time == end_time (tie policy: reject)"),
        (inf <= 0, lambda k: "inf_time must be positive"),
    ]
    for name, (_, _, missing, _) in covariates.items():
        checks.append((missing, lambda k, name=name: f"missing value for covariate {name!r}"))
    masks = [m & keep for m, _ in checks]
    hits = [(int(np.argmax(m)), j) for j, m in enumerate(masks) if m.any()]
    if hits:
        k, j = min(hits)
        raise ParseError(checks[j][1](k), row=first + k + 2)

    shifted = tied & keep
    diagnostics = [Diagnostic(sid, f"inf_time tied with end_time; shifted to {t:g}")
                   for sid, t in zip(_strings(_take(ids, shifted)), inf[shifted].tolist())]
    columns = []
    for j, values, _, number in covariates.values():
        if number[keep].all():
            columns.append(values[keep])
        else:  # mixed: numbers as floats, the rest as stripped text
            mixed = [v if ok else t.strip()
                     for t, v, ok in zip(cells.text(j), values.tolist(), number.tolist())]
            columns.append(np.fromiter(mixed, object, n)[keep])
    if not keep.all():  # drop the blank rows
        ids = _take(ids, keep)
        inf, end, status = inf[keep], end[keep], status[keep]
    return ids, inf, end, status, diagnostics, *columns


def _take(ids, rows):
    """The ids (``_IdBytes`` or a list of ``str``) of the rows of the mask ``rows``."""
    return ids.take(rows) if isinstance(ids, _IdBytes) else list(compress(ids, rows.tolist()))


def _strings(ids):
    """The ids (``_IdBytes`` or a list of ``str``) as a list of ``str``."""
    return ids.strings() if isinstance(ids, _IdBytes) else ids


def summarize(cohort: Cohort) -> CohortSummary:
    """Exposure/outcome counts and total person-time."""
    counts = np.bincount(3 * cohort.exposed + cohort.status, minlength=6).tolist()
    outcomes = {STATUS_DEATH: "deaths", STATUS_DISCHARGE: "discharges", STATUS_CENSORED: "censored"}
    by_group = {f"{group}_{outcomes[code]}": counts[3 * exposed + code]
                for exposed, group in enumerate(("unexposed", "exposed")) for code in outcomes}
    return CohortSummary(n=len(cohort), exposed=sum(counts[3:]),
                         person_days=float(cohort.end.sum()), **by_group)


def to_transitions(cohort: Cohort) -> Cohort:
    """The cohort itself: its columns are the six-state counting-process data."""
    return cohort


def _horizon_days(horizon: float) -> int:
    """The days of a day grid or daily panel over ``horizon``, ceil(horizon):
    a DataError past ``_MAX_GRID_POINTS``, before anything that size exists."""
    days = math.ceil(horizon)
    if days > _MAX_GRID_POINTS:
        raise DataError(f"horizon {horizon:g} spans {days} days; a day grid or daily panel "
                        f"may have at most {_MAX_GRID_POINTS}")
    return days


def discretize(cohort: Cohort, allow_drop: bool = False) -> DailyPanel:
    """Build the integer-day panel over days 1..ceil(horizon).

    Censored subjects violate the complete-follow-up assumption of the
    discrete estimators; they are rejected unless ``allow_drop`` is set,
    in which case they are excluded and flagged.
    """
    censored = cohort.status == STATUS_CENSORED
    dropped = tuple(cohort.subset(censored).ids) if censored.any() else ()
    if dropped and not allow_drop:  # the count and the first five ids
        raise DataError(f"{len(dropped)} censored subjects present (pass allow_drop to exclude "
                        "them): " + ", ".join(dropped[:5] + ("...",) * (len(dropped) > 5)))
    kept = cohort.subset(~censored) if dropped else cohort
    if not len(kept):
        raise DataError("empty cohort")
    m = _horizon_days(cohort.horizon)
    exposure_day = np.nan_to_num(np.ceil(kept.inf), nan=m + 1).astype(np.int64)
    ids = kept.__dict__.get("_id_bytes")  # parsed ids, as strings on first read
    return DailyPanel(ids=kept.ids.tolist if ids is None else ids.strings,
                      exposure_day=exposure_day,
                      terminal_day=np.ceil(kept.end).astype(np.int64), status=kept.status,
                      n_days=m, covariates=kept.covariates, dropped=dropped)


def cohort_to_csv(cohort: Cohort) -> str:
    """Serialize a cohort in the same CSV format parse_cohort reads: ids
    from the bytes a cohort still holds, times, status names and covariate
    cells (``f"{v}"``, once per distinct float), by one ``_csv_chunks``."""
    return "".join(_cohort_csv_chunks(cohort))


def _cohort_csv_chunks(cohort: Cohort):
    """The text of ``cohort_to_csv`` in pieces (``_bytes._csv_chunks``)."""
    ids = cohort.__dict__.get("_id_bytes")
    columns = [_text_cells(map(str, cohort.ids)) if ids is None else
               _Text(b"," + ids.data(), ids.length),
               cohort.inf, cohort.end, _text_cells(map(_STATUS_NAME.get, range(3)), cohort.status)]
    for column in cohort.covariates.values():
        if column.dtype == object:
            columns.append(_text_cells("" if v is _ABSENT else f"{v}" for v in column.tolist()))
        else:  # the text of each distinct value, by its bits
            values, inverse = np.unique(column.view(np.int64), return_inverse=True)
            columns.append(_text_cells((f"{v}" for v in values.view(float).tolist()), inverse))
    return _csv_chunks([*_REQUIRED, *cohort.covariate_names()], columns)
