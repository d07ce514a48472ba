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
from itertools import compress, repeat
from operator import itemgetter

import numpy as np

from .curves import _csv_rows
from .errors import DataError, ParseError

__all__ = [
    "CENSORED",
    "Subject",
    "TiePolicy",
    "Diagnostic",
    "Cohort",
    "CohortSummary",
    "TransitionRecords",
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
# EXIT_STATE[exposed, status code]: the state a subject's last interval ends in
EXIT_STATE = np.array([[CENSORED, 3, 2], [CENSORED, 5, 4]])
_ABSENT = object()  # the cell of a covariate that a subject does not have


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


def covariate_column(columns, name, ids, numeric=False) -> np.ndarray:
    """Covariate ``name`` (as float64 if ``numeric``); DataError naming the
    first subject without it, or if a numeric covariate holds text or a
    value that is not finite (NaN, inf)."""
    column = columns[name] if name in columns else np.full(len(ids), _ABSENT, dtype=object)
    if column.dtype == object:
        absent = column == _ABSENT
        if absent.any():
            raise DataError(f"subject {ids[np.argmax(absent)]} has no covariate {name!r}")
        if numeric and not all(isinstance(v, (int, float)) for v in column.tolist()):
            raise DataError(f"covariate {name!r} is not numeric; encode it first")
    if not numeric:
        return column
    column = column.astype(float)
    if not np.isfinite(column).all():
        k = np.argmax(~np.isfinite(column))
        raise DataError(f"subject {ids[k]}: covariate {name!r} is {column[k]}, not a finite number")
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

    ``Cohort(subjects, ...)`` builds it from :class:`Subject` objects and
    :meth:`from_columns` from arrays; ``subjects`` is a view built on first
    use.  The columns are read-only.
    """

    def __init__(self, subjects=(), tie_policy: TiePolicy = TiePolicy.shift(), horizon=0.0,
                 diagnostics=()):
        subjects = tuple(subjects)
        for s in subjects:
            s.validate()
        self._set(
            [s.id for s in subjects],
            [math.nan if s.inf_time is None else s.inf_time for s in subjects],
            [s.end_time for s in subjects],
            [_STATUS_CODE[s.end_status] for s in subjects],
            _covariate_columns([s.covariates for s in subjects]),
            tie_policy, horizon, diagnostics,
        )
        self.__dict__["subjects"] = subjects

    @classmethod
    def from_columns(cls, ids, inf, end, status, covariates=None, *,
                     tie_policy: TiePolicy = TiePolicy.shift(), horizon=0.0, diagnostics=()):
        """Build from arrays: ``inf`` NaN for never exposed, ``status`` as STATUS_* codes."""
        self = cls.__new__(cls)
        self._set(ids, inf, end, status, covariates or {}, tie_policy, horizon, diagnostics)
        return self

    def _set(self, ids, inf, end, status, covariates, tie_policy, horizon, diagnostics):
        # private read-only copies: views handed out cannot change the cohort
        self.ids = np.fromiter(ids, dtype=object, count=len(ids))
        self.inf, self.end = np.array(inf, dtype=float), np.array(end, dtype=float)
        self.status = np.array(status, dtype=np.int64)
        self.covariates = {k: np.array(_as_column(v)) for k, v in covariates.items()}
        for column in (self.ids, self.inf, self.end, self.status, *self.covariates.values()):
            column.flags.writeable = False
        inf, end = self.inf, self.end
        bad = ~np.isin(self.status, list(_STATUS_NAME)) | ~((end > 0) & np.isfinite(end))
        bad |= self.exposed & ~((0 < inf) & (inf < end))
        if bad.any():  # the first bad subject raises its own message
            k = slice(np.argmax(bad), np.argmax(bad) + 1)
            _subjects(self.ids[k], inf[k], end[k], self.status[k], {})[0].validate()
        if len(set(ids)) < len(self):
            repeated = np.ones(len(self), dtype=bool)
            repeated[np.unique(self.ids, return_index=True)[1]] = False
            raise DataError(f"duplicate subject id {self.ids[np.argmax(repeated)]!r}")
        max_end = float(self.end.max()) if len(self) else 0.0
        horizon = float(horizon) if horizon else max_end
        if len(self) and not max_end <= horizon:
            raise DataError("horizon must be >= the largest end_time")
        if not math.isfinite(horizon):
            raise DataError("horizon must be finite")
        self.tie_policy, self.horizon, self.diagnostics = tie_policy, horizon, tuple(diagnostics)

    @cached_property
    def subjects(self) -> tuple[Subject, ...]:
        return _subjects(self.ids, self.inf, self.end, self.status, self.covariates)

    @property
    def exposed(self) -> np.ndarray:
        return ~np.isnan(self.inf)

    def subset(self, mask) -> "Cohort":
        """The subjects selected by a boolean mask or index array, same horizon."""
        covariates = {k: v[mask] for k, v in self.covariates.items()}
        return Cohort.from_columns(self.ids[mask], self.inf[mask], self.end[mask], self.status[mask],
                                   covariates, tie_policy=self.tie_policy, horizon=self.horizon)

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


class TransitionRecords:
    """Counting-process view of a cohort: its per-subject columns, which
    ``subject_arrays`` returns as stored, and ``covariates`` as name -> column.

    ``rows``, one :class:`TransitionRow` per interval, is built on first use
    for export.  Explicit rows (with ``covariates`` as subject id -> dict)
    are validated as a chain per subject and the columns derived from them.
    """

    def __init__(self, rows, covariates=None):
        rows = tuple(rows)
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
        self.ids = np.fromiter(ids, dtype=object, count=len(ids))
        self.inf, self.end = np.array(inf, dtype=float), np.array(end, dtype=float)
        self.status = np.array(status, dtype=np.int64)
        self.covariates = _covariate_columns([(covariates or {}).get(sid, {}) for sid in ids])
        self.__dict__["rows"] = rows

    @classmethod
    def from_arrays(cls, ids, inf, end, status, covariates=None) -> "TransitionRecords":
        """A view of per-subject arrays as taken; no copy and no validation."""
        self = cls.__new__(cls)
        self.ids, self.inf, self.end, self.status = ids, inf, end, status
        self.covariates = covariates if covariates is not None else {}
        return self

    def subject_arrays(self):
        """Per-subject view: (ids, inf_time with NaN, end_time, status code)."""
        return self.ids, self.inf, self.end, self.status

    @cached_property
    def rows(self) -> tuple[TransitionRow, ...]:
        out = []
        for sid, t, e, s in zip(list(self.ids), self.inf.tolist(), self.end.tolist(), self.status.tolist()):
            if t == t:
                out.append(TransitionRow(sid, 0, 1, 0.0, t))
                out.append(TransitionRow(sid, 1, int(EXIT_STATE[1, s]), t, e))
            else:
                out.append(TransitionRow(sid, 0, int(EXIT_STATE[0, s]), 0.0, e))
        return tuple(out)


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

    ids: tuple[str, ...]
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

    def take(self, idx) -> "DailyPanel":
        """Subjects ``idx`` as a panel; the ids, which only label exports, stay this panel's."""
        covariates = {name: column[idx] for name, column in self.covariates.items()}
        return DailyPanel(self.ids, self.exposure_day[idx], self.terminal_day[idx],
                          self.status[idx], self.n_days, covariates, self.dropped)


def parse_cohort(source, tie_policy: TiePolicy = TiePolicy.shift(), horizon=None) -> Cohort:
    """Read a cohort from CSV (``id,inf_time,end_time,end_status[,<covariate>...]``).

    ``source`` is a path (``os.PathLike``, or a ``str`` without a line
    break), CSV text (a ``str`` or ``bytes`` with a "\\n" or "\\r"), or a
    file object.  Input that does not decode as UTF-8 raises ParseError.
    """
    what = "input"
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        is_text = isinstance(source, str) and ("\n" in source or "\r" in source)
        if isinstance(source, os.PathLike) or isinstance(source, str) and not is_text:
            what = f"input file {os.fspath(source)}"
            with open(source, "r", encoding="utf-8", newline="") as fh:
                source = fh.read()
        elif hasattr(source, "read"):
            source = source.read()
            source = source.decode("utf-8") if isinstance(source, bytes) else source
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not UTF-8 text: {exc}") from None
    if isinstance(source, str):
        return _parse(source, tie_policy, horizon)
    raise TypeError("source must be a path, text, bytes, or file object")


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


def _split_rows(text):
    """Header and body cells of plain text by ``str.split``, or None.

    Plain means no ``"``, ``\\r`` or NUL, no line longer than the csv field
    limit, and as many commas on every line as on the header: on such text
    ``csv.reader`` returns the same cells.  One scan of the UTF-8 bytes
    decides it: there "," and "\\n" are single bytes that no longer
    character contains, and a line has at least as many bytes as characters.
    """
    if not text or '"' in text or "\r" in text or "\0" in text:
        return None
    body = text if text.endswith("\n") else text + "\n"
    raw = np.frombuffer(body.encode("utf-8", "surrogatepass"), np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    newline = raw[seps] == ord("\n")
    # plain: (width - 1) commas and a newline, once per row
    width, rows = int(np.argmax(newline)) + 1, np.count_nonzero(newline)
    if (newline.size != rows * width or not newline[width - 1::width].all()
            or np.diff(seps[newline], prepend=-1).max() > csv.field_size_limit() + 1):
        return None
    cells = body.replace("\n", ",").split(",")
    cells.pop()  # after the newline that ends the last row
    return cells[:width], [cells[width + j::width] for j in range(width)], np.full(rows - 1, width)


def _reader_rows(text):
    """Header and body cells by ``csv.reader``, which handles quoted cells and
    every line ending: the header, one list of cells per header column, and
    each row's field count.  A row of another width holds blank cells; if it
    has no non-blank cell it counts as full width and is skipped as blank.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    header, records = None, []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty input")
        records.extend(reader)
    except csv.Error as exc:  # a cell over the csv field limit; a NUL before Python 3.11
        raise ParseError(str(exc), row=len(records) + 1 + (header is not None)) from None
    width = len(header)
    lengths = np.fromiter(map(len, records), np.intp, len(records))
    for k in np.flatnonzero(lengths != width):
        if not any(f.strip() for f in records[k]):
            lengths[k] = width
        records[k] = [""] * width
    return header, [list(map(itemgetter(j), records)) for j in range(width)], lengths


def _parse(text, tie_policy, horizon):
    header, columns, lengths = _split_rows(text) or _reader_rows(text)
    header = [h.strip() for h in header]
    required = ["id", "inf_time", "end_time", "end_status"]
    if header[: len(required)] != required:
        raise ParseError(f"header must start with {','.join(required)}", row=1)
    width = len(header)

    # body row k is file row k + 2; rows with no non-blank cell are skipped
    n = lengths.size
    wrong_width = lengths != width
    ids = list(map(str.strip, columns[0]))
    no_id = ~np.fromiter(map(bool, ids), bool, n) if "" in ids else np.zeros(n, bool)
    blank = no_id & ~wrong_width
    for k in np.flatnonzero(blank):
        blank[k] = not any(column[k].strip() for column in columns)
    keep = ~blank
    inf_text, raw_inf, no_inf, inf_number = _text_column(columns[1])
    end_text, end, no_end, end_number = _text_column(columns[2])
    status_text = columns[3]
    status = np.fromiter(map(_STATUS_CODE.get, status_text, repeat(-1)), np.int64, n)
    if (status < 0).any():  # padded, blank or unknown cells
        status = np.fromiter(map(_STATUS_CODE.get, map(str.strip, status_text), repeat(-1)),
                             np.int64, n)
    exposed = ~no_inf
    tied = exposed & (raw_inf == end)
    inf = np.where(tied, end - tie_policy.eps, raw_inf) if tie_policy.kind == "shift" else raw_inf
    covariates = {name: _text_column(cells) for name, cells in zip(header[4:], columns[4:])}

    # one mask per check, in the order a row is checked; the first row
    # that fails any check reports the first check it fails (quoting the
    # cell stripped: a column read as given holds its cells unstripped)
    checks = [
        (wrong_width, lambda k: f"expected {width} fields, got {lengths[k]}"),
        (no_id & ~blank, lambda k: "empty id"),
        (exposed & ~inf_number, lambda k: f"bad inf_time {inf_text[k].strip()!r}"),
        (inf_number & ~np.isfinite(raw_inf), lambda k: f"non-finite inf_time {inf_text[k].strip()!r}"),
        (raw_inf < 0, lambda k: "negative inf_time"),
        (no_end, lambda k: "missing end_time"),
        (~no_end & ~end_number, lambda k: f"bad end_time {end_text[k].strip()!r}"),
        (end_number & ~np.isfinite(end), lambda k: f"non-finite end_time {end_text[k].strip()!r}"),
        (end < 0, lambda k: "negative end_time"),
        (status < 0, lambda k: f"unknown status {status_text[k].strip()!r}"),
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
        raise ParseError(checks[j][1](k), row=k + 2)

    diagnostics = tuple(
        Diagnostic(ids[k], f"inf_time tied with end_time; shifted to {inf[k]:g}")
        for k in np.flatnonzero(tied & keep)
    )
    columns = {}
    for name, (text, values, _, number) in covariates.items():
        if number[keep].all():
            columns[name] = values
        else:  # mixed: numbers as floats, the rest as (stripped) text
            cells = [v if ok else t for t, v, ok in zip(text, values.tolist(), number.tolist())]
            columns[name] = np.fromiter(cells, object, n)
    if not keep.all():  # drop the blank rows
        ids = list(compress(ids, keep.tolist()))
        inf, end, status = inf[keep], end[keep], status[keep]
        columns = {name: column[keep] for name, column in columns.items()}
    return Cohort.from_columns(
        ids, inf, end, status, columns,
        tie_policy=tie_policy, horizon=horizon or 0.0, diagnostics=diagnostics,
    )


def summarize(cohort: Cohort) -> CohortSummary:
    """Exposure/outcome counts and total person-time."""
    counts = np.bincount(3 * cohort.exposed + cohort.status, minlength=6).tolist()
    outcomes = {STATUS_DEATH: "deaths", STATUS_DISCHARGE: "discharges", STATUS_CENSORED: "censored"}
    by_group = {f"{group}_{outcomes[code]}": counts[3 * exposed + code]
                for exposed, group in enumerate(("unexposed", "exposed")) for code in outcomes}
    return CohortSummary(n=len(cohort), exposed=sum(counts[3:]),
                         person_days=float(cohort.end.sum()), **by_group)


def to_transitions(cohort: Cohort) -> TransitionRecords:
    """The six-state counting-process view of a cohort's columns."""
    return TransitionRecords.from_arrays(cohort.ids, cohort.inf, cohort.end, cohort.status,
                                         cohort.covariates)


def discretize(cohort: Cohort, allow_drop: bool = False) -> DailyPanel:
    """Build the integer-day panel over days 1..ceil(horizon).

    Censored subjects violate the complete-follow-up assumption of the
    discrete estimators; they are rejected unless ``allow_drop`` is set,
    in which case they are excluded and flagged.
    """
    censored = cohort.status == STATUS_CENSORED
    dropped = tuple(cohort.ids[censored])
    if dropped and not allow_drop:
        raise DataError(
            "censored subjects present (pass allow_drop to exclude them): " + ", ".join(dropped)
        )
    kept = cohort.subset(~censored) if dropped else cohort
    if not len(kept):
        raise DataError("empty cohort")
    m = int(math.ceil(cohort.horizon))
    exposure_day = np.nan_to_num(np.ceil(kept.inf), nan=m + 1).astype(np.int64)
    return DailyPanel(ids=tuple(kept.ids), exposure_day=exposure_day,
                      terminal_day=np.ceil(kept.end).astype(np.int64), status=kept.status,
                      n_days=m, covariates=kept.covariates, dropped=dropped)


def cohort_to_csv(cohort: Cohort) -> str:
    """Serialize a cohort in the same CSV format parse_cohort reads."""
    times = "".join(_csv_rows((cohort.inf, cohort.end), first_as_is=False)).splitlines()
    columns = [_csv_cells(map(str, cohort.ids)), times,
               [_STATUS_NAME[s] for s in cohort.status.tolist()]]
    for column in cohort.covariates.values():
        columns.append(_csv_cells("" if v is _ABSENT else f"{v}" for v in column.tolist()))
    lines = [",".join(_csv_cells(["id", "inf_time", "end_time", "end_status",
                                  *cohort.covariate_names()]))]
    lines += map(",".join, zip(*columns))
    return "\n".join(lines) + "\n"


def _csv_cells(cells):
    """Text cells as ``csv`` writes them: a cell holding a comma, a quote or
    a line break is quoted, with its quotes doubled; others are as given."""
    cells = list(cells)
    joined = "".join(cells)
    if not any(s in joined for s in ',"\r\n'):
        return cells
    return ['"' + c.replace('"', '""') + '"' if any(s in c for s in ',"\r\n') else c
            for c in cells]
