"""Daily-grid multivariate series: ingestion, alignment, imputation, summaries.

The central type is :class:`SeriesFrame`, an immutable ``T x K`` block of
daily observations.  Dates are implicit: row ``i`` belongs to
``start_date + i`` days, so the grid is contiguous by construction and a
tracking gap shows up as a missing value (NaN), never as a missing row.

Two source schemas are supported:

* sleep exports with header ``date,score`` (integer score 1..100, may be empty),
* mood logs with header ``date,depressed,anxious,irritable,elevated``
  (integers 0..3, several rows per day allowed; the most severe value wins).
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import itertools
import math
from dataclasses import dataclass
from reprlib import repr as brief
from typing import Sequence

import numpy as np

from ._util import (
    TextSource, checked_choice, checked_count, checked_names, csv_text, freeze, overflow_checked,
    read_text, real_array, write_text,
)
from .errors import DataError

SLEEP_SCORE_RANGE = (1.0, 100.0)
MOOD_VARIABLES = ("depressed", "anxious", "irritable", "elevated")
MOOD_LEVELS = (0, 1, 2, 3)

IMPUTE_POLICIES = ("forward_fill", "linear", "none")
DEFAULT_IMPUTE_POLICY = "forward_fill"
DEFAULT_MAX_GAP = 3


@dataclass(frozen=True)
class SummaryStats:
    """Column summary over the non-missing values (sd uses the n-1 divisor)."""

    total: int
    missing: int
    mean: float
    sd: float
    max: float
    min: float


@dataclass(frozen=True)
class SeriesFrame:
    """Immutable daily grid of K named series with explicit missingness.

    ``values`` has shape (T, K) float64; NaN marks a missing cell.  All
    operations on frames are pure functions returning new frames, so
    instances are safe to share between threads.
    """

    start_date: dt.date
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.start_date, dt.date) or isinstance(self.start_date, dt.datetime):
            raise DataError(f"start date must be a datetime.date, got {brief(self.start_date)}")
        object.__setattr__(self, "names", checked_names(self.names, "variable names"))
        vals = real_array(self.values, "frame values")
        if vals.ndim != 2:
            raise DataError(f"frame values must be 2-D, got shape {vals.shape}")
        if vals.shape[0] < 1:
            raise DataError("frame must contain at least one row")
        if vals.shape[1] != len(self.names):
            raise DataError(
                f"frame has {len(self.names)} names but {vals.shape[1]} columns"
            )
        if np.isinf(vals).any():
            raise DataError("frame values must be finite or missing (NaN)")
        object.__setattr__(self, "values", freeze(vals))

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]

    @property
    def end_date(self) -> dt.date:
        return self.start_date + dt.timedelta(days=self.n_obs - 1)

    def dates(self) -> list[dt.date]:
        return [self.start_date + dt.timedelta(days=i) for i in range(self.n_obs)]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown column {brief(name)}; frame has {brief(self.names)}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.index_of(name)]

    def has_missing(self) -> bool:
        return bool(np.isnan(self.values).any())


# --- Text parsing ------------------------------------------------------------
# A parser reads its text once through _Rows: one csv.reader split, the
# header check, and the data rows as columns.  Each distinct cell of a value
# column goes once through its kind's rule (exports and frames repeat a few
# cells many times), rule(name, cell), which returns the cell's value or the
# message of its fault.  The parser then builds one boolean mask over the
# rows per check, in the order a row is checked: the date, then the
# duplicate date (sleep) or the contiguous grid (frame), then the value
# cells from left to right.  _raise_first raises the first faulty row's
# first failing check, the error a row-by-row parser would raise; only then
# is its line counted.  Line numbers count CSV records as csv.reader yields
# them: the header is line 1, and blank rows count.  Every cell, name or
# header a message echoes is cut by reprlib.repr.


class _Rows:
    """The data rows of a CSV text: the records after the header with a
    non-blank cell, cut at the first row of another width, whose error
    ``cut`` is raised only when no kept row is faulty.  ``ordinals`` holds
    each row's day ordinal, 0 where the date is malformed."""

    def __init__(self, source: TextSource, expected: Sequence[str] | None):
        """``expected`` is the exact header, or None for a frame CSV's."""
        reader = csv.reader(io.StringIO(read_text(source), newline=""))
        try:
            self.records = list(reader)
        except csv.Error as exc:  # a field over csv's size limit, say
            raise DataError(f"line {reader.line_num}: {exc}") from None
        self.header = self.records[0] if self.records else None
        if expected is None:
            if not self.header or self.header[0].strip() != "date" or len(self.header) < 2:
                raise DataError("frame CSV must start with header 'date,<name1>,...'")
        elif self.header is None:
            raise DataError("empty file: missing header row")
        elif (header := [h.strip() for h in self.header]) != list(expected):
            raise DataError(f"unexpected header {brief(header)}; expected {list(expected)!r}")
        rows = [row for row in self.records[1:] if any(map(str.strip, row))]
        if not rows:
            raise DataError("empty file: no data rows")
        width, self.cut = len(self.header), None
        if set(map(len, rows)) != {width}:
            n = next(i for i, row in enumerate(rows) if len(row) != width)
            self.cut = DataError(f"line {self.line(n)}: expected {width} fields, got {len(rows[n])}")
            if n == 0:
                raise self.cut
            rows = rows[:n]
        self.days, *self.columns = zip(*rows)
        try:
            self.ordinals = np.array(list(map(
                dt.date.toordinal, map(dt.date.fromisoformat, map(str.strip, self.days)))))
        except ValueError:
            self.ordinals = np.array(list(map(_ordinal, self.days)))

    def line(self, i: int) -> int:
        """The line number of data row ``i``."""
        data = (n for n, row in enumerate(self.records[1:], 2) if any(map(str.strip, row)))
        return next(itertools.islice(data, i, None))

    def day(self, i: int) -> str:
        return dt.date.fromordinal(int(self.ordinals[i])).isoformat()

    def date_check(self):
        return self.ordinals == 0, lambda i: (
            f"malformed date {brief(self.days[i].strip())} (expected YYYY-MM-DD)")

    def values(self, rule, names):
        """The value columns through ``rule(name, cell)``, one name per
        column, as a (rows, columns) array, and one check per column, left to
        right, worded by the rule's message for the faulty cell."""
        columns, checks = [], []
        for name, column in zip(names, self.columns):
            table = {cell: rule(name, cell) for cell in set(column)}
            faults = {cell: value for cell, value in table.items() if isinstance(value, str)}
            table.update(dict.fromkeys(faults, math.nan))
            columns.append(list(map(table.__getitem__, column)))
            mask = np.array([cell in faults for cell in column]) if faults else np.zeros(len(column), bool)
            checks.append((mask, lambda i, column=column, faults=faults: faults[column[i]]))
        return np.array(columns, dtype=float).T.copy(), checks


def _ordinal(cell: str) -> int:
    try:
        return dt.date.fromisoformat(cell.strip()).toordinal()
    except ValueError:
        return 0


def _raise_first(rows: _Rows, checks) -> None:
    """Raise the error of the first faulty row, worded by its first failing
    check, or else the cut row's error.  ``checks`` pairs a boolean mask over
    the rows with a function that words the error of row ``i``."""
    firsts = [(int(mask.argmax()), c) for c, (mask, _) in enumerate(checks) if mask.any()]
    if firsts:
        i, c = min(firsts)
        raise DataError(f"line {rows.line(i)}: {checks[c][1](i)}")
    if rows.cut is not None:
        raise rows.cut


def _integer(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _score(_: str, cell: str) -> float | str:
    """A sleep score: NaN when blank, else an integer in range, or the fault's message."""
    if not cell.strip():
        return math.nan
    if (score := _integer(cell)) is None:
        return f"sleep score must be an integer or empty, got {brief(cell.strip())}"
    lo, hi = SLEEP_SCORE_RANGE
    if not lo <= score <= hi:
        return f"sleep score {brief(score)} outside [{lo:.0f}, {hi:.0f}]"
    return float(score)


def _level(name: str, cell: str) -> float | str:
    """A mood level: an integer 0-3, or the fault's message."""
    if (level := _integer(cell)) is None:
        return f"{name} must be an integer 0-3, got {brief(cell.strip())}"
    return float(level) if level in MOOD_LEVELS else f"{name} value {brief(level)} outside 0-3"


def _number(name: str, cell: str) -> float | str:
    """A frame cell: NaN when blank, else a float, or the fault's message."""
    try:
        return float(cell) if cell.strip() else math.nan
    except ValueError:
        return f"malformed number {brief(cell.strip())} in {brief(name)}"


def ingest_sleep(source: TextSource) -> SeriesFrame:
    """Read a sleep export (``date,score``) onto the contiguous daily grid.

    The grid spans the earliest to the latest date in the file.  Dates absent
    from the file and empty score cells become missing values.  Scores must
    be integers inside the valid range; duplicate dates are an error (one
    sleep bout per night).
    """
    rows = _Rows(source, ("date", "score"))
    ordinals = rows.ordinals
    scores, score_checks = rows.values(_score, ("score",))
    # A stable sort keeps a date's rows in file order: all but the first repeat it.
    order = np.argsort(ordinals, kind="stable")
    repeated = np.zeros(ordinals.size, dtype=bool)
    repeated[order[1:]] = np.diff(ordinals[order]) == 0
    _raise_first(rows, [rows.date_check(),
                        (repeated, lambda i: f"duplicate date {rows.day(i)}"), *score_checks])

    start = int(ordinals.min())
    col = np.full(int(ordinals.max()) - start + 1, np.nan)
    col[ordinals - start] = scores[:, 0]
    return SeriesFrame(dt.date.fromordinal(start), ("score",), col.reshape(-1, 1))


def ingest_mood(source: TextSource, absent_as_zero: bool = True) -> SeriesFrame:
    """Read a mood log (``date,depressed,anxious,irritable,elevated``).

    Several rows may land on one day (repeated logging); they are combined
    by per-column maximum, keeping the most severe state.  Days inside the
    covered span with no row at all become 0 ("not present") under the
    default ``absent_as_zero`` policy, or stay missing when it is off.
    """
    rows = _Rows(source, ("date",) + MOOD_VARIABLES)
    ordinals = rows.ordinals
    levels, level_checks = rows.values(_level, MOOD_VARIABLES)
    _raise_first(rows, [rows.date_check(), *level_checks])

    start = int(ordinals.min())
    # -1 is below every level, so it marks the days no row reached.
    vals = np.full((int(ordinals.max()) - start + 1, len(MOOD_VARIABLES)), -1.0)
    np.maximum.at(vals, ordinals - start, levels)
    vals[vals[:, 0] < 0] = 0.0 if absent_as_zero else np.nan
    return SeriesFrame(dt.date.fromordinal(start), MOOD_VARIABLES, vals)


def merge(frames: Sequence[SeriesFrame]) -> SeriesFrame:
    """Align frames on the union daily grid (earliest start to latest end).

    Cells outside a frame's own span are missing.  Column order is frame
    order, then each frame's own column order.  Variable names must be
    disjoint across frames.
    """
    if not frames:
        raise DataError("merge requires at least one frame")
    names: list[str] = []
    for f in frames:
        for name in f.names:
            if name in names:
                raise DataError(f"duplicate variable name across frames: {brief(name)}")
            names.append(name)

    start = min(f.start_date for f in frames)
    end = max(f.end_date for f in frames)
    n = (end - start).days + 1
    vals = np.full((n, len(names)), np.nan)
    col = 0
    for f in frames:
        off = (f.start_date - start).days
        vals[off : off + f.n_obs, col : col + f.n_vars] = f.values
        col += f.n_vars
    return SeriesFrame(start, tuple(names), vals)


@overflow_checked("values are too large: an interpolation overflows")
def impute(
    frame: SeriesFrame,
    policy: str = DEFAULT_IMPUTE_POLICY,
    max_gap: int = DEFAULT_MAX_GAP,
) -> SeriesFrame:
    """Fill missing runs of length <= ``max_gap`` per column.

    ``forward_fill`` repeats the last observed value (leading runs stay
    missing); ``linear`` interpolates between the two flanking values (so
    leading and trailing runs stay missing); ``none`` returns the frame
    unchanged.  Non-missing cells are never modified.
    """
    policy = checked_choice(policy, IMPUTE_POLICIES, "imputation policy")
    max_gap = checked_count(max_gap, "max_gap")
    if policy == "none" or not frame.has_missing():
        return frame

    vals = np.array(frame.values)
    n = frame.n_obs
    missing = np.isnan(vals)
    rows = np.arange(n)[:, None]
    # Each cell's last observed row at or before it (-1: none) and first at or after it (n: none).
    before = np.maximum.accumulate(np.where(missing, -1, rows), axis=0)
    after = np.minimum.accumulate(np.where(missing, n, rows)[::-1], axis=0)[::-1]
    fill = missing & (after - before - 1 <= max_gap) & (before >= 0)
    if policy == "linear":
        fill &= after < n
    r, c = np.nonzero(fill)
    b = before[r, c]
    lo = vals[b, c]
    if policy == "forward_fill":
        vals[r, c] = lo
    else:  # np.linspace(lo, hi, a - b + 1)'s arithmetic, its denormal branch included
        a = after[r, c]
        delta = vals[a, c] - lo
        step = delta / (a - b)
        vals[r, c] = np.where(step == 0, (r - b) / (a - b) * delta, (r - b) * step) + lo
    return SeriesFrame(frame.start_date, frame.names, vals)


@overflow_checked("values are too large: the summary statistics overflow")
def describe(frame: SeriesFrame, name: str) -> SummaryStats:
    """Summary statistics for one column, computed over non-missing values."""
    col = frame.column(name)
    present = col[~np.isnan(col)]
    if present.size == 0:
        raise DataError(f"column {brief(name)} has no non-missing values")
    sd = float(np.std(present, ddof=1)) if present.size > 1 else 0.0
    return SummaryStats(
        total=int(col.size),
        missing=int(col.size - present.size),
        mean=float(np.mean(present)),
        sd=sd,
        max=float(np.max(present)),
        min=float(np.min(present)),
    )


def _format_cell(v: float) -> str:
    if math.isnan(v):
        return ""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def write_frame_csv(frame: SeriesFrame, sink: TextSource) -> None:
    """Write ``date,<name1>,...,<nameK>`` rows; missing cells are empty."""
    first = np.datetime64(frame.start_date, "D")
    days = np.arange(first, first + frame.n_obs).astype(str).tolist()
    write_text(sink, csv_text(["date", *frame.names], [days, *frame.values.T.tolist()],
                              functools.cache(_format_cell)))


def read_frame_csv(source: TextSource) -> SeriesFrame:
    """Read a frame written by :func:`write_frame_csv` (or any matching CSV).

    The date column must be a strictly contiguous ascending daily grid;
    value cells are floats, empty meaning missing.
    """
    rows = _Rows(source, None)
    names = tuple(h.strip() for h in rows.header[1:])
    first = int(rows.ordinals[0])
    values, number_checks = rows.values(_number, names)
    off_grid = rows.ordinals != first + np.arange(rows.ordinals.size)

    def off_grid_error(i: int) -> str:
        if first + i > dt.date.max.toordinal():  # the row before it holds the last date
            expected = f"no date follows {dt.date.max}"
        else:
            expected = f"expected {dt.date.fromordinal(first + i)}"
        return f"dates must be contiguous daily; {expected}, got {rows.day(i)}"

    _raise_first(rows, [rows.date_check(), (off_grid, off_grid_error), *number_checks])
    return SeriesFrame(dt.date.fromordinal(first), names, values)
