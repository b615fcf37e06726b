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
import math
from dataclasses import dataclass
from typing import NoReturn, Sequence

import numpy as np

from ._util import TextSource, checked_names, freeze, read_text, write_text
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
        object.__setattr__(self, "names", checked_names(self.names, "variable names"))
        vals = np.array(self.values, dtype=float)
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
            raise DataError(f"unknown column {name!r}; frame has {self.names}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.index_of(name)]

    def has_missing(self) -> bool:
        return bool(np.isnan(self.values).any())


# --- Text parsing ------------------------------------------------------------
# Each parser reads the whole text, splits it once and converts whole columns.
# Exports and frames repeat a few cells (levels, scores, imputed values) many
# times, so cells convert, or format, through a per-call ``functools.cache``.
# When a check on those columns fails, a per-row locator walks the rows in
# file order and raises the first faulty row's error, the one a row-by-row
# parser would raise.  Line numbers count CSV records as csv.reader yields
# them: the header is line 1, and blank rows count.


def _integer(text: str) -> float:
    """An integer cell as a float, or NaN when blank."""
    return float(int(text)) if text.strip() else math.nan


def _number(text: str) -> float:
    """A frame cell: a float, or NaN when blank."""
    return float(text) if text.strip() else math.nan


def _records(source: TextSource) -> list[list[str]]:
    """Every CSV record of the source."""
    return list(csv.reader(io.StringIO(read_text(source), newline="")))


def _columns(records: list[list[str]], width: int) -> list[tuple[str, ...]]:
    """The columns of the data rows: the records after the header that have a
    non-blank cell.  ValueError if a data row is not ``width`` cells wide."""
    rows = [row for row in records[1:] if any(map(str.strip, row))]
    if not rows:
        raise DataError("empty file: no data rows")
    if set(map(len, rows)) != {width}:
        raise ValueError("a data row has another width")
    return list(zip(*rows))


def _numbered_rows(records: list[list[str]], width: int):
    """Yield (line_no, row) for every data row; a row of another width raises."""
    for line_no, row in enumerate(records[1:], start=2):
        if not any(map(str.strip, row)):
            continue
        if len(row) != width:
            raise DataError(f"line {line_no}: expected {width} fields, got {len(row)}")
        yield line_no, row


def _ordinals(cells: Sequence[str]) -> np.ndarray:
    """Day ordinals of ISO date cells; ValueError if any is malformed."""
    return np.array(list(map(dt.date.toordinal, map(dt.date.fromisoformat, map(str.strip, cells)))))


def _parse_date(cell: str, line_no: int) -> dt.date:
    try:
        return dt.date.fromisoformat(cell.strip())
    except ValueError:
        raise DataError(f"line {line_no}: malformed date {cell.strip()!r} (expected YYYY-MM-DD)")


def _check_header(records: list[list[str]], expected_header: Sequence[str]) -> None:
    if not records:
        raise DataError("empty file: missing header row")
    header = [h.strip() for h in records[0]]
    if header != list(expected_header):
        raise DataError(
            f"unexpected header {header!r}; expected {list(expected_header)!r}"
        )


def ingest_sleep(source: TextSource) -> SeriesFrame:
    """Read a sleep export (``date,score``) onto the contiguous daily grid.

    The grid spans the earliest to the latest date in the file.  Dates absent
    from the file and empty score cells become missing values.  Scores must
    be integers inside the valid range; duplicate dates are an error (one
    sleep bout per night).
    """
    records = _records(source)
    _check_header(records, ("date", "score"))
    lo, hi = SLEEP_SCORE_RANGE
    try:
        days, cells = _columns(records, 2)
        ordinals = _ordinals(days)
        scores = np.array(list(map(functools.cache(_integer), cells)))
    except (ValueError, OverflowError):
        _locate_sleep_error(records)
    if ((scores < lo) | (scores > hi)).any() or (np.diff(np.sort(ordinals)) == 0).any():
        _locate_sleep_error(records)

    start = int(ordinals.min())
    col = np.full(int(ordinals.max()) - start + 1, np.nan)
    col[ordinals - start] = scores
    return SeriesFrame(dt.date.fromordinal(start), ("score",), col.reshape(-1, 1))


def _locate_sleep_error(records: list[list[str]]) -> NoReturn:
    lo, hi = SLEEP_SCORE_RANGE
    seen: set[dt.date] = set()
    for line_no, row in _numbered_rows(records, 2):
        day = _parse_date(row[0], line_no)
        if day in seen:
            raise DataError(f"line {line_no}: duplicate date {day.isoformat()}")
        seen.add(day)
        cell = row[1].strip()
        if cell == "":
            continue
        try:
            score = int(cell)
        except ValueError:
            raise DataError(
                f"line {line_no}: sleep score must be an integer or empty, got {cell!r}"
            )
        if not lo <= score <= hi:
            raise DataError(
                f"line {line_no}: sleep score {score} outside [{lo:.0f}, {hi:.0f}]"
            )
    raise AssertionError("sleep export rejected, but no row is at fault")


def ingest_mood(source: TextSource, absent_as_zero: bool = True) -> SeriesFrame:
    """Read a mood log (``date,depressed,anxious,irritable,elevated``).

    Several rows may land on one day (repeated logging); they are combined
    by per-column maximum, keeping the most severe state.  Days inside the
    covered span with no row at all become 0 ("not present") under the
    default ``absent_as_zero`` policy, or stay missing when it is off.
    """
    records = _records(source)
    _check_header(records, ("date",) + MOOD_VARIABLES)
    k = len(MOOD_VARIABLES)
    try:
        days, *cells = _columns(records, 1 + k)
        ordinals = _ordinals(days)
        level = functools.cache(_integer)
        levels = np.column_stack([list(map(level, column)) for column in cells])
    except (ValueError, OverflowError):
        _locate_mood_error(records)
    if not np.isin(levels, MOOD_LEVELS).all():  # a blank cell is NaN here
        _locate_mood_error(records)

    start = int(ordinals.min())
    # -1 is below every level, so it marks the days no row reached.
    vals = np.full((int(ordinals.max()) - start + 1, k), -1.0)
    np.maximum.at(vals, ordinals - start, levels)
    vals[vals[:, 0] < 0] = 0.0 if absent_as_zero else np.nan
    return SeriesFrame(dt.date.fromordinal(start), MOOD_VARIABLES, vals)


def _locate_mood_error(records: list[list[str]]) -> NoReturn:
    for line_no, row in _numbered_rows(records, 1 + len(MOOD_VARIABLES)):
        _parse_date(row[0], line_no)
        for name, cell in zip(MOOD_VARIABLES, row[1:]):
            cell = cell.strip()
            try:
                value = int(cell)
            except ValueError:
                raise DataError(
                    f"line {line_no}: {name} must be an integer 0-3, got {cell!r}"
                )
            if value not in MOOD_LEVELS:
                raise DataError(f"line {line_no}: {name} value {value} outside 0-3")
    raise AssertionError("mood log rejected, but no row is at fault")


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
                raise DataError(f"duplicate variable name across frames: {name!r}")
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


def _missing_runs(isnan: np.ndarray):
    """Yield (start, stop) index pairs of maximal missing runs."""
    i, n = 0, isnan.size
    while i < n:
        if isnan[i]:
            j = i
            while j < n and isnan[j]:
                j += 1
            yield i, j
            i = j
        else:
            i += 1


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
    if policy not in IMPUTE_POLICIES:
        raise DataError(f"unknown imputation policy {policy!r}; choose from {IMPUTE_POLICIES}")
    if max_gap < 0:
        raise DataError(f"max_gap must be non-negative, got {max_gap}")
    if policy == "none" or not frame.has_missing():
        return frame

    vals = np.array(frame.values)
    n = frame.n_obs
    for c in range(frame.n_vars):
        x = vals[:, c]
        for s, e in _missing_runs(np.isnan(x)):
            if e - s > max_gap:
                continue
            if policy == "forward_fill":
                if s > 0:
                    x[s:e] = x[s - 1]
            else:  # linear
                if s > 0 and e < n:
                    x[s:e] = np.linspace(x[s - 1], x[e], e - s + 2)[1:-1]
    return SeriesFrame(frame.start_date, frame.names, vals)


def describe(frame: SeriesFrame, name: str) -> SummaryStats:
    """Summary statistics for one column, computed over non-missing values."""
    col = frame.column(name)
    present = col[~np.isnan(col)]
    if present.size == 0:
        raise DataError(f"column {name!r} has no non-missing values")
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
    cell = functools.cache(_format_cell)
    lines = ["date," + ",".join(frame.names)]
    lines += [day + "," + ",".join(map(cell, row)) for day, row in zip(days, frame.values.tolist())]
    lines.append("")
    write_text(sink, "\n".join(lines))


def read_frame_csv(source: TextSource) -> SeriesFrame:
    """Read a frame written by :func:`write_frame_csv` (or any matching CSV).

    The date column must be a strictly contiguous ascending daily grid;
    value cells are floats, empty meaning missing.
    """
    records = _records(source)
    header = records[0] if records else None
    if not header or header[0].strip() != "date" or len(header) < 2:
        raise DataError("frame CSV must start with header 'date,<name1>,...'")
    names = tuple(h.strip() for h in header[1:])
    try:
        days, *columns = _columns(records, len(header))
        ordinals = _ordinals(days)
        number = functools.cache(_number)
        values = np.column_stack([list(map(number, column)) for column in columns])
    except (ValueError, OverflowError):
        _locate_frame_error(records, names)
    if (np.diff(ordinals) != 1).any():
        _locate_frame_error(records, names)
    return SeriesFrame(dt.date.fromordinal(int(ordinals[0])), names, values)


def _locate_frame_error(records: list[list[str]], names: tuple[str, ...]) -> NoReturn:
    start: dt.date | None = None
    for n_rows, (line_no, row) in enumerate(_numbered_rows(records, 1 + len(names))):
        day = _parse_date(row[0], line_no)
        if start is None:
            start = day
        elif (day - start).days != n_rows:
            raise DataError(
                f"line {line_no}: dates must be contiguous daily; "
                f"expected {(start + dt.timedelta(days=n_rows)).isoformat()}, got {day.isoformat()}"
            )
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            if cell == "":
                continue
            try:
                float(cell)
            except ValueError:
                raise DataError(f"line {line_no}: malformed number {cell!r} in {name!r}")
    raise AssertionError("frame CSV rejected, but no row is at fault")
