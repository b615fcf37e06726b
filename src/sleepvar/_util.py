"""Small shared helpers: immutable arrays, whole-document text I/O, the CSV
writer, the JSON document reader, the normal CDF, and the one rule for each
kind of argument (names, choices, counts and seeds, reals in an interval,
arrays and series), which every public entry point applies."""

from __future__ import annotations

import base64
import contextlib
import json
import math
import numbers
import os
import re
import stat
from reprlib import repr as brief  # a repr cut to a few dozen characters
from typing import IO, Callable, Sequence, TypeVar, Union

import numpy as np

from .errors import DataError, ModelFormatError

TextSource = Union[str, os.PathLike, IO[str]]
T = TypeVar("T")

_NEEDS_QUOTES = re.compile('[,"\r\n]')  # csv.writer quotes a field holding one of these
SCHEMA_VERSION = 2          # the version save_model writes
READABLE_VERSIONS = (1, 2)  # the versions model and process documents are read in


def norm_cdf(x: float) -> float:
    """Standard normal CDF; for x < 0 it is the lower tail, free of cancellation."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def freeze(a: np.ndarray) -> np.ndarray:
    """Return a read-only float64 copy of ``a`` (caller keeps no alias)."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def checked_names(names, what: str) -> tuple[str, ...]:
    """``names`` as a tuple: a list or tuple of one or more distinct, non-empty strings."""
    if not (isinstance(names, (list, tuple)) and names
            and all(isinstance(n, str) and n for n in names) and len(set(names)) == len(names)):
        raise DataError(f"{what} must be one or more distinct, non-empty strings, got {brief(names)}")
    return tuple(names)


def checked_choice(value, choices: tuple[str, ...], what: str) -> str:
    """``value``, which must be one of the strings ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise DataError(f"unknown {what} {brief(value)}; choose from {choices}")
    return value


def checked_count(value, what: str, low: int | None = 0) -> int:
    """``value`` as an int: an integer (not a bool, float or string) of at
    least ``low``, or of any sign and size when ``low`` is None (a seed)."""
    if (type(value) is not int  # a plain int skips the Integral ABC check, ~0.5 us
            and (type(value) is bool or not isinstance(value, numbers.Integral))
            or low is not None and value < low):
        rule = ("an integer" if low is None else "a non-negative integer" if low == 0
                else f"an integer >= {low}")
        raise DataError(f"{what} must be {rule}, got {brief(value)}")
    return int(value)


def checked_real(value, what: str, low: float = 0.0, high: float = 1.0,
                 closed: bool = False) -> float:
    """``value`` as a float: a real number (not a bool or string) in the open
    interval (low, high), or in [low, high] when ``closed``.  NaN lies in neither."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (low <= value <= high if closed else low < value < high)):
        interval = f"[{low:g}, {high:g}]" if closed else f"({low:g}, {high:g})"
        raise DataError(f"{what} must lie in {interval}, got {brief(value)}")
    return float(value)


def real_array(value, what: str) -> np.ndarray:
    """``value`` as a float array whose every entry is a real number: a bool,
    a numeric string or a complex number, which numpy would read as one, is
    rejected.  A float or integer ndarray is taken as it is, unscanned."""
    try:
        arr = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
        if arr.dtype.kind not in "fiu" and not all(
            issubclass(t, numbers.Real) and t is not bool for t in set(map(type, arr.flat))
        ):
            raise TypeError
        return np.asarray(arr, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{what} must be an array of numbers") from None


def checked_series(value, min_len: int, complete: bool = True) -> np.ndarray:
    """``value`` as a 1-D float array of at least ``min_len`` real entries,
    each finite or, unless ``complete``, missing (NaN)."""
    y = real_array(value, "series")
    if y.ndim != 1:
        raise DataError(f"series must be 1-D, got shape {y.shape}")
    if y.size < min_len:
        raise DataError(f"series too short: need at least {min_len} observations, got {y.size}")
    if complete and np.isnan(y).any():
        raise DataError("series contains missing values")
    if np.isinf(y).any():
        raise DataError("series contains non-finite values")
    return y


def packed(arr: np.ndarray) -> dict:
    """The packed JSON form of ``arr`` that :func:`frozen_array` reads: its
    shape, and its float64 entries in C order as little-endian bytes in base64."""
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "float64le": base64.b64encode(data).decode("ascii")}


def _unpacked(value: dict, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """The array of a :func:`packed` form, which must declare ``shape``.

    The declared shape is compared with ``shape`` and the decoded length
    with it before anything is reshaped, so no size in the document reaches
    an allocation.
    """
    if set(value) != {"shape", "float64le"}:
        raise DataError(f"{what} must be an array of numbers or hold 'shape' and 'float64le'")
    dims, text = value["shape"], value["float64le"]
    if not isinstance(dims, list):
        raise DataError(f"{what} shape must be a list of counts, got {brief(dims)}")
    dims = tuple(checked_count(n, f"{what} shape entry") for n in dims)
    if dims != shape:
        raise DataError(f"{what} must have shape {brief(shape)}, got {brief(dims)}")
    if not isinstance(text, str):
        raise DataError(f"{what} float64le must be a base64 string")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError:
        raise DataError(f"{what} float64le is not valid base64") from None
    if len(data) != (need := 8 * math.prod(dims)):
        raise DataError(f"{what} float64le holds {len(data)} bytes, "
                        f"shape {brief(dims)} needs {brief(need)}")
    return np.frombuffer(data, dtype="<f8").reshape(dims)


def frozen_array(value, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only float64 copy of ``value``, which must have ``shape`` and be finite.

    ``value`` is an array, nested lists of numbers, or the :func:`packed`
    form.  An empty value takes an empty ``shape``, as the lag stack of a
    VAR(0) arrives flat (``[]``) from JSON.  Every entry must be a real
    number (:func:`real_array`).
    """
    arr = _unpacked(value, what, shape) if isinstance(value, dict) else real_array(value, what)
    if arr.size == 0 and 0 in shape:
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise DataError(f"{what} must have shape {brief(shape)}, got {brief(arr.shape)}")
    if not np.isfinite(arr).all():
        raise DataError(f"{what} contains non-finite entries")
    return freeze(arr)


def load_document(
    source: TextSource, what: str, required: Sequence[str], build: Callable[[dict], T]
) -> T:
    """Decode the JSON document at ``source`` and return ``build(doc)``.

    The top level must be an object whose ``version`` (1 when absent) is one
    of :data:`READABLE_VERSIONS` and which holds every ``required`` field.  Each
    fault found here, or raised by ``build`` as TypeError, ValueError or
    DataError, and a nesting too deep to decode (RecursionError), becomes
    ``ModelFormatError("corrupted <what> document: ...")``.
    """
    try:
        doc = json.loads(read_text(source))
        if not isinstance(doc, dict):
            raise DataError("top level must be an object")
        version = checked_count(doc.get("version", 1), "version")
        if version not in READABLE_VERSIONS:
            expected = " or ".join(map(str, READABLE_VERSIONS))
            raise DataError(f"unsupported schema version {version} (expected {expected})")
        for name in required:
            if name not in doc:
                raise DataError(f"missing field {name!r}")
        return build(doc)
    except (TypeError, ValueError, RecursionError, DataError) as exc:
        raise ModelFormatError(f"corrupted {what} document: {exc}")


def _text_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def csv_text(header: Sequence[str], columns: Sequence[Sequence],
             cell: Callable[[object], str] = lambda v: "" if v != v else str(v)) -> str:
    """A CSV document: the ``header`` row, then row i of the equal-length ``columns``.

    A column of ``str`` is text: its cells, like the header's, are quoted as
    ``csv.writer`` quotes them, so ``csv.reader`` reads them back.  Every other
    cell is written as ``cell(value)``: by default empty for NaN, else ``str``
    (a float's shortest round-trip repr).  Every line ends in LF.
    """
    fields = [list(map(_text_field if column and isinstance(column[0], str) else cell, column))
              for column in columns]
    return "\n".join([",".join(map(_text_field, header)), *map(",".join, zip(*fields)), ""])


def read_text(source: TextSource) -> str:
    """The whole text of a path (UTF-8, a leading BOM dropped, line ends kept)
    or of an already-open file object.

    A path whose bytes are not UTF-8 raises :class:`DataError` at the line
    of the first faulty byte, lines ending at LF, CRLF or a lone CR as in
    the CSV reader.
    """
    if hasattr(source, "read"):
        return source.read()  # type: ignore[union-attr]
    with open(source, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            before = exc.object[:exc.start]
            line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
            raise DataError(f"line {line}: not UTF-8 text "
                            f"(byte {exc.object[exc.start]:#04x}: {exc.reason})") from None


def write_text(sink: TextSource, text: str) -> None:
    """Write a whole document, UTF-8 with line ends as given, in one write.

    A file object gets ``text`` directly.  A path that does not exist yet, or
    names a regular file with one link that this process owns and may write,
    is replaced atomically: the bytes go to a temporary file in the same
    directory, which takes the old file's mode (a new file gets the usual
    ``0o666 & ~umask``) and is then renamed over the target, so a reader
    never sees a partial document and a failed write leaves the old file as
    it was.  Every other path (a symlink, a file with several hard links, a
    device such as ``/dev/null``, a file of another user or group, one the
    process may not write, or one in a directory the temporary file cannot
    be made in) is truncated and written in place, as ``open(path, "w")``
    would.
    """
    if hasattr(sink, "write"):
        sink.write(text)  # type: ignore[union-attr]
        return
    data = text.encode("utf-8")
    if not _replace(os.fspath(sink), data):
        with open(sink, "wb") as fh:
            fh.write(data)


def _replace(path, data: bytes) -> bool:
    """Write ``data`` to ``path`` by rename; False if ``path`` must be written in place."""
    if os.name != "posix":  # ownership and modes below are POSIX notions
        return False
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    except OSError:
        return False  # the open in place raises the error a plain open would
    if old is not None and not (
        stat.S_ISREG(old.st_mode) and old.st_nlink == 1
        and old.st_uid == os.geteuid() and os.access(path, os.W_OK)
    ):
        return False
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return False
    done = False
    try:
        with open(fd, "wb") as fh:
            if old is not None:
                # A rename would change the file's group (in a set-group-ID
                # directory, say): write in place instead.
                if os.fstat(fd).st_gid != old.st_gid:
                    return False
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            fh.write(data)
        os.replace(tmp, path)
        done = True
    finally:
        if not done:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    return True
