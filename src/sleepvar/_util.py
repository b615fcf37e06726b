"""Small shared helpers: immutable arrays, whole-document text I/O, the CSV
writer, the JSON document reader and its field rules, the normal CDF."""

from __future__ import annotations

import base64
import contextlib
import json
import math
import numbers
import os
import re
import stat
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
        raise DataError(f"{what} must be one or more distinct, non-empty strings, got {names!r}")
    return tuple(names)


def checked_count(value, what: str) -> int:
    """``value`` as an int: a non-negative integer (not a bool, float or string)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise DataError(f"{what} must be a non-negative integer, got {value!r}")
    return int(value)


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
        raise DataError(f"{what} shape must be a list of counts, got {dims!r}")
    dims = tuple(checked_count(n, f"{what} shape entry") for n in dims)
    if dims != shape:
        raise DataError(f"{what} must have shape {shape}, got {dims}")
    if not isinstance(text, str):
        raise DataError(f"{what} float64le must be a base64 string")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError:
        raise DataError(f"{what} float64le is not valid base64") from None
    if len(data) != (need := 8 * math.prod(dims)):
        raise DataError(f"{what} float64le holds {len(data)} bytes, shape {dims} needs {need}")
    return np.frombuffer(data, dtype="<f8").reshape(dims)


def frozen_array(value, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only float64 copy of ``value``, which must have ``shape`` and be finite.

    ``value`` is an array, nested lists of numbers, or the :func:`packed`
    form.  An empty value takes an empty ``shape``, as the lag stack of a
    VAR(0) arrives flat (``[]``) from JSON.  Every entry must be a real
    number: numpy would read a bool or a numeric string as one, so those are
    rejected.
    """
    if isinstance(value, dict):
        arr = _unpacked(value, what, shape)
    else:
        try:
            arr = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
            if arr.dtype.kind not in "fiu" and not all(
                issubclass(t, numbers.Real) and t is not bool for t in set(map(type, arr.flat))
            ):
                raise TypeError
            arr = np.asarray(arr, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise DataError(f"{what} must be an array of numbers") from None
    if arr.size == 0 and 0 in shape:
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise DataError(f"{what} must have shape {shape}, got {arr.shape}")
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
    DataError, becomes ``ModelFormatError("corrupted <what> document: ...")``.
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
    except (TypeError, ValueError, DataError) as exc:
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
    or of an already-open file object."""
    if hasattr(source, "read"):
        return source.read()  # type: ignore[union-attr]
    with open(source, "r", encoding="utf-8-sig", newline="") as fh:
        return fh.read()


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
