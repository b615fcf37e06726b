"""Small shared helpers: immutable arrays, whole-document text I/O, the normal CDF."""

from __future__ import annotations

import contextlib
import math
import os
import stat
from typing import IO, Union

import numpy as np

TextSource = Union[str, os.PathLike, IO[str]]


def norm_cdf(x: float) -> float:
    """Standard normal CDF; for x < 0 it is the lower tail, free of cancellation."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def freeze(a: np.ndarray) -> np.ndarray:
    """Return a read-only float64 copy of ``a`` (caller keeps no alias)."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


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
