"""Small shared helpers: immutable arrays, text source/sink handling, the normal CDF."""

from __future__ import annotations

import contextlib
import math
import os
from typing import IO, Iterator, Union

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


@contextlib.contextmanager
def open_text_read(source: TextSource) -> Iterator[IO[str]]:
    """Yield a readable text stream for a path or an already-open file object."""
    if hasattr(source, "read"):
        yield source  # type: ignore[misc]
    else:
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh


@contextlib.contextmanager
def open_text_write(sink: TextSource) -> Iterator[IO[str]]:
    """Yield a writable text stream for a path or an already-open file object."""
    if hasattr(sink, "write"):
        yield sink  # type: ignore[misc]
    else:
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            yield fh
