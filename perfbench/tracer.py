"""In-memory spans around calls into sleepvar's public functions.

The tracer observes calls through ``sys.setprofile``; it never edits or
wraps the package.  A function is public when neither its module nor any
part of its qualified name starts with an underscore, so private helpers
count towards the public function that called them.  The benchmark adds
its own spans (``cli.<subcommand>``) around the calls it makes.

A span is ``[name, start, end, parent, unit]``: ``parent`` indexes the
enclosing span (-1 at top level) and ``unit`` is the loop unit the span
belongs to, so the spans of one unit share an identifier.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict

_UNSEEN = object()


class Tracer:
    def __init__(self, package_dir: str):
        self._prefix = os.path.join(os.path.abspath(package_dir), "")
        self._names: dict = {}
        self._open: list = []  # (frame or None, span index)
        self.spans: list[list] = []
        self.unit = -1

    def _name_of(self, code) -> str | None:
        if not code.co_filename.startswith(self._prefix):
            return None
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        parts = [module, *code.co_qualname.split(".")]
        if any(p.startswith(("_", "<")) for p in parts):
            return None
        return ".".join(parts)

    def _profile(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = self._names.get(code, _UNSEEN)
            if name is _UNSEEN:
                name = self._names[code] = self._name_of(code)
            if name is not None:
                self._push(name, frame)
        elif event == "return" and self._open and self._open[-1][0] is frame:
            self._pop()

    def _push(self, name: str, frame) -> None:
        parent = self._open[-1][1] if self._open else -1
        self._open.append((frame, len(self.spans)))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit])

    def _pop(self) -> None:
        _, index = self._open.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def recording(self, unit: int):
        """Record spans of every public sleepvar call made inside the block."""
        self.unit = unit
        sys.setprofile(self._profile)
        try:
            yield
        finally:
            sys.setprofile(None)
            while self._open:  # close spans left open by an exception
                self._pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own around one call into the program."""
        self._push(name, None)
        try:
            yield
        finally:
            self._pop()


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds of self time per module: a span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), covered in zip(spans, child):
        out[name.split(".", 1)[0]] += end - start - covered
    return dict(out)


def group_time(spans: list[list], names, per: str | None = None) -> tuple[float, int]:
    """Total seconds of the outermost spans named in ``names``, and a divisor.

    A name ending in ``.`` matches every span under that prefix.  Spans
    nested inside another span of the group are not counted twice.  The
    divisor is the number of outermost spans, or of spans named ``per``.
    """
    def member(name: str) -> bool:
        return any(name.startswith(n) if n.endswith(".") else name == n for n in names)

    inside = [False] * len(spans)
    total, count, per_count = 0.0, 0, 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        hit = member(name)
        enclosed = parent >= 0 and inside[parent]
        inside[i] = hit or enclosed
        per_count += name == per
        if hit and not enclosed:
            total += end - start
            count += 1
    return total, (per_count if per else count)
