"""Spans around the pipeline's public functions, recorded from outside.

The tracer replaces each target function in every ``rephrasing`` module
that holds a reference to it, so calls made through ``from .x import y``
bindings are seen too; nothing under ``src/`` changes.  One span is kept
per call: name, start, end, the enclosing span (the calling span on the
same thread, else the active stage span) and self time.  Self time is
the duration minus the time same-thread child spans cover.  A generator
function's span runs from the call to exhaustion and its self time is
the time spent inside ``next()``.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

# Span fields, stored as a list per span to keep the trace small.
NAME, START, END, PARENT, THREAD, SELF = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stage_span: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[int, list[int]]:
        stack = self._stack()
        parent = stack[-1] if stack else self.stage_span
        span = [name, time.perf_counter(), 0.0, parent, threading.get_ident(), 0.0]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        return index, stack

    def _charge_parent(self, stack: list[int], seconds: float) -> None:
        # Child time is subtracted only from a same-thread caller.
        if stack:
            self.spans[stack[-1]][SELF] -= seconds

    def call(self, name: str, fn: Callable, *args, _stage: bool = False, **kwargs):
        index, stack = self._open(name)
        span = self.spans[index]
        stack.append(index)
        outer = self.stage_span
        if _stage:
            self.stage_span = index
        try:
            return fn(*args, **kwargs)
        finally:
            self.stage_span = outer
            stack.pop()
            span[END] = time.perf_counter()
            duration = span[END] - span[START]
            span[SELF] += duration
            self._charge_parent(stack, duration)

    def function(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def stage(self, name: str, fn: Callable) -> Callable:
        """Like ``function``, and the span parents spans on other threads."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, _stage=True, **kwargs)

        return traced

    def generator(self, namer: Callable[..., str], fn: Callable) -> Callable:
        """Wrap a generator function; ``namer(*args)`` names each span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, _ = self._open(namer(*args, **kwargs))
            span = self.spans[index]
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack = self._stack()
                    started = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        span[END] = time.perf_counter()
                        span[SELF] += span[END] - started
                        self._charge_parent(stack, span[END] - started)
                        return
                    spent = time.perf_counter() - started
                    span[SELF] += spent
                    self._charge_parent(stack, spent)
                    yield item
            finally:
                if not span[END]:
                    # Abandoned before exhaustion: close the span, mark it partial.
                    span[END] = time.perf_counter()
                    span[NAME] += "[partial]"
                inner.close()

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: count, summed duration and summed self time."""
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            row = totals[span[NAME]]
            row["count"] += 1
            row["total_s"] += span[END] - span[START]
            row["self_s"] += span[SELF]
        return dict(totals)

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "thread": span[THREAD],
                    "self_s": span[SELF],
                }
                handle.write(json.dumps(record) + "\n")


def rebind(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` to ``replacement`` in every rephrasing module."""
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.partition(".")[0] != "rephrasing":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
