"""Spans recorded in memory by wrappers installed from outside the program.

A span has a name, a start, an end, the span that was open when it
started (its parent) and the id of the job it belongs to.  Spans live in
flat arrays, 32 bytes each, so a traced search with millions of calls
stays small; derived quantities are computed with numpy after the run.

Wrappers are installed at module bindings: ``from .bandwidth import
local_bandwidth_closed`` copies the function into the importing module,
so a function is wrapped in every namespace that holds it and the span
name records which binding the call went through
(``bandwidth.local_bandwidth_closed@knumber``).
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


class SpanRecorder:
    """Append-only span store; the innermost open span is the parent of the next."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("i")
        self.attrs: dict[int, dict] = {}
        self.job_id = -1
        self._open: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    def table(self) -> "SpanTable":
        if self._open:
            raise RuntimeError(f"{len(self._open)} span(s) still open")
        return SpanTable(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int64).copy(),
            job=np.frombuffer(self.job, dtype=np.int32).copy(),
            attrs=dict(self.attrs),
        )


@dataclass
class SpanTable:
    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    job: np.ndarray
    attrs: dict[int, dict]

    def __len__(self) -> int:
        return self.start.size

    def durations(self) -> np.ndarray:
        return self.end - self.start

    def self_times(self) -> np.ndarray:
        return self_times(self.start, self.end, self.parent)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[self.name[i]],
                            "start": float(self.start[i]),
                            "end": float(self.end[i]),
                            "parent": int(self.parent[i]),
                            "job": int(self.job[i]),
                            **self.attrs.get(i, {}),
                        }
                    )
                    + "\n"
                )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its children cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other: the covered time is the sum of their
    durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


Before = Callable[[tuple, dict], tuple[tuple, dict]]
After = Callable[[tuple, dict, object], dict]


def traced(recorder: SpanRecorder, name: str, fn: Callable, before: Before | None = None,
           after: After | None = None) -> Callable:
    """``fn`` inside a span; ``before`` may replace arguments, ``after`` returns span attributes."""
    name_id = recorder.name_id(name)
    span_open, span_close, attrs = recorder.open, recorder.close, recorder.attrs

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        i = span_open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            span_close(i)
        if after is not None:
            attrs[i] = after(args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
