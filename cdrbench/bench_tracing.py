"""Spans recorded by the benchmark around the simulator's public entry points.

The simulator is not edited for tracing.  :class:`Instrumentation` swaps a
timing wrapper in for each probed function or method for the duration of a
traced iteration and puts the original back afterwards, so untraced
iterations run the unmodified code.  Spans stay in memory; the benchmark
reduces them to per-layer calls and self time when the run ends.

Standard library only.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    """One timed call: name, start, end, the span that caused it, its iteration."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans and counters; spans nest through a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.iteration = 0
        self._open: list[int] = []
        self._next_id = 0

    def begin(self, name: str) -> tuple[int, str, float, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        return span_id, name, self.clock(), parent

    def end(self, opened: tuple[int, str, float, int | None]) -> Span:
        end = self.clock()
        span_id, name, start, parent = opened
        if not self._open or self._open[-1] != span_id:
            raise RuntimeError(f"span {name!r} closed out of order")
        self._open.pop()
        span = Span(span_id, name, start, end, parent, self.iteration)
        self.spans.append(span)
        return span

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.iteration, name)] += amount

    def wrap(self, name: str, function: Callable, on_return: Callable | None = None):
        """*function* timed as span *name*; ``on_return(recorder, args, kwargs, result)``."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            opened = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(opened)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def counter(self, function: Callable, on_call: Callable):
        """*function* untimed; ``on_call(recorder, call)`` decides what to count.

        ``call`` is a zero-argument callable that runs the original and
        returns its result, so the hook can look at state before and after.
        """

        @functools.wraps(function)
        def counted(*args, **kwargs):
            return on_call(self, lambda: function(*args, **kwargs), args)

        return counted


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    covered_to = float("-inf")
    for start, end in sorted(intervals):
        if end <= covered_to:
            continue
        total += end - max(start, covered_to)
        covered_to = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
            if child.end > span.start and child.start < span.end
        )
        result[span.id] = span.duration - covered
    return result


@dataclass(frozen=True)
class Probe:
    """One entry point to trace: ``owner.attribute`` under span *name*.

    A module-level function is replaced in every loaded module of
    *package* that holds it, so callers that imported it by name are
    traced too.  With ``span=False`` the probe only counts: *hook* is then
    an ``on_call`` for :meth:`SpanRecorder.counter`, otherwise an
    ``on_return`` for :meth:`SpanRecorder.wrap`.
    """

    name: str
    owner: object
    attribute: str
    hook: Callable | None = None
    span: bool = True


def aliases(function, package: str):
    """Every ``(module, attribute)`` of the loaded *package* bound to *function*."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == package or module_name.startswith(package + ".")):
            continue
        for attribute, value in sorted(vars(module).items()):
            if value is function:
                found.append((module, attribute))
    return found


class Instrumentation:
    """Context manager that installs probes on entry and restores them on exit."""

    def __init__(self, recorder: SpanRecorder, probes, package: str) -> None:
        self.recorder = recorder
        self.probes = tuple(probes)
        self.package = package
        self._installed: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        for probe in self.probes:
            original = vars(probe.owner)[probe.attribute]
            if probe.span:
                wrapper = self.recorder.wrap(probe.name, original, probe.hook)
            else:
                wrapper = self.recorder.counter(original, probe.hook)
            if isinstance(probe.owner, type):
                targets = [(probe.owner, probe.attribute)]
            else:
                targets = aliases(original, self.package)
            for owner, attribute in targets:
                self._installed.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()
