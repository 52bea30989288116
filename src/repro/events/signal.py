"""Signals with VHDL-style transport-delayed assignment.

A :class:`Signal` carries a value (any comparable Python object; the gate
library uses ints 0/1), notifies subscribers on value *changes* (VHDL events),
and supports ``transport`` assignment semantics: scheduling a new value at
time ``t`` cancels every previously scheduled transaction at or after ``t`` —
exactly the behaviour of the ``transport`` assignments in the paper's VHDL
model of the gated CCO (Figure 12).
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from .. import telemetry
from .._validation import require_non_negative
from .kernel import _INF, SimulationError, Simulator

__all__ = ["Signal", "Edge"]


class Edge:
    """Constants naming edge polarities."""

    RISING = "rising"
    FALLING = "falling"
    ANY = "any"


class _Transaction:
    """A pending scheduled value change on a signal.

    The transaction is its own event-queue callback: calling it applies
    the value and notifies the subscribers inline, so :meth:`Signal.assign`
    builds no closure and a value change costs no extra call frames.
    """

    __slots__ = ("signal", "time_s", "value", "cancelled")

    def __init__(self, signal: "Signal", time_s: float, value) -> None:
        self.signal = signal
        self.time_s = time_s
        self.value = value
        self.cancelled = False

    def __call__(self) -> None:
        signal = self.signal
        signal._pending.remove(self)
        if self.cancelled or self.value == signal._value:
            return
        signal._value = self.value
        now = signal._simulator._now
        signal.last_event_time_s = now
        # Same dispatch as Signal._notify, inlined on the hot path.
        subscribers = signal._subscribers
        tracer = telemetry.ACTIVE
        if tracer:
            tracer.count("kernel.gate_evaluations", len(subscribers))
        for callback in subscribers:
            callback(signal, now)


class Signal:
    """A simulated signal (wire) with transport-delay scheduling.

    Subscribers are stored as a tuple: dispatch iterates the immutable
    snapshot directly (no defensive copy per event), and subscription
    changes replace the tuple — dispatch runs on every value change of
    every signal in a simulation.
    """

    __slots__ = ("_simulator", "name", "_value", "_subscribers", "_pending",
                 "last_event_time_s")

    def __init__(self, simulator: Simulator, name: str, initial=0) -> None:
        self._simulator = simulator
        self.name = name
        self._value = initial
        self._subscribers: tuple[Callable[["Signal", float], None], ...] = ()
        self._pending: list[_Transaction] = []
        self.last_event_time_s: float | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, value={self._value!r})"

    @property
    def value(self):
        """Current value of the signal."""
        return self._value

    @property
    def simulator(self) -> Simulator:
        """The simulator this signal belongs to."""
        return self._simulator

    # -- subscription --------------------------------------------------------

    def subscribe(self, callback: Callable[["Signal", float], None]) -> Callable[[], None]:
        """Register *callback(signal, time)* to run on every value change.

        Returns a function that unsubscribes the callback.
        """
        self._subscribers = self._subscribers + (callback,)

        def unsubscribe() -> None:
            subscribers = list(self._subscribers)
            try:
                subscribers.remove(callback)
            except ValueError:
                return
            self._subscribers = tuple(subscribers)

        return unsubscribe

    # -- assignment ----------------------------------------------------------

    def assign(self, value, delay_s: float = 0.0) -> None:
        """Schedule a transport-delayed assignment of *value* after *delay_s*.

        Any previously scheduled transaction at the same or a later time is
        cancelled (VHDL transport semantics).
        """
        if not 0.0 <= delay_s < _INF:
            require_non_negative("delay_s", delay_s)  # raises: negative or non-finite
        simulator = self._simulator
        target_time = simulator._now + delay_s
        pending = self._pending
        for transaction in pending:
            if transaction.time_s >= target_time:
                transaction.cancelled = True
        transaction = _Transaction(self, target_time, value)
        pending.append(transaction)
        # ``call_at`` inlined: a finite delay >= 0 puts *target_time* at or
        # after ``now``, so its past/non-finite check cannot fire here.
        heappush(simulator._queue, (target_time, next(simulator._sequence), transaction))

    def force(self, value) -> None:
        """Immediately set the signal value (used for initial conditions)."""
        if value != self._value:
            self._value = value
            self.last_event_time_s = self._simulator.now
            self._notify()

    def drive(self, times_s, values) -> None:
        """Batch stimulus injection: force each value at its absolute time.

        Equivalent to one ``call_at(t, lambda: force(v))`` per sample but
        with a single self-rescheduling callback instead of a closure and a
        heap entry per edge — the stimulus costs one pending event however
        long the drive pattern is.  Times must be non-decreasing and not in
        the past.
        """
        times_list = [float(t) for t in times_s]
        values_list = [int(v) for v in values]
        if len(times_list) != len(values_list):
            raise SimulationError("drive() needs equally long times and values")
        if not times_list:
            return
        if any(later < earlier
               for earlier, later in zip(times_list, times_list[1:])):
            raise SimulationError("drive() times must be non-decreasing")
        index = 0

        def fire() -> None:
            nonlocal index
            self.force(values_list[index])
            index += 1
            if index < len(times_list):
                self._simulator.call_at(times_list[index], fire)

        self._simulator.call_at(times_list[0], fire)

    def _notify(self) -> None:
        # The tuple is an immutable snapshot: callbacks that (un)subscribe
        # during dispatch replace it without affecting this iteration.
        # Each dispatched callback is one gate/process evaluation; the
        # disabled-telemetry cost is the single truthiness check below.
        tracer = telemetry.ACTIVE
        if tracer:
            tracer.count("kernel.gate_evaluations", len(self._subscribers))
        now = self._simulator.now
        for callback in self._subscribers:
            callback(self, now)

    # -- helpers -------------------------------------------------------------

    def on_edge(self, callback: Callable[["Signal", float], None],
                polarity: str = Edge.RISING) -> Callable[[], None]:
        """Subscribe to a particular edge polarity of a binary signal."""
        if polarity not in (Edge.RISING, Edge.FALLING, Edge.ANY):
            raise SimulationError(f"unknown edge polarity {polarity!r}")

        def filtered(signal: "Signal", time_s: float) -> None:
            if polarity == Edge.ANY:
                callback(signal, time_s)
            elif polarity == Edge.RISING and signal.value == 1:
                callback(signal, time_s)
            elif polarity == Edge.FALLING and signal.value == 0:
                callback(signal, time_s)

        return self.subscribe(filtered)

    def pending_transactions(self) -> list[tuple[float, object]]:
        """Return the (time, value) pairs currently scheduled (for inspection)."""
        return [(t.time_s, t.value) for t in self._pending if not t.cancelled]


def bus(simulator: Simulator, prefix: str, width: int, initial=0) -> list[Signal]:
    """Create a list of *width* signals named ``prefix[i]``."""
    return [Signal(simulator, f"{prefix}[{index}]", initial) for index in range(width)]
