"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.events.kernel import SimulationError, Simulator, WaitFor, WaitOn
from repro.events.signal import Signal


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_execute_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.call_after(2.0e-9, lambda: order.append("late"))
        simulator.call_after(1.0e-9, lambda: order.append("early"))
        simulator.run()
        assert order == ["early", "late"]

    def test_ties_execute_in_scheduling_order(self):
        simulator = Simulator()
        order = []
        simulator.call_after(1.0e-9, lambda: order.append("first"))
        simulator.call_after(1.0e-9, lambda: order.append("second"))
        simulator.run()
        assert order == ["first", "second"]

    def test_cannot_schedule_in_the_past(self):
        simulator = Simulator()
        simulator.call_after(1.0e-9, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.call_at(0.5e-9, lambda: None)

    @pytest.mark.parametrize("time_s", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, time_s):
        simulator = Simulator()
        with pytest.raises(SimulationError):
            simulator.call_at(time_s, lambda: None)
        assert simulator.pending_events() == 0

    def test_nan_time_rejected_after_time_advanced(self):
        # Past-time checks compare against ``now``; a NaN event would make
        # ``now`` NaN and silently disable them.
        simulator = Simulator()
        simulator.call_after(1.0e-9, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError, match="nan"):
            simulator.call_at(float("nan"), lambda: None)
        assert simulator.now == 1.0e-9

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().call_after(-1.0e-9, lambda: None)

    def test_run_until_stops_at_horizon(self):
        simulator = Simulator()
        fired = []
        simulator.call_after(1.0e-9, lambda: fired.append(1))
        simulator.call_after(5.0e-9, lambda: fired.append(2))
        simulator.run_until(2.0e-9)
        assert fired == [1]
        assert simulator.now == pytest.approx(2.0e-9)
        assert simulator.pending_events() == 1

    def test_run_until_event_limit(self):
        simulator = Simulator()

        def reschedule():
            simulator.call_after(0.0, reschedule)

        simulator.call_after(0.0, reschedule)
        with pytest.raises(SimulationError):
            simulator.run_until(1.0e-9, max_events=100)

    def test_nested_scheduling_from_callbacks(self):
        simulator = Simulator()
        hits = []

        def outer():
            hits.append(simulator.now)
            simulator.call_after(1.0e-9, inner)

        def inner():
            hits.append(simulator.now)

        simulator.call_after(1.0e-9, outer)
        simulator.run()
        assert hits == [pytest.approx(1.0e-9), pytest.approx(2.0e-9)]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False


class TestProcesses:
    def test_wait_for_delays(self):
        simulator = Simulator()
        times = []

        def process():
            times.append(simulator.now)
            yield WaitFor(3.0e-9)
            times.append(simulator.now)
            yield WaitFor(2.0e-9)
            times.append(simulator.now)

        simulator.add_process(process)
        simulator.run()
        assert times == [pytest.approx(0.0), pytest.approx(3.0e-9), pytest.approx(5.0e-9)]

    def test_wait_on_signal(self):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        seen = []

        def watcher():
            yield WaitOn(signal)
            seen.append((simulator.now, signal.value))

        simulator.add_process(watcher)
        simulator.call_after(2.0e-9, lambda: signal.force(1))
        simulator.run()
        assert len(seen) == 1
        assert seen[0][1] == 1

    def test_process_finishes(self):
        simulator = Simulator()

        def process():
            yield WaitFor(1.0e-9)

        handle = simulator.add_process(process)
        simulator.run()
        assert handle.finished

    def test_invalid_yield_raises(self):
        simulator = Simulator()

        def process():
            yield 42

        simulator.add_process(process)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_wait_on_requires_signal(self):
        with pytest.raises(ValueError):
            WaitOn()

    def test_wait_for_rejects_negative(self):
        with pytest.raises(ValueError):
            WaitFor(-1.0)
