"""Tests of the benchmark's own logic: percentiles, scaling, self time, failure counts, names."""

from __future__ import annotations

import json
import statistics
import sys
import time
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import bench_stats  # noqa: E402
from bench_speed import ScaledClock  # noqa: E402
from bench_tracing import (  # noqa: E402
    Instrumentation,
    Probe,
    Span,
    SpanRecorder,
    self_times,
    union_length,
)


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# --- percentile rule -----------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert bench_stats.tail_percentile(range(99), 0.9) is None
    assert bench_stats.tail_percentile(range(100), 0.9) == 89.0


def test_p90_is_nearest_rank_of_unsorted_samples():
    values = list(range(200, 0, -1))
    assert bench_stats.tail_percentile(values, 0.9) == 180.0


def test_p99_needs_a_thousand_samples():
    assert bench_stats.tail_percentile(range(999), 0.99) is None
    assert bench_stats.tail_percentile(range(1000), 0.99) == 989.0


@pytest.mark.parametrize("quantile", [0.0, 1.0, -0.5, 1.5])
def test_quantile_outside_open_interval_is_rejected(quantile):
    with pytest.raises(ValueError):
        bench_stats.tail_percentile(range(1000), quantile)


def test_lower_quartile_matches_statistics_quantiles():
    sample = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert bench_stats.lower_quartile(sample) == statistics.quantiles(sample, n=4)[0]
    assert bench_stats.lower_quartile([0.7]) == 0.7
    with pytest.raises(ValueError):
        bench_stats.lower_quartile([])


def test_median_of_empty_sample_is_rejected():
    with pytest.raises(ValueError):
        bench_stats.median([])
    assert bench_stats.median([3.0, 1.0, 2.0, 10.0]) == 2.5


# --- self time -------------------------------------------------------------------


def _span(span_id, start, end, parent=None):
    return Span(span_id, f"s{span_id}", start, end, parent, iteration=0)


def test_self_time_of_nested_spans():
    spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 8.0, 0), _span(2, 3.0, 4.0, 1)]
    own = self_times(spans)
    assert own == {0: pytest.approx(4.0), 1: pytest.approx(5.0), 2: pytest.approx(1.0)}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_of_sibling_spans():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 3.0, 0), _span(2, 5.0, 9.0, 0)]
    assert self_times(spans) == {0: pytest.approx(4.0), 1: 2.0, 2: 4.0}


def test_overlapping_children_are_not_subtracted_twice():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 6.0, 0), _span(2, 4.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (3.5, 3.6)]) == 3.0


def test_recorder_links_parents_and_iterations():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    recorder.iteration = 7

    def inner():
        clock.now += 1.0

    def outer():
        clock.now += 2.0
        traced_inner()
        traced_inner()
        clock.now += 3.0

    traced_inner = recorder.wrap("inner", inner)
    recorder.wrap("outer", outer)()
    first, second, root = recorder.spans
    assert (root.name, root.parent, root.duration) == ("outer", None, 7.0)
    assert first.parent == root.id and second.parent == root.id
    assert {span.iteration for span in recorder.spans} == {7}
    assert self_times(recorder.spans)[root.id] == 5.0


def test_span_closes_when_the_call_raises():
    recorder = SpanRecorder(FakeClock())

    def broken():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        recorder.wrap("broken", broken)()
    assert [span.name for span in recorder.spans] == ["broken"]
    recorder.wrap("after", lambda: None)()
    assert recorder.spans[-1].parent is None


def test_instrumentation_patches_every_alias_and_restores(monkeypatch):
    def entry(value):
        return value + 1

    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")
    home.entry = entry
    user.entry = entry
    user.renamed = entry
    for module in (home, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    class Channel:
        def run(self):
            return "ran"

    recorder = SpanRecorder(FakeClock())
    probes = [Probe("layer.entry", home, "entry"), Probe("layer.run", Channel, "run")]
    with Instrumentation(recorder, probes, package="fakepkg"):
        assert user.renamed(1) == 2 and home.entry(2) == 3
        assert Channel().run() == "ran"
    assert home.entry is entry and user.entry is entry and user.renamed is entry
    assert Channel.run.__name__ == "run" and Channel().run() == "ran"
    assert [span.name for span in recorder.spans] == ["layer.entry", "layer.entry", "layer.run"]


def test_counter_probe_counts_without_a_span():
    class Objective:
        calls = 0

        def evaluate(self):
            self.calls += 1

    def on_call(recorder, call, args):
        recorder.count("evaluate_calls")
        return call()

    recorder = SpanRecorder(FakeClock())
    with Instrumentation(recorder, [Probe("x", Objective, "evaluate", on_call, span=False)], "x"):
        Objective().evaluate()
    assert recorder.spans == []
    assert recorder.counts[(0, "evaluate_calls")] == 1.0


# --- scaling to a fixed host speed -------------------------------------------


def test_scaled_seconds_cancel_a_uniform_host_slowdown():
    fast = bench_stats.scaled_seconds(0.8, 4.0e-4, 4.0e-4, 4.0e-4)
    slow = bench_stats.scaled_seconds(1.2, 6.0e-4, 6.0e-4, 4.0e-4)
    assert fast == pytest.approx(0.8)
    assert slow == pytest.approx(0.8)


def test_scaled_seconds_use_the_mean_of_the_readings_around_the_interval():
    assert bench_stats.scaled_seconds(1.0, 3.0e-4, 5.0e-4, 2.0e-4) == pytest.approx(0.5)


def test_scaled_seconds_follow_a_slower_program_on_the_same_host():
    before = bench_stats.scaled_seconds(1.0, 5.0e-4, 5.0e-4, 4.0e-4)
    after = bench_stats.scaled_seconds(1.3, 5.0e-4, 5.0e-4, 4.0e-4)
    assert after / before == pytest.approx(1.3)


@pytest.mark.parametrize(
    "args", [(-1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0), (1.0, 1.0, 1.0, 0.0)]
)
def test_scaled_seconds_reject_negative_time_and_empty_readings(args):
    with pytest.raises(ValueError):
        bench_stats.scaled_seconds(*args)


class SlowHost:
    """A host-speed reference that reads twice the reference time and takes 5 ms to read."""

    reference = 1.0e-3

    def read(self) -> float:
        time.sleep(0.005)
        return 2.0e-3


def test_scaled_clock_scales_host_time_and_leaves_reading_time_out():
    clock = ScaledClock(SlowHost(), interval=60.0)
    began = time.perf_counter()
    scaled = clock()
    elapsed = time.perf_counter() - began
    assert scaled == pytest.approx(clock.host / 2.0)
    assert clock.host < elapsed - 0.004
    assert clock() > scaled


def test_scaled_clock_reads_at_a_pause_only_after_its_interval():
    clock = ScaledClock(SlowHost(), interval=60.0)
    clock.pause()
    assert len(clock.readings) == 1
    clock.interval = 0.0
    clock.pause()
    assert len(clock.readings) == 2


# --- failed_fraction accounting -----------------------------------------------


def test_failed_fraction_counts_failed_over_attempted():
    tally = bench_stats.OperationTally()
    for ok in (True, True, False, True):
        tally.record(ok)
    assert (tally.attempted, tally.failed, tally.failed_fraction) == (4, 1, 0.25)


def test_fail_all_marks_every_attempt_failed():
    tally = bench_stats.OperationTally()
    tally.record(True)
    tally.record(True)
    tally.fail_all()
    assert tally.failed_fraction == 1.0


def test_failed_fraction_without_attempts_is_an_error():
    with pytest.raises(ValueError):
        bench_stats.OperationTally().failed_fraction


def test_result_line_has_exactly_the_output_keys():
    tally = bench_stats.OperationTally(attempted=3, failed=1)
    line = bench_stats.result_line(False, tally, {"setup_s": (1.25, "s")})
    assert line == {
        "correct": False,
        "attempted": 3,
        "failed": 1,
        "metrics": {"setup_s": {"value": 1.25, "unit": "s"}},
    }


def test_result_line_rejects_non_finite_values_and_empty_runs():
    tally = bench_stats.OperationTally(attempted=1)
    with pytest.raises(ValueError):
        bench_stats.result_line(True, tally, {"points_per_s": (float("nan"), "points/s")})
    with pytest.raises(ValueError):
        bench_stats.result_line(True, bench_stats.OperationTally(), {})


# --- metric names ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["setup_s", "fastpath.run.self_s", "a", "9-lives", "x" * 64, "A.b_c-D"]
)
def test_valid_metric_names(name):
    assert bench_stats.validate_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_private", ".hidden", "has space", "x" * 65, "µs", "a/b", "ms\n", None]
)
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        bench_stats.validate_metric_name(name)


@pytest.mark.parametrize("unit", ["s", "ms", "points/s", "MiB", "count", "%", "1/s"])
def test_valid_units(unit):
    assert bench_stats.validate_metric_unit(unit) == unit


@pytest.mark.parametrize("unit", ["", "bits per s", "x" * 17])
def test_invalid_units(unit):
    with pytest.raises(ValueError):
        bench_stats.validate_metric_unit(unit)


def test_declared_benchmark_names_are_valid_and_unique():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in declared["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in declared[section]:
            names.append(bench_stats.validate_metric_name(metric["name"]))
            bench_stats.validate_metric_unit(metric["unit"])
    assert len(names) == len(set(names))
