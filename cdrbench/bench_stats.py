"""Sample statistics, failure accounting and metric naming for the benchmark.

Standard library only, so the rules below are testable without numpy and
without the simulator.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass

#: A metric name: a letter or digit, then letters, digits, ``_ . -``; at most 64.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A metric unit such as ``s``, ``ms``, ``points/s``, ``MiB`` or ``count``.
METRIC_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def validate_metric_name(name: str) -> str:
    """Return *name* unchanged, or raise ``ValueError`` if it is not a metric name."""
    if not isinstance(name, str) or METRIC_NAME.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r}: expected {METRIC_NAME.pattern}")
    return name


def validate_metric_unit(unit: str) -> str:
    """Return *unit* unchanged, or raise ``ValueError`` if it is not a metric unit."""
    if not isinstance(unit, str) or METRIC_UNIT.fullmatch(unit) is None:
        raise ValueError(f"invalid metric unit {unit!r}: expected {METRIC_UNIT.pattern}")
    return unit


def median(values) -> float:
    """Median of a non-empty sample."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def scaled_seconds(seconds: float, before: float, after: float, reference: float) -> float:
    """Host *seconds* scaled to a fixed host speed.

    *before* and *after* are readings of a reference sample's host time
    taken just before and just after the interval; *reference* is the
    sample time at which scaled seconds equal host seconds.  A host that
    runs everything ``k`` times slower leaves the result unchanged.
    """
    if seconds < 0.0 or before <= 0.0 or after <= 0.0 or reference <= 0.0:
        raise ValueError("need seconds >= 0 and positive reference readings")
    return seconds * reference / ((before + after) / 2.0)


def lower_quartile(values) -> float:
    """First quartile of a non-empty sample, as ``statistics.quantiles(values, n=4)`` gives it.

    The benchmark's time metrics use it in place of the median: on a host
    whose speed switches between levels, it follows the fast level while
    at least a quarter of the samples ran there.
    """
    values = list(values)
    if not values:
        raise ValueError("lower quartile of an empty sample")
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=4)[0])


def tail_percentile(values, quantile: float) -> float | None:
    """Nearest-rank *quantile* of *values*, or ``None`` when the tail is too thin.

    The percentile is reported only when at least :data:`MIN_TAIL_SAMPLES`
    samples lie strictly beyond its rank, so a p90 needs 100 samples and a
    p99 needs 1000.  Below that the slowest few samples alone would set the
    number.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {quantile!r}")
    ordered = sorted(values)
    rank = math.ceil(quantile * len(ordered))
    if len(ordered) - rank < MIN_TAIL_SAMPLES:
        return None
    return float(ordered[rank - 1])


@dataclass
class OperationTally:
    """Operations attempted and failed in one run.

    A failed operation is a recorded point failure, a non-finite output, or
    an output that differs from the workload's reference output.
    """

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def fail_all(self) -> None:
        """Count every attempted operation as failed (the reference itself is wrong)."""
        self.failed = self.attempted

    @property
    def failed_fraction(self) -> float:
        if self.attempted <= 0:
            raise ValueError("no operation was attempted")
        return self.failed / self.attempted


def result_line(correct: bool, tally: OperationTally, metrics: dict[str, tuple[float, str]]):
    """The run's final JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

    *metrics* maps each name to ``(value, unit)``; names, units and values
    are validated here, so a malformed metric never reaches the output.
    """
    if tally.attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    payload = {}
    for name, (value, unit) in metrics.items():
        validate_metric_name(name)
        validate_metric_unit(unit)
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value!r}")
        payload[name] = {"value": value, "unit": unit}
    return {
        "correct": bool(correct),
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": payload,
    }
