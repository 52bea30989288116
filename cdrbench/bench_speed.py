"""The host's current speed, read from a fixed reference loop.

On a shared host the speed of one vCPU can switch between levels for
fractions of a second to minutes at a time, with no steal time reported:
on the host where this benchmark was written, the simulator ran about
1.4 to 1.9 times slower at the slow level.  :class:`ScaledClock` reads
the host speed every few tenths of a second and scales each stretch of
host time between two readings by them, so that a scaled time reads
about the same at either level while a change to the simulator still
moves it in full.  The time spent reading is left out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from bench_stats import scaled_seconds

#: Scaled seconds equal host seconds on a host where one reference sample
#: takes this long (the fast level of the host where this was written).
REFERENCE_SAMPLE_S = 1.0e-3
#: Samples per reading; the reading is their median.
SAMPLES = 9
#: A scaled clock reads the host speed at the first pause this long after its last reading.
READING_INTERVAL_S = 0.1
LOOP_STEPS = 3000
SORT_SIZE = 20_000
OBJECTS = 2000


class SpeedReference:
    """Times the reference work: a float loop, a numpy sort and object allocation.

    The three parts slow down by different factors at the host's slow
    level, as the simulator's layers do: the event kernel follows object
    allocation most closely, the fast path the float loop.
    """

    reference = REFERENCE_SAMPLE_S

    def __init__(self) -> None:
        self._values = np.random.default_rng(0).random(SORT_SIZE)

    def read(self) -> float:
        """Median host seconds of one reference sample, right now."""
        times = []
        for _ in range(SAMPLES):
            began = time.perf_counter()
            total = 0.0
            for step in range(LOOP_STEPS):
                total += (step % 7) * 0.5
            np.sort(self._values)
            table = {}
            for key in range(OBJECTS):
                table[key] = [key, str(key), (key, total)]
            times.append(time.perf_counter() - began)
        return statistics.median(times)


class ScaledClock:
    """A clock of scaled seconds: host time scaled by host-speed readings.

    Each call closes the current stretch with a reading and returns the
    scaled seconds so far.  :meth:`pause` closes it only when
    :data:`READING_INTERVAL_S` has passed, so it can sit after every part
    of an iteration.  ``host`` is the host seconds so far, readings left out.
    """

    def __init__(self, speed: SpeedReference, interval: float = READING_INTERVAL_S) -> None:
        self.speed = speed
        self.interval = interval
        self.readings = [speed.read()]
        self.scaled = 0.0
        self.host = 0.0
        self._mark = time.perf_counter()

    def _close(self, now: float) -> None:
        reading = self.speed.read()
        self.scaled += scaled_seconds(
            now - self._mark, self.readings[-1], reading, self.speed.reference
        )
        self.host += now - self._mark
        self.readings.append(reading)
        self._mark = time.perf_counter()

    def pause(self) -> None:
        now = time.perf_counter()
        if now - self._mark >= self.interval:
            self._close(now)

    def __call__(self) -> float:
        self._close(time.perf_counter())
        return self.scaled
