"""Burst solver ≡ merge loop on generated EDET streams.

The fast path solves the gated ring burst by burst where that is exact and
falls back to the per-event merge loop (``_ring_recurrence``, the oracle)
everywhere else.  On every generated stream the clock taps it returns must
equal the merge loop's byte for byte, whichever path it took.  The streams
mix toggle gaps below the gating delay, exactly equal toggle times, long
EDET-high runs (the per-row tails), and horizons that cut through a
burst, on 2- to 7-stage rings with either tap and with or without gating
skew, so the generated set reaches both paths.  Hand-built streams on an
exact time grid pin the tie rules, which random floats almost never hit.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.fastpath.engine import _ring_clock, _ring_recurrence

#: A stage delay on which float sums of quarter delays are exact.
GRID_STAGE = 2.0**-34


def clock_path(case: dict) -> str:
    """Assert the fast ring equals the merge loop byte for byte; return the path taken."""
    with telemetry.trace() as tracer:
        times, values = _ring_clock(**case)
    loop_times, loop_values = _ring_recurrence(**case)
    assert times.tobytes() == np.asarray(loop_times, dtype=float).tobytes()
    assert values.tobytes() == np.asarray(loop_values, dtype=np.int64).tobytes()
    (path,) = tracer.counters
    return path


def grid_case(edet_stages, horizon_stages: float, improved_tap: bool = False) -> dict:
    """A four-stage ring without skew; times in stage delays on the exact grid."""
    return {
        "edet_times": np.asarray(edet_stages, dtype=float) * GRID_STAGE,
        "t_gate": GRID_STAGE,
        "t_feedback": GRID_STAGE,
        "t_stage": GRID_STAGE,
        "duration_s": horizon_stages * GRID_STAGE,
        "n_stages": 4,
        "sigma": 0.0,
        "rng": None,
        "improved_tap": improved_tap,
    }


@st.composite
def ring_cases(draw):
    # Hypothesis picks the structure; a drawn seed picks the numbers, so
    # they spread uniformly over each range instead of piling up at its ends.
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # Half the streams sit on a binary grid of the stage delay, where every
    # float sum is exact, so ties really occur: an apply landing on a fall,
    # a feedback event on the next rise, a transition on the horizon.
    on_grid = draw(st.booleans())
    t_stage = GRID_STAGE if on_grid else 5.0e-11 * rng.uniform(0.5, 2.0)

    def stage_delays(low, high, size=None):
        delays = rng.uniform(low, high, size)
        return (np.round(4.0 * delays) / 4.0 if on_grid else delays) * t_stage

    n_stages = draw(st.sampled_from([2, 3, 4, 4, 4, 4, 5, 6, 6, 7]))
    kinds = {
        "below_gate": (0.25, 1),
        "settling": (1, 2 * n_stages),  # low: the ring may still ring at the rise
        "settled": (1, 200),
        "lockstep": (1, 40),  # high: bursts advanced in lockstep
        "per_row": (40, 2000),  # high: bursts finished one row at a time
    }

    def intervals(n, common, *rare):
        # Each stream adds its own subset of the rare kinds, so streams free
        # of unsettled rings and sub-gate gaps (the burst path) are as
        # common as streams with them (mostly the fallback).
        chosen = [common] + [name for name in rare if draw(st.booleans())]
        ranges = np.array([kinds[name] for name in chosen])[rng.integers(len(chosen), size=n)]
        return stage_delays(ranges[:, 0], ranges[:, 1])

    n_bursts = int(rng.integers(0, 31))
    lows = intervals(n_bursts, "settled", "settling", "below_gate")
    highs = intervals(n_bursts, "lockstep", "per_row", "below_gate")
    # EDET falls at the end of the time-zero burst, then alternates
    # low (fall to rise) and high (rise to fall) intervals.
    gaps = np.ravel(np.column_stack((lows, highs)))
    if draw(st.booleans()):
        gaps[rng.random(gaps.size) < 0.1] = 0.0  # exactly equal toggle times
    edet = stage_delays(0, 200) + np.concatenate(([0.0], np.cumsum(gaps)))
    # The horizon lands near a random toggle, often inside a burst, on a
    # quarter stage delay; or exactly on a stage-0 apply of the burst that
    # toggle would open (or on the fall apply, if it is a fall).
    if draw(st.booleans()):
        offset = rng.uniform(-20.0, 60.0)
    else:
        offset = 1.0 + n_stages * float(rng.integers(0, 10))
    horizon = max(edet[rng.integers(edet.size)] / t_stage + offset, 0.0)
    return {
        "edet_times": edet,
        "t_gate": t_stage + draw(st.sampled_from([0.0, 0.0, 0.0, 0.0, 0.0, 0.125, 0.5])) * t_stage,
        "t_feedback": t_stage,
        "t_stage": t_stage,
        "duration_s": np.floor(4.0 * horizon) * t_stage / 4.0,
        "n_stages": n_stages,
        "sigma": 0.0,
        "rng": None,
        "improved_tap": draw(st.booleans()),
    }


def test_burst_solver_matches_the_merge_loop_on_generated_streams():
    paths = Counter()

    @settings(max_examples=300, deadline=None)
    @given(case=ring_cases())
    def check(case):
        paths[clock_path(case)] += 1

    check()
    assert paths["fastpath.ring.burst"] > 0
    assert paths["fastpath.ring.scalar"] > 0


#: Hand-built streams on the exact grid where every rule of the solver
#: meets a tie (times in stage delays).  In each, the time-zero burst falls
#: at 11 and its last feedback lands on the rise at 14 (feedback first:
#: settled).  In "short", bursts 14 and 40 reach their fall applies at 31
#: and 61 exactly (transport cancels those transitions); "lockstep" repeats
#: such a burst eight times, so the ties are met in lockstep; in "long",
#: burst 14 is finished by the per-row tail and ends with an apply on its
#: fall at 215.
TIES = {
    "short": [10.0, 14.0, 30.0, 40.0, 60.0],
    "lockstep": [10.0, *np.ravel([(14.0 + 18 * n, 30.0 + 18 * n) for n in range(8)])],
    "long": [10.0, 14.0, 214.0],
}
#: Horizons on the time-zero burst's fall apply, on a burst's opening
#: apply, on a later apply, on a fall apply that ties a transition, inside
#: a low interval and past the stream.
TIE_HORIZONS = [11.0, 41.0, 49.0, 61.0, 14.5, 300.0]


@pytest.mark.parametrize("improved_tap", [False, True])
@pytest.mark.parametrize("horizon", TIE_HORIZONS)
@pytest.mark.parametrize("stream", sorted(TIES))
def test_exact_ties_stay_on_the_burst_path(stream, horizon, improved_tap):
    assert clock_path(grid_case(TIES[stream], horizon, improved_tap)) == "fastpath.ring.burst"


def test_a_nan_toggle_takes_the_merge_loop():
    assert clock_path(grid_case([10.0, 14.0, np.nan], 100.0)) == "fastpath.ring.scalar"
