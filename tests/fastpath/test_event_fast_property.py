"""Event kernel ≡ fast path on generated jitter-free-gate configurations.

Without per-gate jitter the fast path replays the event kernel exactly, so
on every generated configuration both backends must return the same
sample times and decisions byte for byte.  Hypothesis varies the data
jitter (DJ, RJ, SJ), the transmitter ppm offset, the oscillator frequency
offset, the sampling tap and the seed; the hand-picked corners live in
``test_equivalence.py``.  The property is the safety net for the shared
``Signal`` / ``CmlGate`` per-event code: any change there that moves one
event moves the event side of this comparison.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.datapath.prbs import prbs7
from repro.fastpath import FastCdrChannel


@st.composite
def jitter_free_gate_runs(draw):
    config = CdrChannelConfig(
        improved_sampling=draw(st.booleans()),
        frequency_offset=draw(st.floats(min_value=-0.04, max_value=0.04)),
    )
    jitter = JitterSpec(
        dj_ui_pp=draw(st.floats(min_value=0.0, max_value=0.4)),
        rj_ui_rms=draw(st.floats(min_value=0.0, max_value=0.03)),
        sj_amplitude_ui_pp=draw(st.floats(min_value=0.0, max_value=0.5)),
        sj_frequency_hz=draw(st.floats(min_value=1.0e6, max_value=1.25e9)),
    )
    return {
        "config": config,
        "jitter": jitter,
        "ppm": draw(st.floats(min_value=-500.0, max_value=500.0)),
        "n_bits": draw(st.integers(min_value=20, max_value=300)),
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
    }


@settings(max_examples=25, deadline=None)
@given(jitter_free_gate_runs())
def test_event_kernel_matches_fast_path_byte_for_byte(run):
    bits = prbs7(run["n_bits"])
    results = [
        backend(run["config"]).run(
            bits, jitter=run["jitter"], data_rate_offset_ppm=run["ppm"],
            rng=np.random.default_rng(run["seed"]))
        for backend in (BehavioralCdrChannel, FastCdrChannel)
    ]
    event, fast = results
    assert event.sample_times_s.dtype == fast.sample_times_s.dtype == np.float64
    assert event.sample_times_s.tobytes() == fast.sample_times_s.tobytes()
    assert event.sampled_bits.dtype == fast.sampled_bits.dtype
    assert event.sampled_bits.tobytes() == fast.sampled_bits.tobytes()
