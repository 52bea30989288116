"""Golden pin for the jittered event backend.

The digests below were recorded before the event kernel's per-event path
and the gate-jitter draws were reworked for speed.  With per-gate jitter
every ``CmlGate`` event consumes one Gaussian draw from the run's shared
Generator, so these pins cover the order of events, the order of draws,
each delay's float arithmetic and the Generator state the run leaves
behind.  No other test pins jittered event output: the reference/auto
drain comparison in ``tests/kernels`` runs the same gate code on both
sides.
"""

import hashlib

import numpy as np
import pytest

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.datapath.prbs import prbs7

SJ = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0,
                sj_amplitude_ui_pp=0.3, sj_frequency_hz=25.0e6)

SAMPLE_TIMES_SHA256 = "c41b95a22c3428ca8a32340b0f661bf3ede731223bd638752df4f61eaf0ca756"
SAMPLED_BITS_SHA256 = "023972501432097869635aac781163dc6a4c6e983d201d646b55e256194cf1d0"

#: name -> (sha256 of the float64 times, sha256 of the int64 values).
TRACE_SHA256 = {
    "din": ("fbb129e3051af25b845c99617d51974df92fbd45ecfdf9ad8265ae04f40dee9c",
            "16e9849bb3e54014dccddfdc9cbd1b8c3a0e6b204785591c48f935aae09f160b"),
    "ddin": ("0b6499e9de020e17edf6f8b7e77739df58689016d6286ffb7074fcea27a7a100",
             "16e9849bb3e54014dccddfdc9cbd1b8c3a0e6b204785591c48f935aae09f160b"),
    "edet": ("786ebf57734d703410b0d5d5c44f098a77a0352d882c57d05c93eb628cb04b74",
             "b07e35517d5149e3aa0e6b6e4209a0808dfae4562ab9f80cc63f6b58bbc317be"),
    "clock": ("650d35100e0233a33c6efaa2f9e07d984460aaabcac7174e93b6e0ac1902086e",
              "3ae75935d622c534132b02bff3551a1e07e4c5b574ee599303342b00cf34b6d5"),
    "dout": ("37b6039579e7de815fee37f847466b66c4e1bd9bcfdf2afe12811e14e76d69b1",
             "16e9849bb3e54014dccddfdc9cbd1b8c3a0e6b204785591c48f935aae09f160b"),
}

#: ``float.hex`` of the first ``rng.random()`` after the run.
NEXT_DRAW_HEX = "0x1.29ff4fa007e52p-1"


def _sha256(array, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def jittered_run():
    config = CdrChannelConfig.paper_nominal().with_frequency_offset(0.02)
    rng = np.random.default_rng(2005)
    result = BehavioralCdrChannel(config).run(prbs7(2000), jitter=SJ, rng=rng)
    return result, rng


def test_sample_times_and_decisions_are_pinned(jittered_run):
    result, _rng = jittered_run
    assert _sha256(result.sample_times_s, "<f8") == SAMPLE_TIMES_SHA256
    assert result.sampled_bits.dtype == np.uint8
    assert _sha256(result.sampled_bits, np.uint8) == SAMPLED_BITS_SHA256


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_trace_is_pinned(jittered_run, name):
    result, _rng = jittered_run
    times, values = result.trace(name).as_arrays()
    assert (_sha256(times, "<f8"), _sha256(values, "<i8")) == TRACE_SHA256[name]


def test_generator_state_after_run_is_pinned(jittered_run):
    _result, rng = jittered_run
    assert float(rng.random()).hex() == NEXT_DRAW_HEX
