"""Fast-path (vectorized) simulation of one gated-oscillator CDR channel.

:class:`FastCdrChannel` is a drop-in replacement for
:class:`~repro.core.cdr_channel.BehavioralCdrChannel`: same ``run``
signature, same :class:`~repro.core.cdr_channel.BehavioralSimulationResult`
output.  Instead of dispatching per-edge events through the
:mod:`repro.events` kernel, it exploits the structure of the fixed topology:

* With constant per-gate delays, VHDL transport assignment never cancels
  anything (every gate schedules outputs in increasing time order), so every
  combinational gate is a **pure delay plus value-change filter**.  The delay
  line, the XNOR edge detector and the dummy data gate therefore reduce to
  elementwise array shifts of the stimulus edge times — computed with the
  same floating-point operation order as the event kernel, so the resulting
  edge times are bit-for-bit identical.
* The edge-detector output EDET toggles at every event of either XNOR input
  (a single-input change always toggles an XOR), so its waveform is just the
  sorted merge of the data-edge and delayed-data-edge time arrays.
* The gated ring collapses to a recurrence on the **first stage only**: the
  inverter chain re-times stage-0 transitions by one stage delay each, so the
  feedback and both clock taps are shifted copies of the stage-0 change
  stream.  On rings without per-stage jitter or gating-input skew, with an
  odd number of inverters, every EDET-high interval restarts a settled ring,
  so the recurrence is solved **burst by burst** in numpy
  (:func:`_ring_bursts`): every burst's transitions are the same sequential
  float sums the kernel computes.  The solver checks after the fact that
  the toggle applies are strictly increasing and that each burst's last
  feedback event lands no later than the next rise; where either fails, and
  on jittered, skewed or even-inverter rings, a three-stream merge loop
  (:func:`_ring_recurrence`: EDET toggles, ring feedback, pending stage-0
  applies) reproduces the kernel's scheduling event by event — including
  transport cancellation, which *can* fire on stage 0 when a gating-input
  skew is configured.  That loop is also the solver's test oracle.
* The decision flip-flop samples the delayed data at every rising clock
  edge, so the decisions are one ``searchsorted`` away.

With per-gate delay jitter enabled the same passes apply with per-event
Gaussian draws folded into the delays; the draw *order* differs from the
event kernel's, so jittered runs agree statistically but not sample-for-
sample (see PERFORMANCE.md).
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from .._validation import require_positive_int
from ..core.cdr_channel import BehavioralSimulationResult
from ..core.config import CdrChannelConfig
from ..core.edge_detector import GATE_DELAY_S
from ..datapath.nrz import JitterSpec, NrzEdgeStream, generate_edge_times
from .traces import ArrayRecorder, array_trace

__all__ = ["FastCdrChannel"]

_INF = float("inf")


def _jittered(times: np.ndarray, delay_s: float, sigma: float,
              rng: np.random.Generator | None) -> np.ndarray:
    """Shift *times* by one gate delay, with optional per-event Gaussian jitter."""
    if sigma > 0.0 and rng is not None and times.size:
        draws = delay_s * (1.0 + rng.normal(0.0, sigma, size=times.size))
        return times + np.maximum(draws, 1.0e-15)
    return times + delay_s


def _drop_coincident(times: np.ndarray, *companions: np.ndarray) -> tuple[np.ndarray, ...]:
    """Drop pairs of exactly coincident events (they cancel via transport).

    Two stimulus edges at the identical float time toggle the data twice in
    the same instant; the second transport assignment cancels the first, so
    downstream gates see nothing.  Extremely rare (requires the jitter clip
    in :func:`generate_edge_times` to collapse two edges exactly).
    """
    if times.size < 2:
        return (times, *companions)
    equal = times[1:] == times[:-1]
    if not np.any(equal):
        return (times, *companions)
    keep = np.ones(times.size, dtype=bool)
    index = 0
    while index < times.size - 1:
        if keep[index] and times[index + 1] == times[index]:
            keep[index] = keep[index + 1] = False
            index += 2
        else:
            index += 1
    return (times[keep], *[c[keep] for c in companions])


def _ring_recurrence(
    edet_times: np.ndarray,
    *,
    t_gate: float,
    t_feedback: float,
    t_stage: float,
    duration_s: float,
    n_stages: int,
    sigma: float,
    rng: np.random.Generator | None,
    improved_tap: bool,
) -> tuple[list[float], list[int]]:
    """Run the gated-ring recurrence; return the selected clock-tap events.

    Three event sources are merged in time order, mirroring the kernel:

    * EDET toggles (precomputed, alternating from the initial high level),
    * ring-feedback events (last-stage transitions, i.e. stage-0 changes
      re-timed through ``n_stages - 1`` inverters),
    * pending stage-0 transport applies.

    Each EDET or feedback event re-evaluates ``AND(feedback, EDET)`` and
    schedules a stage-0 apply one (gating- or feedback-input) delay later,
    cancelling any pending apply at or after that time — exact transport
    semantics.  A stage-0 apply that actually changes the value emits the
    inverter-chain events and the clock-tap samples.

    This is the general path and the reference :func:`_ring_bursts` is
    tested against; :func:`_ring_clock` runs it wherever the burst solver
    does not apply.
    """
    n_inverters = n_stages - 1
    # Tap positions along the chain (number of inversions in front of them).
    improved_hops = n_stages - 2
    last_parity = n_inverters & 1
    improved_parity = improved_hops & 1

    edet = edet_times.tolist()
    n_edet = len(edet)
    i_edet = 0
    gate_level = 1

    # Pending stage-0 applies (parallel time/value lists, FIFO head pointer).
    p0_t: list[float] = []
    p0_v: list[int] = []
    h0 = 0
    # Feedback (last-stage) events.
    fb_t: list[float] = []
    fb_v: list[int] = []
    hf = 0

    clock_t: list[float] = []
    clock_v: list[int] = []

    v0 = 0
    v_last = (n_stages - 1) & 1

    jitter = sigma > 0.0 and rng is not None
    if jitter:
        buffer = rng.standard_normal(4096)
        buf_i = 0

        def draw() -> float:
            nonlocal buffer, buf_i
            if buf_i >= buffer.size:
                buffer = rng.standard_normal(4096)
                buf_i = 0
            value = buffer[buf_i]
            buf_i += 1
            return value

        def delay(base: float) -> float:
            scaled = base * (1.0 + sigma * draw())
            return scaled if scaled > 1.0e-15 else 1.0e-15
    else:
        def delay(base: float) -> float:
            return base

    def push0(time_s: float, value: int) -> None:
        # Transport semantics: cancel pending applies at or after time_s.
        nonlocal h0
        while len(p0_t) > h0 and p0_t[-1] >= time_s:
            p0_t.pop()
            p0_v.pop()
        p0_t.append(time_s)
        p0_v.append(value)

    # Time zero: every ring gate is kicked via evaluate_now(); only the first
    # stage produces a change (the inverters are already consistent).
    push0(0.0 + delay(t_feedback), v_last & gate_level)

    while True:
        t_e = edet[i_edet] if i_edet < n_edet else _INF
        t_0 = p0_t[h0] if h0 < len(p0_t) else _INF
        t_f = fb_t[hf] if hf < len(fb_t) else _INF

        if t_0 <= t_e and t_0 <= t_f:
            if t_0 > duration_s:
                break
            value = p0_v[h0]
            h0 += 1
            if value != v0:
                v0 = value
                # Propagate through the inverter chain; record the tap.
                time_s = t_0
                for hop in range(n_inverters):
                    time_s = time_s + delay(t_stage)
                    if improved_tap and hop == improved_hops - 1:
                        clock_t.append(time_s)
                        clock_v.append(value ^ improved_parity)
                new_last = value ^ last_parity
                if not improved_tap:
                    # Nominal tap: inverted last stage.
                    clock_t.append(time_s)
                    clock_v.append(1 - new_last)
                fb_t.append(time_s)
                fb_v.append(new_last)
        elif t_f <= t_e:
            if t_f > duration_s:
                break
            v_last = fb_v[hf]
            hf += 1
            push0(t_f + delay(t_feedback), v_last & gate_level)
        else:
            if t_e > duration_s or t_e == _INF:
                break
            gate_level = 1 - gate_level
            i_edet += 1
            push0(t_e + delay(t_gate), v_last & gate_level)

    return clock_t, clock_v


def _chain(stage0, t_stage: float, n_inverters: int, tap_hops: int):
    """Re-time stage-0 transitions through the inverter chain.

    Returns ``(tap, last)``: the times after *tap_hops* and after all
    *n_inverters* sequential ``t_stage`` adds (floats or arrays alike).
    """
    tap = last = stage0
    for hop in range(1, n_inverters + 1):
        last = last + t_stage
        if hop == tap_hops:
            tap = last
    return tap, last


def _long_burst(x0: float, bound: float, duration_s: float,
                increments: np.ndarray, tap_hops: int) -> tuple[np.ndarray, float]:
    """Finish one burst alone, from its next (applied) transition *x0*.

    *increments* is one transition's ``[t_stage, ..., t_feedback]``; tiled
    behind *x0*, one ``np.add.accumulate`` (strictly sequential) yields the
    same sums as the merge loop.  Returns the tap times of the transitions
    applied while ``x < bound`` and ``x <= duration_s``, and the last one's
    time at the end of the inverter chain.
    """
    period = float(increments.sum())
    taps = []
    while True:
        # Enough transitions to pass the limit, unless rounding adds one more.
        m = int((min(bound, duration_s) - x0) / period) + 2
        sums = np.add.accumulate(np.concatenate(([x0], np.tile(increments, m))))
        grid = sums[:-1].reshape(m, increments.size)
        live = (grid[:, 0] < bound) & (grid[:, 0] <= duration_s)
        n_live = m if live.all() else int(np.argmin(live))
        taps.append(grid[:n_live, tap_hops])
        x0 = float(sums[-1])
        if n_live < m or x0 >= bound or x0 > duration_s:
            return np.concatenate(taps), float(grid[n_live - 1, -1])


def _ring_bursts(
    edet_times: np.ndarray,
    *,
    t_feedback: float,
    t_stage: float,
    duration_s: float,
    n_stages: int,
    improved_tap: bool,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve the gated ring burst by burst; ``None`` where that is not exact.

    Valid for rings without per-stage jitter, without gating skew
    (``t_gate == t_feedback``) and with an odd number of inverters: then
    every EDET-high interval restarts a settled ring, and its stage-0
    transitions are a plain sequential accumulation.  A burst opens at
    ``rise + t_gate`` (``0.0 + t_feedback`` for the time-zero kick), each
    next transition follows at ``chain(x) + t_feedback``, transitions apply
    while ``x < fall + t_gate`` and ``x <= duration_s``, and an odd count
    ends with one fall at ``fall + t_gate``.  All bursts advance in
    lockstep over the active rows; once no more rows are active than steps
    were taken, each remaining (long) burst is finished alone with one
    strictly sequential ``np.add.accumulate``, so every sum is the merge
    loop's, byte for byte.

    Returns ``None`` when the merge loop would not reduce to bursts: toggle
    applies that are not strictly increasing (transport cancellation
    between toggles), a burst whose last feedback event lands after the
    next rise (ring not settled; ties go to the feedback, as in the loop),
    or NaN toggle times.
    """
    if np.isnan(edet_times).any():
        return None
    n_inverters = n_stages - 1
    tap_hops = n_inverters - 1 if improved_tap else n_inverters
    edet = edet_times[edet_times <= duration_s]
    applies = np.concatenate(([0.0 + t_feedback], edet + t_feedback))
    if np.any(applies[1:] <= applies[:-1]):
        return None
    opened = int(np.searchsorted(applies[0::2], duration_s, side="right"))
    starts = applies[0::2][:opened]
    ends = np.append(applies[1::2], _INF)[:opened]

    counts = np.zeros(opened, dtype=np.int64)
    last_chain = np.empty(opened)
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    rows, x, bound = np.arange(opened), starts, ends
    while rows.size > len(steps):
        tap, last = _chain(x, t_stage, n_inverters, tap_hops)
        steps.append((rows, tap))
        x = last + t_feedback
        done = (x >= bound) | (x > duration_s)
        if done.any():
            counts[rows[done]] = len(steps)
            last_chain[rows[done]] = last[done]
            keep = ~done
            rows, x, bound = rows[keep], x[keep], bound[keep]

    tails: list[tuple[int, np.ndarray]] = []
    increments = np.array([t_stage] * n_inverters + [t_feedback])
    for row, x0, bound0 in zip(rows.tolist(), x.tolist(), bound.tolist()):
        tap, last_chain[row] = _long_burst(x0, bound0, duration_s, increments, tap_hops)
        counts[row] = len(steps) + tap.size
        tails.append((row, tap))

    falls = ((counts & 1) == 1) & (ends <= duration_s)
    fall_tap, fall_last = _chain(ends[falls], t_stage, n_inverters, tap_hops)
    last_chain[falls] = fall_last
    settled_by = last_chain[:-1]
    if np.any(settled_by > edet[1::2][:settled_by.size]):
        return None

    # Burst-major output.  Transition k sets stage 0 to 1 - (k & 1), the
    # fall to 0; with an odd inverter count both taps carry that value.
    sizes = counts + falls
    offsets = np.cumsum(sizes) - sizes
    times = np.empty(int(sizes.sum()))
    values = np.zeros(times.size, dtype=np.int64)
    for k, (step_rows, tap) in enumerate(steps):
        at = offsets[step_rows] + k
        times[at] = tap
        values[at] = 1 - (k & 1)
    for row, tap in tails:
        at = offsets[row] + len(steps)
        times[at:at + tap.size] = tap
        values[at:at + tap.size] = 1 - ((len(steps) + np.arange(tap.size)) & 1)
    times[offsets[falls] + counts[falls]] = fall_tap
    return times, values


def _ring_clock(
    edet_times: np.ndarray,
    *,
    t_gate: float,
    t_feedback: float,
    t_stage: float,
    duration_s: float,
    n_stages: int,
    sigma: float,
    rng: np.random.Generator | None,
    improved_tap: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Clock-tap events of the gated ring: bursts where exact, else the merge loop.

    :func:`_ring_bursts` runs on rings without per-stage jitter or gating
    skew and with an odd number of inverters (an even stage count of at
    least four: a two-stage ring has no improved tap); jittered, skewed or
    even-inverter rings, and any stream the burst solver declines, go
    through :func:`_ring_recurrence`.  The path taken is counted as
    ``fastpath.ring.burst`` or ``fastpath.ring.scalar`` on the active tracer.
    """
    clock = None
    jittered = sigma > 0.0 and rng is not None
    if not jittered and t_gate == t_feedback and n_stages % 2 == 0 and n_stages > 2:
        clock = _ring_bursts(edet_times, t_feedback=t_feedback, t_stage=t_stage,
                             duration_s=duration_s, n_stages=n_stages,
                             improved_tap=improved_tap)
    tracer = telemetry.ACTIVE
    if tracer:
        tracer.count("fastpath.ring.scalar" if clock is None else "fastpath.ring.burst")
    if clock is None:
        clock_t, clock_v = _ring_recurrence(
            edet_times, t_gate=t_gate, t_feedback=t_feedback, t_stage=t_stage,
            duration_s=duration_s, n_stages=n_stages, sigma=sigma, rng=rng,
            improved_tap=improved_tap)
        clock = np.asarray(clock_t, dtype=float), np.asarray(clock_v, dtype=np.int64)
    return clock


class FastCdrChannel:
    """Vectorized fast-path model of one CDR channel.

    Drop-in for :class:`~repro.core.cdr_channel.BehavioralCdrChannel`; on
    configurations without per-gate delay jitter the returned result is
    bit-for-bit identical to the event kernel's (same float sample times,
    same decisions, same traces).
    """

    #: Backend name used by the sweep layer.
    backend = "fast"

    def __init__(self, config: CdrChannelConfig | None = None) -> None:
        self.config = config or CdrChannelConfig()

    def run(
        self,
        bits: np.ndarray,
        *,
        jitter: JitterSpec | None = None,
        data_rate_offset_ppm: float = 0.0,
        rng: np.random.Generator | None = None,
        settle_bits: int = 4,
        stream: NrzEdgeStream | None = None,
    ) -> BehavioralSimulationResult:
        """Simulate the channel (see :meth:`_run`); traced as ``fastpath.run``."""
        tracer = telemetry.ACTIVE
        if not tracer:
            return self._run(
                bits,
                jitter=jitter,
                data_rate_offset_ppm=data_rate_offset_ppm,
                rng=rng,
                settle_bits=settle_bits,
                stream=stream,
            )
        with tracer.span("fastpath.run"):
            result = self._run(
                bits,
                jitter=jitter,
                data_rate_offset_ppm=data_rate_offset_ppm,
                rng=rng,
                settle_bits=settle_bits,
                stream=stream,
            )
        tracer.count("fastpath.runs")
        tracer.count("fastpath.bits", int(np.asarray(bits).size))
        return result

    def _run(
        self,
        bits: np.ndarray,
        *,
        jitter: JitterSpec | None = None,
        data_rate_offset_ppm: float = 0.0,
        rng: np.random.Generator | None = None,
        settle_bits: int = 4,
        stream: NrzEdgeStream | None = None,
    ) -> BehavioralSimulationResult:
        """Vectorized batch simulation; same contract as ``BehavioralCdrChannel.run``."""
        config = self.config
        bits = np.asarray(bits, dtype=np.uint8)
        require_positive_int("number of bits", int(bits.size))
        rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator

        # --- stimulus (identical draws to the event path) -------------------
        if stream is None:
            start_time = settle_bits * config.unit_interval_s
            stream = generate_edge_times(
                bits,
                bit_rate_hz=config.bit_rate_hz,
                jitter=jitter or JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0, sj_amplitude_ui_pp=0.0),
                data_rate_offset_ppm=data_rate_offset_ppm,
                start_time_s=start_time,
                rng=rng,
            )
        else:
            if not np.array_equal(stream.bits, bits):
                raise ValueError("bits must match the provided stream's bits")
            start_time = stream.start_time_s
        duration = start_time + stream.duration_s + 4.0 * config.unit_interval_s
        gate_sigma = config.gate_jitter_sigma_fraction
        gate_rng = rng if gate_sigma > 0.0 else None

        edge_times = stream.edge_times_s
        edge_values = stream.bits[stream.edge_bit_index].astype(np.int64)
        prop_times, prop_values = _drop_coincident(edge_times, edge_values)

        # --- edge detector: delay line, XNOR, dummy gate --------------------
        cell_delay = config.edge_detector_delay_s / config.edge_detector_cells
        line_times = prop_times
        for _cell in range(config.edge_detector_cells):
            line_times = _jittered(line_times, cell_delay, gate_sigma, gate_rng)
        ddin_times = _jittered(line_times, GATE_DELAY_S, gate_sigma, gate_rng)
        edet_side_a = _jittered(prop_times, GATE_DELAY_S, gate_sigma, gate_rng)
        edet_side_b = _jittered(line_times, GATE_DELAY_S, gate_sigma, gate_rng)
        edet_times = np.sort(np.concatenate((edet_side_a, edet_side_b)))

        # --- gated ring oscillator -----------------------------------------
        parameters = config.oscillator
        control_current = parameters.control_current_midpoint_a
        if parameters.gain_hz_per_a > 0.0:
            control_current = parameters.control_current_midpoint_a + (
                config.oscillator_frequency_hz
                - parameters.free_running_frequency_hz
            ) / parameters.gain_hz_per_a
        stage_delay = parameters.stage_delay_at(parameters.control_current_midpoint_a)
        scale = parameters.stage_delay_at(control_current) / stage_delay
        # Same op order as CmlTiming.delay_for_input followed by delay_scale.
        t_feedback = (stage_delay + 0.0) * scale
        t_gate = (stage_delay + parameters.gating_input_skew_s) * scale
        t_stage = stage_delay * scale

        clock_times, clock_values = _ring_clock(
            edet_times,
            t_gate=t_gate,
            t_feedback=t_feedback,
            t_stage=t_stage,
            duration_s=duration,
            n_stages=parameters.n_stages,
            sigma=parameters.jitter_sigma_fraction,
            rng=rng if parameters.jitter_sigma_fraction > 0.0 else None,
            improved_tap=config.improved_sampling,
        )
        # Inverter-chain events past the run horizon never execute in the
        # event kernel (run_until stops there), so they produce no decision.
        horizon = clock_times <= duration
        clock_times = clock_times[horizon]
        clock_values = clock_values[horizon]

        # --- sampler: decide DDIN at every rising clock edge ----------------
        rising = clock_values == 1
        sample_times = clock_times[rising]
        indices = np.searchsorted(ddin_times, sample_times, side="left") - 1
        sampled = np.zeros(sample_times.size, dtype=np.uint8)
        in_range = indices >= 0
        sampled[in_range] = prop_values[indices[in_range]].astype(np.uint8)

        # --- traces (match the event recorder, clipped to the run horizon) --
        initial_clock = (parameters.n_stages - 2) & 1 if config.improved_sampling \
            else 1 - ((parameters.n_stages - 1) & 1)
        dout_times, dout_values = self._dout_events(
            sample_times, sampled, config.sampler_delay_s, gate_sigma, gate_rng)
        recorder = ArrayRecorder({
            "din": array_trace("din", edge_times, edge_values),
            "ddin": self._clipped("ddin", ddin_times, prop_values, duration),
            "edet": array_trace(
                "edet",
                edet_times[edet_times <= duration],
                # Value after the i-th toggle, alternating from the initial 1.
                np.arange(np.count_nonzero(edet_times <= duration)) & 1,
                initial_value=1,
            ),
            "clock": self._clipped("clock", clock_times, clock_values, duration,
                                   initial_value=initial_clock),
            "dout": self._clipped("dout", dout_times, dout_values, duration),
        })

        valid = sample_times >= start_time
        return BehavioralSimulationResult(
            config=config,
            transmitted_bits=bits,
            stream=stream,
            recorder=recorder,
            sample_times_s=sample_times[valid],
            sampled_bits=sampled[valid],
            duration_s=duration,
        )

    @staticmethod
    def _clipped(name: str, times: np.ndarray, values: np.ndarray,
                 duration_s: float, *, initial_value: int = 0):
        mask = times <= duration_s
        return array_trace(name, times[mask], values[mask], initial_value=initial_value)

    @staticmethod
    def _dout_events(sample_times: np.ndarray, sampled: np.ndarray,
                     clock_to_q_s: float, sigma: float,
                     rng: np.random.Generator | None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """DOUT transitions: decisions re-timed by the clock-to-Q delay.

        The flip-flop assigns its output on every rising edge; only actual
        value changes produce events (the transport apply filters the rest).
        """
        if sample_times.size == 0:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        values = sampled.astype(np.int64)
        previous = np.concatenate(([0], values[:-1]))
        changed = values != previous
        times = _jittered(sample_times, clock_to_q_s, sigma, rng)
        return times[changed], values[changed]
