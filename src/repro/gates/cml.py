"""Base classes for behavioural current-mode-logic (CML) gates.

The whole CDR is built from fully differential CML two-input gates (paper
section 2.2).  At the behavioural level each gate is characterised by

* a nominal propagation delay,
* a *per-input* additional delay — the stacked differential pairs of a CML
  gate give the lower input a longer input-to-output delay than the upper one,
  the non-ideality that the VHDL model exposed as the edge-detector problem in
  section 3.3a,
* Gaussian delay jitter (fractional sigma), re-drawn for every output event,
  which models the thermal noise of the cell exactly as the VHDL model does
  with its ``awgn`` call,
* a rising/falling asymmetry (duty-cycle distortion) if desired.

Because the logic is differential, logical inversion is free (swap the output
wires); the behavioural models therefore expose an ``invert_output`` flag
rather than separate inverter cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .._validation import require_non_negative, require_positive
from ..events.signal import Signal

__all__ = ["CmlTiming", "CmlGate", "BlockNormals"]


@dataclass(frozen=True)
class CmlTiming:
    """Timing parameters of a behavioural CML gate.

    Attributes
    ----------
    nominal_delay_s:
        Input-to-output propagation delay for the fastest input.
    input_skew_s:
        Extra delay per input index: input ``i`` has delay
        ``nominal_delay_s + input_skew_s[i]``.  Defaults to zero skew.
    jitter_sigma_fraction:
        Standard deviation of the Gaussian delay jitter as a fraction of the
        nominal delay (the VHDL model's ``cdr_gcco_jit_sigma``).
    rise_fall_mismatch_s:
        Extra delay applied to falling output transitions (duty-cycle
        distortion); negative values make falling edges faster.
    """

    nominal_delay_s: float
    input_skew_s: tuple[float, ...] = ()
    jitter_sigma_fraction: float = 0.0
    rise_fall_mismatch_s: float = 0.0

    def __post_init__(self) -> None:
        require_positive("nominal_delay_s", self.nominal_delay_s)
        require_non_negative("jitter_sigma_fraction", self.jitter_sigma_fraction)
        for index, skew in enumerate(self.input_skew_s):
            require_non_negative(f"input_skew_s[{index}]", skew)

    def delay_for_input(self, input_index: int) -> float:
        """Nominal delay seen from input *input_index* (no jitter applied)."""
        skew = 0.0
        if input_index < len(self.input_skew_s):
            skew = self.input_skew_s[input_index]
        return self.nominal_delay_s + skew

    def with_delay(self, nominal_delay_s: float) -> "CmlTiming":
        """Return a copy with a different nominal delay (same skew/jitter)."""
        return replace(self, nominal_delay_s=nominal_delay_s)


class CmlGate:
    """Behavioural combinational CML gate.

    Subclasses (or callers) provide ``evaluate(values) -> 0/1``; the gate
    subscribes to its inputs, and on every input event schedules the new
    output value with the per-input delay, the optional rise/fall mismatch and
    a fresh Gaussian jitter draw — the same recipe as the VHDL processes of
    Figure 12.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[Signal],
        output: Signal,
        evaluate: Callable[[Sequence[int]], int],
        timing: CmlTiming,
        *,
        invert_output: bool = False,
        rng: np.random.Generator | None = None,
        delay_scale: Callable[[], float] | None = None,
    ) -> None:
        if not inputs:
            raise ValueError(f"gate {name!r} needs at least one input")
        self.name = name
        self.inputs = list(inputs)
        self.output = output
        self.timing = timing
        self.invert_output = invert_output
        self._evaluate = evaluate
        self._rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator
        self._delay_scale = delay_scale
        self.event_count = 0
        self._listeners = [self._make_listener(index) for index in range(len(self.inputs))]
        for signal, listener in zip(self.inputs, self._listeners):
            signal.subscribe(listener)

    def _make_listener(self, input_index: int) -> Callable[[Signal, float], None]:
        """Input *input_index*'s event handler, with its timing constants hoisted.

        On every input event the output is re-evaluated and scheduled after
        the per-input delay, scaled by ``delay_scale()``, plus the rise/fall
        mismatch on falling outputs, times ``1 + N(0, sigma)`` jitter, and
        floored at 1 fs.  The floor is written ``max(delay, 1e-15)``'s way
        round, so a NaN delay stays NaN and ``assign`` rejects it.
        """
        base_delay = self.timing.delay_for_input(input_index)
        mismatch_s = self.timing.rise_fall_mismatch_s
        sigma = self.timing.jitter_sigma_fraction
        normal = self._rng.normal
        delay_scale = self._delay_scale
        inputs = self.inputs
        evaluate = self._evaluate
        invert = 1 if self.invert_output else 0
        assign = self.output.assign

        def on_input_event(_signal: Signal, _time_s: float) -> None:
            new_value = (int(evaluate([int(signal._value) for signal in inputs])) & 1) ^ invert
            delay = base_delay
            if delay_scale is not None:
                delay = delay * float(delay_scale())
            if new_value == 0 and mismatch_s:
                delay = delay + mismatch_s
            if sigma > 0.0:
                delay = delay * (1.0 + normal(0.0, sigma))
            assign(new_value, 1.0e-15 if delay < 1.0e-15 else delay)
            self.event_count += 1

        return on_input_event

    # -- evaluation ----------------------------------------------------------

    def current_output_value(self) -> int:
        """Combinationally evaluate the output for the present input values."""
        values = [int(signal.value) for signal in self.inputs]
        result = int(self._evaluate(values)) & 1
        if self.invert_output:
            result ^= 1
        return result

    def evaluate_now(self) -> None:
        """Schedule an output update as if input 0 had just changed.

        Used to kick feedback loops (ring oscillators) at time zero, when no
        external input event exists yet.
        """
        self._listeners[0](self.inputs[0], self.output.simulator.now)

    def settle(self) -> None:
        """Force the output to its combinational value immediately (initialisation)."""
        self.output.force(self.current_output_value())


class BlockNormals:
    """Gate-jitter draws served from block-drawn standard normals.

    Stands in for the run's Generator in the gates of one simulation:
    ``normal(loc, scale)`` returns ``loc + scale * z`` with ``z`` taken in
    order from ``rng.standard_normal(BLOCK)``.  That is the formula numpy's
    scalar ``Generator.normal`` evaluates on the same stream of standard
    normals, so every draw is bit-equal to the scalar call it replaces, at
    a fraction of the per-call cost.  ``scale`` is not validated; the gate
    timings already are.

    Drawing ahead moves *rng* past the draws served so far.  :meth:`close`
    (or leaving the ``with`` block) rewinds it to the state the scalar
    calls would have left: it restores the state from before the current
    block and redraws the part of the block that was served.
    """

    #: Standard normals drawn at a time.  A 4 000-bit run of the
    #: paper-nominal channel (1 % jitter on every gate) serves ~52 000.
    BLOCK = 4096

    __slots__ = ("_rng", "_values", "_index", "_state")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._values: list[float] = []
        self._index = self.BLOCK  # the (empty) block is used up: draw on first use
        self._state = None  # rng state from before the current block

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """One Gaussian draw, bit-equal to ``rng.normal(loc, scale)``."""
        index = self._index
        if index == self.BLOCK:
            self._state = self._rng.bit_generator.state
            self._values = self._rng.standard_normal(self.BLOCK).tolist()
            index = 0
        self._index = index + 1
        return loc + scale * self._values[index]

    def close(self) -> None:
        """Leave *rng* where the scalar draws served so far would have left it."""
        if self._state is None:
            return
        self._rng.bit_generator.state = self._state
        self._rng.standard_normal(self._index)
        self._values = []
        self._index = self.BLOCK
        self._state = None

    def __enter__(self) -> "BlockNormals":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
