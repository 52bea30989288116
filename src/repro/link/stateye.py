"""Statistical eye solver: pulse-response cursor PDFs × the analytic BER model.

Bit-true simulation cannot reach the paper's 1e-12 BER target — counting
ten errors there needs ~1e13 bits.  The statistical (StatEye/PyBERT-class)
approach gets there analytically:

1. **Cursor enumeration** — the victim's full single-bit response (TX FFE ×
   channel × RX CTLE, minus the trained DFE feedback) is sampled at every
   candidate sampling phase inside the unit interval; every cursor except
   the main one contributes ``±c_k`` to the sampled voltage depending on
   the (equiprobable) neighbouring bit.
2. **Voltage-PDF convolution** — the per-cursor two-point distributions are
   convolved on a fixed voltage grid (the amplitude-domain analogue of the
   time-domain PDF calculus in :mod:`repro.jitter.pdf`), giving the exact
   ISI amplitude distribution at each phase.
3. **Crosstalk superposition** — each FEXT/NEXT aggressor
   (:mod:`repro.link.crosstalk`) contributes its own independent cursor
   set, convolved into the same PDF.  An aggressor's transmitter runs on
   its *own* clock, so by default its cursor PDF is averaged over a
   uniform phase offset within the UI (``aggressor_phase="asynchronous"``);
   ``"synchronous"`` keeps the legacy victim-phase sampling as an opt-in.
4. **Timing × amplitude combination** — the amplitude error probability
   (wrong side of the decision threshold) is combined with the
   gated-oscillator timing error probability
   (:class:`repro.statistical.GatedOscillatorBerModel` at the same
   sampling phase — one cached model serves the whole phase scan) into the
   ``BER(phase, threshold)`` surface.

The result is a :class:`StatisticalEye`: the full surface plus contour
extraction and horizontal/vertical eye openings at a target BER — the
million-point BER-contour workload bit-by-bit simulation cannot touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .._validation import require_positive, require_positive_int, require_probability
from ..datapath.cid import RunLengthDistribution
from ..jitter.pdf import Pdf
from ..statistical.ber_model import CdrJitterBudget, GatedOscillatorBerModel
from .isi import superpose_circular
from .path import LinkConfig, LinkPath

__all__ = [
    "AGGRESSOR_PHASE_MODES",
    "StatisticalEye",
    "StatisticalEyeError",
    "StatisticalEyeSolver",
    "statistical_eye",
]

#: Aggressor sampling-phase statistics: ``"asynchronous"`` (default)
#: averages each aggressor's cursor PDF over a uniform phase offset within
#: the UI; ``"synchronous"`` samples it at the victim phase (legacy).
AGGRESSOR_PHASE_MODES = ("asynchronous", "synchronous")

#: Default pulse-response span (UI) of the solver — shared with the
#: link-training layer, whose DFE adaptation replays the solver's
#: training pattern length.
DEFAULT_SPAN_UI = 64


#: Cursor magnitudes below this (in victim-swing units) are numerical FFT
#: residue, not ISI — snapped to zero like the edge extractor's ``snap_ui``.
_CURSOR_SNAP = 1.0e-9

#: Largest departure from unit probability mass a solved noise PMF may
#: show; the grid is padded so that no cursor can push mass off it.
_MASS_TOLERANCE = 1.0e-9


class StatisticalEyeError(ValueError):
    """The statistical eye cannot be solved from these inputs.

    Raised when a cursor matrix holds a non-finite sample (for example the
    pulse response left behind by a diverging DFE) or when a solved noise
    PMF does not keep unit probability mass.
    """


def _convolve_cursor_pairs(pmfs: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Convolve every row of *pmfs* with its cursors' two-point distributions.

    *pmfs* is a ``(rows, bins)`` array of probability mass on the voltage
    grid.  *shifts* is a ``(cursors, rows)`` array of non-negative cursor
    magnitudes in grid cells; step ``k`` convolves row ``r`` with
    ``0.5·δ(+c) + 0.5·δ(−c)`` for ``c = shifts[k, r]``, and mass pushed
    beyond either grid edge drops.

    An off-grid impulse is split across the two adjacent bins with the
    weight chosen to preserve its **second moment** exactly (the pair is
    symmetric, so the mean is zero by construction): with ``c`` between
    bins ``m`` and ``m+1``, weight ``w = (c² − m²) / (2m + 1)`` gives
    ``(1−w)·m² + w·(m+1)² = c²``.  Cursors far below the grid step thus
    contribute their exact mean-square spread instead of being rounded
    away, and the total ISI variance is exact on any grid.

    All rows advance together, one vectorised step per cursor: the PMFs
    live in the interior of two zero-padded buffers used in turn, and both
    shifted copies of each row are row-gathers from a sliding-window view
    of the current buffer.  Each element sees the same arithmetic in the
    same order as a row-by-row convolution (a zero-weight term, which that
    would skip, adds exactly 0.0 to non-negative mass), so the result does
    not depend on how many rows are batched; a row whose shift is exactly
    0 passes through unchanged.

    Only the live support is updated: the column band that can hold mass
    starts at the input's nonzero extent and widens, per step, by that
    step's largest far shift (clipped to the grid).  Every cell outside it
    would be computed from zeros into an exact 0.0, which both buffers
    already hold there.  *shifts* must be finite — the solver rejects
    non-finite cursors before it gets here.
    """
    rows, bins = pmfs.shape
    whole = np.floor(shifts)
    weight = (shifts * shifts - whole * whole) / (2.0 * whole + 1.0)
    near_mass = (0.5 * (1.0 - weight))[:, :, None]
    far_mass = (0.5 * weight)[:, :, None]
    # A shift of a whole grid or more moves every cell off it, exactly as
    # a shift of ``bins`` does, so clip the window offsets there.
    near = np.minimum(whole, bins).astype(np.intp)
    far = np.minimum(whole + 1.0, bins).astype(np.intp)
    pad = int(far.max(initial=0))
    starts = np.stack((pad - near, pad + near, pad - far, pad + far), axis=1)
    still = shifts == 0.0
    any_moving = (~still).any(axis=1).tolist()
    any_still = still.any(axis=1).tolist()
    reach = far.max(axis=1, initial=0).tolist()

    buffers = np.zeros((2, rows, bins + 2 * pad))
    interiors = buffers[:, :, pad : pad + bins]
    windows = [sliding_window_view(buffer, bins, axis=1) for buffer in buffers]
    interiors[0] = pmfs
    # Bytes, not values: a -0.0 cell propagates as it would over the full grid.
    occupied = np.flatnonzero(interiors[0].view(np.uint64).any(axis=0))
    low, high = (int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else (0, 0)
    index = np.arange(rows)
    current = 0
    for step in range(shifts.shape[0]):
        if not any_moving[step]:
            continue
        low, high = max(low - reach[step], 0), min(high + reach[step], bins)
        band = slice(low, high)
        source = windows[current]
        result = interiors[1 - current][:, band]
        up, down, far_up, far_down = starts[step]
        np.multiply(
            near_mass[step], source[index, up, band] + source[index, down, band], out=result
        )
        result += far_mass[step] * (source[index, far_up, band] + source[index, far_down, band])
        if any_still[step]:
            np.copyto(result, interiors[current][:, band], where=still[step][:, None])
        current = 1 - current
    return interiors[current].copy()


def _cursor_pmfs(rows: np.ndarray, step: float, n_bins: int, centre: int) -> np.ndarray:
    """``(columns, n_bins)`` ISI PMFs of a ``(cursors, columns)`` cursor matrix.

    Column ``i`` starts as a unit impulse at *centre* and is convolved with
    the two-point distribution of every cursor ``rows[k, i]`` in row order.
    """
    shifts = np.abs(rows)
    # Snap numerically-zero cursors (FFT residue on clean channels, same
    # idiom as the edge extractor's snap_ui) so an ideal channel solves to
    # an exactly error-free amplitude eye.
    shifts[shifts < _CURSOR_SNAP] = 0.0
    impulses = np.zeros((rows.shape[1], n_bins))
    impulses[:, centre] = 1.0
    return _convolve_cursor_pairs(impulses, shifts / step)


@dataclass(frozen=True)
class StatisticalEye:
    """The solved statistical eye: a BER(phase, threshold) surface.

    Attributes
    ----------
    phases_ui:
        Sampling phases inside the unit interval (midpoint grid samples).
    thresholds:
        Decision-threshold voltage grid (victim swing units, 0 = slicer
        midpoint).
    ber:
        ``(len(phases_ui), len(thresholds))`` total BER surface —
        amplitude and timing error mechanisms combined (union bound,
        clipped at 1).
    timing_ber:
        Phase-only timing error probability (the analytic CDR model).
    amplitude_ber:
        Amplitude-only error probability surface.
    main_cursor:
        Main-cursor voltage at each phase (the eye rail position).
    noise_pmf:
        Per-phase probability mass of the ISI + crosstalk (+ Gaussian
        amplitude noise) voltage distribution on :attr:`thresholds`.
    """

    phases_ui: np.ndarray
    thresholds: np.ndarray
    ber: np.ndarray
    timing_ber: np.ndarray
    amplitude_ber: np.ndarray
    main_cursor: np.ndarray
    noise_pmf: np.ndarray = field(repr=False)

    @property
    def phase_step_ui(self) -> float:
        """Spacing of the phase scan."""
        return float(self.phases_ui[1] - self.phases_ui[0])

    def noise_pdf(self, phase_ui: float) -> Pdf:
        """ISI + crosstalk voltage distribution at the phase nearest *phase_ui*.

        Returned as a :class:`repro.jitter.pdf.Pdf` on the voltage grid, so
        the whole time-domain PDF calculus (moments, tail probabilities,
        further convolution) applies to the amplitude domain too.
        """
        index = int(np.argmin(np.abs(self.phases_ui - float(phase_ui))))
        step = float(self.thresholds[1] - self.thresholds[0])
        return Pdf(self.thresholds, self.noise_pmf[index] / step)

    def ber_at(self, phase_ui: float = 0.5, threshold: float = 0.0) -> float:
        """Total BER at one (sampling phase, decision threshold) point."""
        index = int(np.argmin(np.abs(self.phases_ui - float(phase_ui))))
        return float(np.interp(float(threshold), self.thresholds, self.ber[index]))

    def best_operating_point(self, threshold: float = 0.0) -> tuple[float, float]:
        """``(phase_ui, ber)`` of the minimum-BER phase at *threshold*.

        A wide-open eye floors at the same minimum over a whole phase
        span; the reported phase is the centre of the longest such
        plateau (first one on ties — deterministic), so pointing a CDR at
        it leaves margin on both sides instead of sampling at the edge.
        """
        column = int(np.argmin(np.abs(self.thresholds - float(threshold))))
        values = self.ber[:, column]
        minimum = float(values.min())
        at_minimum = np.flatnonzero(values == minimum)
        runs = np.split(at_minimum, np.flatnonzero(np.diff(at_minimum) > 1) + 1)
        plateau = max(runs, key=len)
        index = int(plateau[len(plateau) // 2])
        return float(self.phases_ui[index]), minimum

    def contour(self, target_ber: float = 1.0e-12) -> tuple[np.ndarray, np.ndarray]:
        """Eye contour at *target_ber*: per phase, the passing threshold band.

        Returns ``(lower, upper)`` threshold arrays over :attr:`phases_ui`;
        ``NaN`` where no threshold meets the target (closed eye).
        """
        require_probability("target_ber", target_ber)
        passing = self.ber <= target_ber
        lower = np.full(self.phases_ui.size, np.nan)
        upper = np.full(self.phases_ui.size, np.nan)
        for index in range(self.phases_ui.size):
            columns = np.flatnonzero(passing[index])
            if columns.size:
                lower[index] = self.thresholds[columns[0]]
                upper[index] = self.thresholds[columns[-1]]
        return lower, upper

    def horizontal_opening_ui(self, target_ber: float = 1.0e-12, threshold: float = 0.0) -> float:
        """Width (UI) of the phase span meeting *target_ber* at *threshold*."""
        require_probability("target_ber", target_ber)
        column = int(np.argmin(np.abs(self.thresholds - float(threshold))))
        passing = self.ber[:, column] <= target_ber
        return float(np.count_nonzero(passing)) * self.phase_step_ui

    def vertical_opening(self, target_ber: float = 1.0e-12, phase_ui: float | None = None) -> float:
        """Height (voltage) of the threshold band meeting *target_ber*.

        At the phase nearest *phase_ui*, or the widest band over all
        phases when *phase_ui* is ``None``; zero for a closed eye.
        """
        lower, upper = self.contour(target_ber)
        heights = np.where(np.isnan(lower), 0.0, upper - lower)
        if phase_ui is None:
            return float(heights.max()) if heights.size else 0.0
        index = int(np.argmin(np.abs(self.phases_ui - float(phase_ui))))
        return float(heights[index])


class StatisticalEyeSolver:
    """Builds the statistical eye of one link configuration.

    Parameters
    ----------
    link:
        The victim link (:class:`LinkConfig` or a prepared
        :class:`LinkPath`); its crosstalk population, when present,
        contributes aggressor cursor PDFs.
    budget:
        Jitter environment of the timing (CDR) term.  Defaults to Table 1
        with ``dj_ui_pp = 0`` — deterministic jitter *emerges* from the ISI
        cursor PDF here, so the budget should carry only non-ISI terms
        (random, sinusoidal, oscillator, frequency offset).  Pass
        :meth:`repro.link.LinkPath.jitter_budget` output instead to fold
        the dual-Dirac DDJ fit into the timing walls as well (conservative:
        ISI then counts in both domains).
    run_lengths:
        Line-code run-length statistics of the timing model (default: the
        model's 8b/10b worst case).
    span_ui:
        Pulse-response span; must cover the channel settling tail.
    voltage_step:
        Voltage-grid resolution of the cursor PDF convolution.
    amplitude_noise_rms:
        Optional Gaussian amplitude noise (thermal/reference) convolved
        into every phase's PDF.
    grid_step_ui:
        Time-domain grid resolution of the analytic BER model.
    aggressor_phase:
        ``"asynchronous"`` (default) — each aggressor transmits on its own
        clock, so its cursor PDF is averaged over a uniform phase offset
        within the UI; ``"synchronous"`` — legacy behaviour, aggressor
        cursors sampled at the victim phase.
    timing_model:
        Optional pre-built :class:`GatedOscillatorBerModel` supplying the
        timing term.  The link-training objective shares one model across
        every candidate lineup this way (the timing environment does not
        depend on the equalizers); when given, *budget*, *run_lengths*
        and *grid_step_ui* are ignored for the timing term.
    """

    def __init__(
        self,
        link: LinkConfig | LinkPath | None = None,
        *,
        budget: CdrJitterBudget | None = None,
        run_lengths: RunLengthDistribution | None = None,
        span_ui: int = DEFAULT_SPAN_UI,
        voltage_step: float = 0.01,
        amplitude_noise_rms: float = 0.0,
        grid_step_ui: float = 2.0e-3,
        aggressor_phase: str = "asynchronous",
        timing_model: GatedOscillatorBerModel | None = None,
    ) -> None:
        self.path = link if isinstance(link, LinkPath) else LinkPath(link)
        self.budget = budget if budget is not None else replace(CdrJitterBudget(), dj_ui_pp=0.0)
        self.run_lengths = run_lengths
        self.span_ui = require_positive_int("span_ui", span_ui)
        self.voltage_step = require_positive("voltage_step", voltage_step)
        self.amplitude_noise_rms = float(amplitude_noise_rms)
        self.grid_step_ui = require_positive("grid_step_ui", grid_step_ui)
        if aggressor_phase not in AGGRESSOR_PHASE_MODES:
            raise ValueError(
                f"unknown aggressor_phase {aggressor_phase!r}; expected one "
                f"of {list(AGGRESSOR_PHASE_MODES)}"
            )
        self.aggressor_phase = aggressor_phase
        self.timing_model = timing_model

    # -- cursor extraction ----------------------------------------------------

    def full_pulse_response(self) -> np.ndarray:
        """Victim single-bit response through every linear stage (incl. DFE).

        TX FFE applies in the symbol domain, channel × CTLE through the
        cached equalized pulse response, and a configured DFE subtracts its
        *trained* tap weights over the corresponding post-cursor unit
        intervals (its feedback is piecewise-constant per UI, so the
        subtraction is exact for the adapted weights).
        """
        config = self.path.config
        spu = config.timebase.samples_per_ui
        impulse = np.zeros(self.span_ui)
        impulse[0] = 1.0
        symbols = impulse if config.tx_ffe is None else config.tx_ffe.apply_to_symbols(impulse)
        pulse = self.path.equalized_pulse_response(self.span_ui)
        full = superpose_circular(symbols, pulse, spu)
        if config.dfe is not None:
            weights = self._trained_dfe_weights()
            for offset, weight in enumerate(weights, start=1):
                if offset >= self.span_ui:
                    break
                full[offset * spu : (offset + 1) * spu] -= weight
        return full

    def _trained_dfe_weights(self) -> np.ndarray:
        """Adapt the configured DFE on a PRBS training pattern of the span."""
        from ..datapath.prbs import prbs_sequence

        self.path.received_pattern_waveform(prbs_sequence(7, self.span_ui))
        adaptation = self.path.last_dfe_adaptation
        if adaptation is None:  # pragma: no cover - guarded by config.dfe
            return np.zeros(0)
        return np.asarray(adaptation.weights, dtype=float)

    def cursor_matrix(self) -> np.ndarray:
        """``(span_ui, samples_per_ui)`` victim cursor samples.

        Row ``k`` holds unit interval ``k`` of the full pulse response;
        column ``i`` is one candidate sampling phase (midpoint grid).
        """
        spu = self.path.config.timebase.samples_per_ui
        return self.full_pulse_response().reshape(self.span_ui, spu)

    def aggressor_cursor_matrices(self) -> list[np.ndarray]:
        """Per-aggressor ``(span_ui, samples_per_ui)`` cursor samples."""
        spu = self.path.config.timebase.samples_per_ui
        return [
            pulse.reshape(self.span_ui, spu)
            for pulse in self.path.aggressor_pulse_responses(self.span_ui)
        ]

    # -- solution --------------------------------------------------------------

    def solve(self) -> StatisticalEye:
        """Compute the full BER(phase, threshold) statistical eye.

        Raises :class:`StatisticalEyeError` when a cursor matrix is not
        finite or a solved noise PMF does not hold unit probability mass.
        """
        spu = self.path.config.timebase.samples_per_ui
        cursors = self.cursor_matrix()
        aggressors = self.aggressor_cursor_matrices()
        if not all(np.all(np.isfinite(matrix)) for matrix in [cursors, *aggressors]):
            raise StatisticalEyeError(
                "cursor matrix holds non-finite samples (a diverging DFE "
                "adaptation leaves NaN taps behind, for example)"
            )

        main_row = int(np.argmax(np.max(np.abs(cursors), axis=1)))
        main_cursor = cursors[main_row].copy()
        isi_rows = np.delete(cursors, main_row, axis=0)

        step = self.voltage_step
        # Count only cursor terms that can shift mass at all — an all-zero
        # row (e.g. a zero-amplitude aggressor) must leave the grid, and
        # therefore the solved eye, bit-identical.
        n_cursor_terms = int(np.count_nonzero(np.max(np.abs(isi_rows), axis=1))) + sum(
            int(np.count_nonzero(np.max(np.abs(rows), axis=1))) for rows in aggressors
        )
        worst_case = (
            np.max(np.abs(main_cursor))
            + float(np.sum(np.max(np.abs(isi_rows), axis=1), initial=0.0))
            + sum(float(np.sum(np.max(np.abs(rows), axis=1))) for rows in aggressors)
            + 10.0 * self.amplitude_noise_rms
        )
        # Fractional-shift splitting can push each cursor one bin past its
        # magnitude, so pad the grid by one cell per cursor term.
        half_bins = int(np.ceil(worst_case / step)) + n_cursor_terms + 4
        thresholds = np.arange(-half_bins, half_bins + 1, dtype=float) * step
        n_bins = thresholds.size
        centre = half_bins

        gaussian = None
        if self.amplitude_noise_rms > 0.0:
            weights = np.exp(-0.5 * (thresholds / self.amplitude_noise_rms) ** 2)
            gaussian = weights / weights.sum()

        # Aggressors whose cursor rows are all zero shift no probability
        # mass in either phase mode — skipping them keeps zero-amplitude
        # populations bit-identical to the crosstalk-free solve.
        live_aggressors = [
            rows for rows in aggressors if np.count_nonzero(np.max(np.abs(rows), axis=1))
        ]
        # The averaged PMFs are phase-independent, so the whole population
        # pre-combines into one convolution kernel outside the phase loop.
        aggressor_kernel = None
        if self.aggressor_phase == "asynchronous":
            for rows in live_aggressors:
                pmf = self._phase_averaged_pmf(rows, step, n_bins, centre)
                aggressor_kernel = (
                    pmf
                    if aggressor_kernel is None
                    else np.convolve(aggressor_kernel, pmf, mode="same")
                )

        cursor_rows = [isi_rows]
        if self.aggressor_phase == "synchronous":
            cursor_rows += live_aggressors
        noise_pmf = _cursor_pmfs(np.vstack(cursor_rows), step, n_bins, centre)
        for phase_index in range(spu):
            pmf = noise_pmf[phase_index]
            if aggressor_kernel is not None:
                pmf = np.convolve(pmf, aggressor_kernel, mode="same")
            if gaussian is not None:
                pmf = np.convolve(pmf, gaussian, mode="same")
            noise_pmf[phase_index] = pmf
        mass = noise_pmf.sum(axis=1)
        if not np.all(np.abs(mass - 1.0) <= _MASS_TOLERANCE):
            worst = int(np.argmax(np.abs(mass - 1.0)))
            raise StatisticalEyeError(
                f"noise PMF at phase index {worst} holds probability mass "
                f"{mass[worst]!r}, not 1 within {_MASS_TOLERANCE}"
            )

        # Amplitude error probability: a transmitted one samples below the
        # threshold, a transmitted zero above it (equiprobable bits).
        cdf = np.cumsum(noise_pmf, axis=1)
        amplitude_ber = np.empty((spu, n_bins))
        for phase_index in range(spu):
            rail = main_cursor[phase_index]
            below_one = np.interp(
                thresholds - rail, thresholds, cdf[phase_index], left=0.0, right=1.0
            )
            below_zero = np.interp(
                thresholds + rail, thresholds, cdf[phase_index], left=0.0, right=1.0
            )
            amplitude_ber[phase_index] = 0.5 * (below_one + (1.0 - below_zero))

        phases_ui = (np.arange(spu) + 0.5) / spu
        model = self.timing_model
        if model is None:
            model = GatedOscillatorBerModel(
                self.budget,
                run_lengths=self.run_lengths,
                grid_step_ui=self.grid_step_ui,
            )
        timing_ber = model.ber_at_phases(phases_ui)

        total = np.clip(timing_ber[:, None] + amplitude_ber, 0.0, 1.0)
        return StatisticalEye(
            phases_ui=phases_ui,
            thresholds=thresholds,
            ber=total,
            timing_ber=timing_ber,
            amplitude_ber=amplitude_ber,
            main_cursor=main_cursor,
            noise_pmf=noise_pmf,
        )

    def _phase_averaged_pmf(
        self, rows: np.ndarray, step: float, n_bins: int, centre: int
    ) -> np.ndarray:
        """One aggressor's cursor PMF averaged over a uniform in-UI offset.

        The aggressor's transmitter is asynchronous to the victim, so the
        phase offset between their unit intervals is uniform over the UI.
        On the circular span grid an offset of ``j`` cells permutes the
        sampled cursor multiset to column ``(i + j) mod spu`` of the
        cursor matrix — the offset average is therefore the
        column-averaged PDF, identical at every victim phase ``i``.
        Amplitude error probability is linear in the noise PMF and
        independent aggressors combine by convolution, so averaging at
        the PDF level (a mixture over offsets) is exact, not an
        approximation.
        """
        pmfs = _cursor_pmfs(rows, step, n_bins, centre)
        # Sum in column order, as a column-by-column loop does: the
        # reduction order of ``pmfs.sum(axis=0)`` is numpy's to choose.
        average = np.zeros(n_bins)
        for pmf in pmfs:
            average += pmf
        return average / pmfs.shape[0]


def statistical_eye(link: LinkConfig | LinkPath | None = None, **parameters) -> StatisticalEye:
    """Convenience wrapper: solve the statistical eye of *link* in one call."""
    return StatisticalEyeSolver(link, **parameters).solve()
