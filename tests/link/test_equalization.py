"""Tests for the TX FFE, RX CTLE and LMS DFE equalizer stages."""

import numpy as np
import pytest

from repro.link import DfeDivergenceError, LinkTimebase, LmsDfe, RxCtle, TxFfe
from repro.link.isi import nrz_symbol_levels


class TestTxFfe:
    def test_de_emphasis_taps_normalised(self):
        ffe = TxFfe.de_emphasis(pre_db=1.0, post_db=3.5)
        assert sum(abs(t) for t in ffe.taps) == pytest.approx(1.0)
        assert ffe.taps[ffe.main_cursor] > 0.0

    def test_post_tap_negative(self):
        ffe = TxFfe.de_emphasis(post_db=3.5)
        assert ffe.taps[-1] < 0.0

    def test_apply_matches_frequency_response(self):
        # Circular FIR in the symbol domain == multiplication in the
        # frequency domain on the pattern's discrete grid.
        rng = np.random.default_rng(7)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 64))
        ffe = TxFfe.de_emphasis(pre_db=1.0, post_db=4.0)
        direct = ffe.apply_to_symbols(symbols)
        ui = 4.0e-10
        freqs = np.fft.rfftfreq(symbols.size, d=ui)
        via_fft = np.fft.irfft(
            np.fft.rfft(symbols) * ffe.frequency_response(freqs, ui),
            symbols.size)
        assert direct == pytest.approx(via_fft, abs=1e-12)

    def test_repeated_bits_attenuated_vs_transitions(self):
        # De-emphasis lowers the steady-state swing, keeps transition swing.
        ffe = TxFfe.de_emphasis(post_db=6.0)
        steady = ffe.apply_to_symbols(np.ones(8))
        assert np.all(np.abs(steady) < 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TxFfe(taps=())
        with pytest.raises(ValueError):
            TxFfe(taps=(0.5, 0.5), main_cursor=2)


class TestRxCtle:
    def test_unity_dc_gain(self):
        ctle = RxCtle(peaking_db=9.0)
        response = ctle.frequency_response(np.array([0.0]))
        assert abs(response[0]) == pytest.approx(1.0, rel=1e-12)

    def test_peaking_boosts_near_peak_frequency(self):
        ctle = RxCtle(peaking_db=6.0, peak_frequency_hz=1.25e9)
        gain = np.abs(ctle.frequency_response(np.array([1.25e9])))[0]
        assert gain > 10.0 ** (0.5 * 6.0 / 20.0)  # well above half the boost

    def test_zero_peaking_is_plain_bandwidth_rolloff(self):
        ctle = RxCtle(peaking_db=0.0, bandwidth_hz=7.5e9)
        gains = np.abs(ctle.frequency_response(np.array([0.0, 1.25e9, 7.5e9])))
        assert np.all(np.diff(gains) < 0.0)
        assert gains[2] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-3)

    def test_more_peaking_more_boost(self):
        f = np.array([1.25e9])
        gains = [np.abs(RxCtle(peaking_db=p).frequency_response(f))[0]
                 for p in (0.0, 3.0, 6.0, 9.0)]
        assert np.all(np.diff(gains) > 0.0)

    def test_bandwidth_must_exceed_peak(self):
        with pytest.raises(ValueError):
            RxCtle(peak_frequency_hz=2.0e9, bandwidth_hz=1.0e9)


class TestLmsDfe:
    def _isi_samples(self, symbols, post_cursors):
        """UI samples with known post-cursor ISI added."""
        samples = symbols.astype(float).copy()
        for tap_index, weight in enumerate(post_cursors, start=1):
            samples += weight * np.roll(symbols, tap_index)
        return samples

    def test_lms_recovers_post_cursor_taps(self):
        rng = np.random.default_rng(3)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 127))
        true_taps = [0.25, -0.1]
        samples = self._isi_samples(symbols, true_taps)
        dfe = LmsDfe(n_taps=2, step_size=0.02, n_epochs=60)
        adaptation = dfe.adapt(samples, symbols)
        assert adaptation.weights == pytest.approx(true_taps, abs=0.02)
        assert adaptation.error_rms_per_epoch[-1] < 0.05
        assert adaptation.converged

    def test_feedback_waveform_cancels_isi_at_centres(self):
        rng = np.random.default_rng(4)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 64))
        samples = self._isi_samples(symbols, [0.3])
        dfe = LmsDfe(n_taps=1, step_size=0.03, n_epochs=60)
        adaptation = dfe.adapt(samples, symbols)
        spu = 8
        waveform = np.repeat(samples, spu)
        corrected = waveform - dfe.feedback_waveform(symbols, adaptation.weights, spu)
        centre = corrected[spu // 2::spu]
        assert np.max(np.abs(centre - symbols)) < 0.05

    def test_needs_enough_training_symbols(self):
        dfe = LmsDfe(n_taps=4)
        with pytest.raises(ValueError):
            dfe.adapt(np.ones(3), np.ones(3))

    def test_converges_under_additive_noise(self):
        # Regression for the adaptation tests' blind spot: every earlier
        # test trained on noiseless samples.  With additive Gaussian noise
        # LMS must still land near the true taps (within a few noise
        # standard errors) and report convergence.
        rng = np.random.default_rng(11)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 255))
        true_taps = [0.3, -0.12]
        samples = self._isi_samples(symbols, true_taps) \
            + rng.normal(0.0, 0.05, symbols.size)
        dfe = LmsDfe(n_taps=2, step_size=0.01, n_epochs=80)
        adaptation = dfe.adapt(samples, symbols)
        assert adaptation.weights == pytest.approx(true_taps, abs=0.05)
        assert adaptation.converged
        # The residual error floor is the noise itself, not zero.
        assert 0.03 < adaptation.error_rms_per_epoch[-1] < 0.15

    def test_noise_floor_scales_with_noise(self):
        rng = np.random.default_rng(12)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 255))
        clean_samples = self._isi_samples(symbols, [0.25])
        dfe = LmsDfe(n_taps=1, step_size=0.01, n_epochs=60)
        floors = []
        for sigma in (0.02, 0.1):
            noisy = clean_samples + rng.normal(0.0, sigma, symbols.size)
            floors.append(dfe.adapt(noisy, symbols).error_rms_per_epoch[-1])
        assert floors[1] > floors[0]


class TestDecisionDirectedDfe:
    def _isi_samples(self, symbols, post_cursors):
        samples = symbols.astype(float).copy()
        for tap_index, weight in enumerate(post_cursors, start=1):
            samples += weight * np.roll(symbols, tap_index)
        return samples

    def test_blind_adaptation_matches_data_aided_weights(self):
        # With an open (slicer-decidable) eye the decisions are the
        # symbols, so decision-directed LMS must find the same taps.
        rng = np.random.default_rng(5)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 255))
        samples = self._isi_samples(symbols, [0.2, -0.08])
        aided = LmsDfe(n_taps=2, step_size=0.02, n_epochs=60)
        blind = LmsDfe(n_taps=2, step_size=0.02, n_epochs=60,
                       decision_directed=True)
        aided_weights = aided.adapt(samples, symbols).weights
        blind_adaptation = blind.adapt(samples, symbols)
        assert blind_adaptation.weights == pytest.approx(aided_weights,
                                                         abs=0.02)
        assert blind_adaptation.converged

    def test_decision_error_rate_recorded_and_converges_to_zero(self):
        rng = np.random.default_rng(6)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 255))
        samples = self._isi_samples(symbols, [0.25]) \
            + rng.normal(0.0, 0.05, symbols.size)
        blind = LmsDfe(n_taps=1, step_size=0.02, n_epochs=60,
                       decision_directed=True)
        adaptation = blind.adapt(samples, symbols)
        assert adaptation.decision_error_rate_per_epoch is not None
        assert adaptation.decision_error_rate_per_epoch.shape == (60,)
        assert adaptation.final_decision_error_rate == 0.0

    def test_data_aided_mode_reports_no_decision_diagnostics(self):
        rng = np.random.default_rng(7)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 127))
        adaptation = LmsDfe(n_taps=1).adapt(symbols.astype(float), symbols)
        assert adaptation.decision_error_rate_per_epoch is None
        assert np.isnan(adaptation.final_decision_error_rate)


class TestDivergenceGuard:
    """A step size past the LMS stability bound raises instead of returning NaN taps."""

    @pytest.mark.parametrize("decision_directed", [False, True])
    @pytest.mark.parametrize("kernel", ["auto", "python", "reference"])
    def test_diverging_step_size_raises_on_every_tier(self, kernel, decision_directed):
        rng = np.random.default_rng(3)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 127))
        samples = symbols + 0.3 * np.roll(symbols, 1)
        dfe = LmsDfe(n_taps=3, step_size=5.0, n_epochs=50,
                     decision_directed=decision_directed)
        with np.errstate(over="ignore", invalid="ignore"):  # the reference tier's numpy scalars
            with pytest.raises(DfeDivergenceError, match="diverged") as caught:
                dfe.adapt(samples, symbols, kernel=kernel)
        assert isinstance(caught.value, ValueError)

    def test_stable_step_size_is_untouched(self):
        rng = np.random.default_rng(3)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 127))
        samples = symbols + 0.3 * np.roll(symbols, 1)
        adaptation = LmsDfe(n_taps=3, step_size=0.02, n_epochs=50).adapt(samples, symbols)
        assert np.all(np.isfinite(adaptation.weights))


class TestErrorPropagation:
    """Satellite requirement: a forced slicer error must decay, not ring."""

    def _adapted_weights(self, symbols, true_taps):
        samples = symbols.astype(float).copy()
        for tap_index, weight in enumerate(true_taps, start=1):
            samples += weight * np.roll(symbols, tap_index)
        dfe = LmsDfe(n_taps=len(true_taps), step_size=0.02, n_epochs=60)
        return dfe, dfe.adapt(samples, symbols).weights

    def test_forced_error_decays_for_adapted_taps(self):
        rng = np.random.default_rng(8)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 127))
        dfe, weights = self._adapted_weights(symbols, [0.25, -0.1])
        propagation = dfe.error_propagation(weights, symbols)
        assert propagation.decays
        # The burst cannot outlive the feedback register here: the
        # perturbation 2*|w| stays inside the +-1 decision margin.
        assert propagation.burst_length == 0
        assert np.all(propagation.deviation_per_ui[dfe.n_taps:] == 0.0)

    def test_deviation_trace_shows_the_feedback_perturbation(self):
        symbols = nrz_symbol_levels(
            np.random.default_rng(9).integers(0, 2, 127))
        dfe, weights = self._adapted_weights(symbols, [0.3])
        propagation = dfe.error_propagation(weights, symbols, error_index=5)
        assert propagation.deviation_per_ui[0] \
            == pytest.approx(2.0 * abs(weights[0]), abs=0.05)

    def test_unstable_taps_ring_and_are_flagged(self):
        # On an alternating pattern a tap past the stability boundary
        # (2|w1| > decision margin) sustains its own error indefinitely:
        # the textbook DFE error-propagation instability must be
        # reported, not hidden.
        symbols = np.tile([1.0, -1.0], 64)
        dfe = LmsDfe(n_taps=1)
        propagation = dfe.error_propagation(np.array([1.2]), symbols,
                                            horizon=48)
        assert not propagation.decays
        assert propagation.burst_length == 48
        assert np.all(propagation.deviation_per_ui > 0.0)

    def test_error_index_and_horizon_controls(self):
        symbols = nrz_symbol_levels(
            np.random.default_rng(10).integers(0, 2, 64))
        dfe = LmsDfe(n_taps=1)
        propagation = dfe.error_propagation(np.array([0.2]), symbols,
                                            error_index=10, horizon=12)
        assert propagation.deviation_per_ui.shape == (12,)
        with pytest.raises(ValueError):
            dfe.error_propagation(np.array([0.2]), symbols, horizon=0)
        with pytest.raises(ValueError):
            dfe.error_propagation(np.array([0.2, 0.1]), np.ones(2))


class TestTimebase:
    def test_midpoint_axis(self):
        timebase = LinkTimebase(bit_rate_hz=2.5e9, samples_per_ui=4)
        axis = timebase.time_axis_s(1)
        step = timebase.sample_period_s
        assert axis == pytest.approx((np.arange(4) + 0.5) * step)

    def test_frequency_grid_reaches_half_sample_rate(self):
        timebase = LinkTimebase(samples_per_ui=32)
        freqs = timebase.frequencies_hz(timebase.n_samples(8))
        assert freqs[0] == 0.0
        assert freqs[-1] == pytest.approx(0.5 / timebase.sample_period_s)
