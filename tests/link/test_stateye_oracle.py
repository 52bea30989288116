"""Batched statistical-eye convolution versus the scalar per-phase oracle.

The solver convolves every sampling phase's cursor PMF in one row-batched
kernel.  The oracle below is the scalar formulation it replaced: one
two-point convolution per cursor per phase, built from plain shifted
copies.  Both must agree byte for byte, on generated shift matrices and
on full solves.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.link import (
    CrosstalkSpec,
    DfeDivergenceError,
    LinkConfig,
    LmsDfe,
    LossyLineChannel,
    RxCtle,
    StatisticalEye,
    StatisticalEyeError,
    StatisticalEyeSolver,
    TxFfe,
)
from repro.link import stateye
from repro.statistical.ber_model import GatedOscillatorBerModel

# -- the scalar oracle -------------------------------------------------------


def _shifted(pmf: np.ndarray, bins: int) -> np.ndarray:
    """*pmf* translated by *bins* grid cells (mass beyond the edge drops)."""
    if bins == 0:
        return pmf
    result = np.zeros_like(pmf)
    if bins > 0:
        result[bins:] = pmf[:-bins]
    else:
        result[:bins] = pmf[-bins:]
    return result


def _two_point_convolve(pmf: np.ndarray, shift_bins: float) -> np.ndarray:
    """Convolve *pmf* with ``0.5·δ(+c) + 0.5·δ(−c)`` for ``c = shift_bins``."""
    if shift_bins == 0.0:
        return pmf
    whole = int(np.floor(shift_bins))
    weight = (shift_bins * shift_bins - whole * whole) / (2.0 * whole + 1.0)
    result = np.zeros_like(pmf)
    for bins, mass in ((whole, 1.0 - weight), (whole + 1, weight)):
        if mass <= 0.0:
            continue
        result += (0.5 * mass) * (_shifted(pmf, bins) + _shifted(pmf, -bins))
    return result


def _reference_rows(pmfs: np.ndarray, shifts: np.ndarray) -> list[np.ndarray]:
    """Each row of *pmfs* convolved with its column of *shifts*, cursor by cursor."""
    rows = []
    for row in range(pmfs.shape[0]):
        pmf = pmfs[row]
        for shift in shifts[:, row]:
            pmf = _two_point_convolve(pmf, float(shift))
        rows.append(pmf)
    return rows


def _reference_column_pmf(cursors: np.ndarray, step: float, n_bins: int, centre: int):
    pmf = np.zeros(n_bins)
    pmf[centre] = 1.0
    cursors = np.abs(cursors)
    cursors[cursors < stateye._CURSOR_SNAP] = 0.0
    for shift in cursors / step:
        pmf = _two_point_convolve(pmf, float(shift))
    return pmf


def _reference_phase_averaged_pmf(rows, step, n_bins, centre):
    columns = rows.shape[1]
    average = np.zeros(n_bins)
    for column in range(columns):
        average += _reference_column_pmf(rows[:, column], step, n_bins, centre)
    return average / columns


def reference_solve(solver: StatisticalEyeSolver) -> StatisticalEye:
    """The solver's eye computed phase by phase, cursor by cursor."""
    spu = solver.path.config.timebase.samples_per_ui
    cursors = solver.cursor_matrix()
    aggressors = solver.aggressor_cursor_matrices()

    main_row = int(np.argmax(np.max(np.abs(cursors), axis=1)))
    main_cursor = cursors[main_row].copy()
    isi_rows = np.delete(cursors, main_row, axis=0)

    step = solver.voltage_step
    n_cursor_terms = int(np.count_nonzero(np.max(np.abs(isi_rows), axis=1))) + sum(
        int(np.count_nonzero(np.max(np.abs(rows), axis=1))) for rows in aggressors
    )
    worst_case = (
        np.max(np.abs(main_cursor))
        + float(np.sum(np.max(np.abs(isi_rows), axis=1), initial=0.0))
        + sum(float(np.sum(np.max(np.abs(rows), axis=1))) for rows in aggressors)
        + 10.0 * solver.amplitude_noise_rms
    )
    half_bins = int(np.ceil(worst_case / step)) + n_cursor_terms + 4
    thresholds = np.arange(-half_bins, half_bins + 1, dtype=float) * step
    n_bins = thresholds.size
    centre = half_bins

    gaussian = None
    if solver.amplitude_noise_rms > 0.0:
        weights = np.exp(-0.5 * (thresholds / solver.amplitude_noise_rms) ** 2)
        gaussian = weights / weights.sum()

    live_aggressors = [
        rows for rows in aggressors if np.count_nonzero(np.max(np.abs(rows), axis=1))
    ]
    aggressor_kernel = None
    if solver.aggressor_phase == "asynchronous":
        for rows in live_aggressors:
            pmf = _reference_phase_averaged_pmf(rows, step, n_bins, centre)
            aggressor_kernel = (
                pmf if aggressor_kernel is None else np.convolve(aggressor_kernel, pmf, mode="same")
            )

    noise_pmf = np.zeros((spu, n_bins))
    for phase_index in range(spu):
        cursors_here = isi_rows[:, phase_index]
        if solver.aggressor_phase == "synchronous":
            for rows in live_aggressors:
                cursors_here = np.concatenate((cursors_here, rows[:, phase_index]))
        pmf = _reference_column_pmf(cursors_here, step, n_bins, centre)
        if aggressor_kernel is not None:
            pmf = np.convolve(pmf, aggressor_kernel, mode="same")
        if gaussian is not None:
            pmf = np.convolve(pmf, gaussian, mode="same")
        noise_pmf[phase_index] = pmf

    cdf = np.cumsum(noise_pmf, axis=1)
    amplitude_ber = np.empty((spu, n_bins))
    for phase_index in range(spu):
        rail = main_cursor[phase_index]
        below_one = np.interp(thresholds - rail, thresholds, cdf[phase_index], left=0.0, right=1.0)
        below_zero = np.interp(thresholds + rail, thresholds, cdf[phase_index], left=0.0, right=1.0)
        amplitude_ber[phase_index] = 0.5 * (below_one + (1.0 - below_zero))

    phases_ui = (np.arange(spu) + 0.5) / spu
    model = solver.timing_model
    if model is None:
        model = GatedOscillatorBerModel(
            solver.budget, run_lengths=solver.run_lengths, grid_step_ui=solver.grid_step_ui
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


def _with_first(rows: np.ndarray, value: float) -> np.ndarray:
    rows = rows.copy()
    rows.flat[0] = value
    return rows


def _same_bytes(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and np.array_equal(left.view(np.uint64), right.view(np.uint64))


# -- the batched kernel on generated inputs ----------------------------------


def _shift_values(bins: int):
    """Zero, exact-integer, sub-step, fractional and off-grid shifts."""
    return st.one_of(
        st.just(0.0),
        st.integers(min_value=1, max_value=bins + 3).map(float),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.floats(min_value=0.0, max_value=bins / 2.0),
        st.floats(min_value=max(bins - 2.0, 0.0), max_value=2.0 * bins),
    )


@st.composite
def _kernel_inputs(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    bins = draw(st.integers(min_value=1, max_value=24))
    cursors = draw(st.integers(min_value=0, max_value=8))
    pmfs = draw(
        hnp.arrays(np.float64, (rows, bins), elements=st.floats(min_value=0.0, max_value=1.0))
    )
    shifts = draw(hnp.arrays(np.float64, (cursors, rows), elements=_shift_values(bins)))
    return pmfs, shifts


@st.composite
def _sparse_row(draw, bins: int):
    """An all-zero row, an impulse (often at a grid edge) or a narrow band."""
    row = np.zeros(bins)
    kind = draw(st.sampled_from(["zero", "impulse", "band"]))
    if kind == "impulse":
        cell = draw(st.one_of(st.sampled_from([0, bins - 1]), st.integers(0, bins - 1)))
        row[cell] = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    elif kind == "band":
        start = draw(st.integers(0, bins - 1))
        width = draw(st.integers(1, min(3, bins - start)))
        row[start : start + width] = draw(
            hnp.arrays(np.float64, width, elements=st.floats(min_value=0.0, max_value=1.0))
        )
    return row


@st.composite
def _sparse_kernel_inputs(draw):
    """Mass confined to a few cells, so the live band grows from narrow to full."""
    rows = draw(st.integers(min_value=1, max_value=6))
    bins = draw(st.integers(min_value=1, max_value=40))
    cursors = draw(st.integers(min_value=0, max_value=12))
    pmfs = np.stack([draw(_sparse_row(bins)) for _ in range(rows)])
    shifts = draw(hnp.arrays(np.float64, (cursors, rows), elements=_shift_values(bins)))
    return pmfs, shifts


class TestBatchedKernel:
    @given(_kernel_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scalar_oracle_byte_for_byte(self, inputs):
        pmfs, shifts = inputs
        batched = stateye._convolve_cursor_pairs(pmfs, shifts)
        for row, expected in enumerate(_reference_rows(pmfs, shifts)):
            assert _same_bytes(batched[row], expected)

    @given(_sparse_kernel_inputs())
    @settings(max_examples=300, deadline=None)
    def test_sparse_inputs_match_the_scalar_oracle_byte_for_byte(self, inputs):
        pmfs, shifts = inputs
        batched = stateye._convolve_cursor_pairs(pmfs, shifts)
        for row, expected in enumerate(_reference_rows(pmfs, shifts)):
            assert _same_bytes(batched[row], expected)

    def test_band_grows_from_an_edge_impulse_to_the_full_grid(self):
        # 1.5-cell shifts reach two cells, so the band widens by two per
        # step from the left edge until it covers the grid; mass then
        # leaves across the right edge.
        pmfs = np.zeros((2, 7))
        pmfs[0, 0] = 1.0
        shifts = np.array([[1.5, 0.0]] * 5 + [[0.5, 2.0]] * 3)
        batched = stateye._convolve_cursor_pairs(pmfs, shifts)
        for row, expected in enumerate(_reference_rows(pmfs, shifts)):
            assert _same_bytes(batched[row], expected)
        assert not batched[1].any()

    def test_input_is_left_untouched(self):
        pmfs = np.zeros((3, 9))
        pmfs[:, 4] = 1.0
        before = pmfs.copy()
        stateye._convolve_cursor_pairs(pmfs, np.array([[0.0, 1.5, 2.0]]))
        assert _same_bytes(pmfs, before)

    def test_every_edge_case_appears_in_one_matrix(self):
        # Zero, exact-integer (no second term), sub-step and off-grid
        # shifts side by side in one step and across steps.
        pmfs = np.zeros((4, 11))
        pmfs[:, 5] = 1.0
        shifts = np.array([[0.0, 3.0, 0.25, 40.0], [2.5, 0.0, 1.0, 0.75]])
        batched = stateye._convolve_cursor_pairs(pmfs, shifts)
        for row, expected in enumerate(_reference_rows(pmfs, shifts)):
            assert _same_bytes(batched[row], expected)
        assert batched[3].sum() == 0.0  # pushed off both edges


# -- full solves against the per-phase oracle --------------------------------


def _ffe_ctle(loss_db: float) -> LinkConfig:
    return LinkConfig(
        channel=LossyLineChannel.for_loss_at_nyquist(loss_db),
        tx_ffe=TxFfe.de_emphasis(post_db=3.5),
        rx_ctle=RxCtle(peaking_db=6.0),
    )


def _dfe3(loss_db: float) -> LinkConfig:
    return LinkConfig(
        channel=LossyLineChannel.for_loss_at_nyquist(loss_db),
        rx_ctle=RxCtle(peaking_db=6.0),
        dfe=LmsDfe(n_taps=3, step_size=0.02, n_epochs=60),
    )


def _fext(loss_db: float) -> LinkConfig:
    return _ffe_ctle(loss_db).with_crosstalk(CrosstalkSpec.single_fext(0.1))


SOLVES = {
    "ffe_ctle": (_ffe_ctle, {}),
    "dfe3": (_dfe3, {}),
    "fext_asynchronous": (_fext, {"aggressor_phase": "asynchronous"}),
    "fext_synchronous": (_fext, {"aggressor_phase": "synchronous"}),
    "gaussian_noise": (_ffe_ctle, {"amplitude_noise_rms": 0.02}),
}


class TestSolveMatchesOracle:
    @pytest.mark.parametrize("name", sorted(SOLVES))
    @given(
        loss_db=st.floats(min_value=6.0, max_value=18.0),
        voltage_step=st.sampled_from([0.005, 0.01, 0.02, 0.04]),
    )
    @settings(max_examples=3, deadline=None)
    def test_noise_pmf_and_ber_bytes(self, name, loss_db, voltage_step):
        build, options = SOLVES[name]
        solver = StatisticalEyeSolver(build(loss_db), voltage_step=voltage_step, **options)
        eye = solver.solve()
        expected = reference_solve(solver)
        assert _same_bytes(eye.thresholds, expected.thresholds)
        assert _same_bytes(eye.noise_pmf, expected.noise_pmf)
        assert _same_bytes(eye.ber, expected.ber)

    def test_zero_amplitude_aggressor_in_both_modes(self):
        quiet = _ffe_ctle(12.0).with_crosstalk(CrosstalkSpec.single_fext(0.0))
        for mode in ("asynchronous", "synchronous"):
            solver = StatisticalEyeSolver(quiet, aggressor_phase=mode)
            assert _same_bytes(solver.solve().noise_pmf, reference_solve(solver).noise_pmf)


# -- named errors at the solver boundary -------------------------------------


class TestStatisticalEyeError:
    def test_diverging_dfe_raises_before_the_grid_is_built(self):
        link = LinkConfig(
            channel=LossyLineChannel.for_loss_at_nyquist(10.0),
            dfe=LmsDfe(n_taps=3, step_size=5.0, n_epochs=50),
        )
        solver = StatisticalEyeSolver(link)
        with pytest.raises(DfeDivergenceError, match="diverged"):
            solver.cursor_matrix()
        with pytest.raises(DfeDivergenceError, match="diverged") as caught:
            solver.solve()
        assert isinstance(caught.value, ValueError)  # callers catching ValueError still do

    def test_non_finite_aggressor_cursors_raise(self, monkeypatch):
        solver = StatisticalEyeSolver(_fext(10.0))
        poisoned = [_with_first(rows, np.inf) for rows in solver.aggressor_cursor_matrices()]
        monkeypatch.setattr(solver, "aggressor_cursor_matrices", lambda: poisoned)
        with pytest.raises(StatisticalEyeError, match="non-finite"):
            solver.solve()

    def test_lost_probability_mass_raises(self, monkeypatch):
        kernel = stateye._convolve_cursor_pairs

        def leaky(pmfs, shifts):
            result = kernel(pmfs, shifts)
            result[-1] *= 1.0 - 1.0e-6
            return result

        monkeypatch.setattr(stateye, "_convolve_cursor_pairs", leaky)
        with pytest.raises(StatisticalEyeError, match="probability mass"):
            StatisticalEyeSolver(_ffe_ctle(10.0)).solve()

    def test_healthy_solves_keep_unit_mass(self):
        for build, options in SOLVES.values():
            eye = StatisticalEyeSolver(build(14.0), **options).solve()
            assert np.max(np.abs(eye.noise_pmf.sum(axis=1) - 1.0)) <= 1.0e-12

