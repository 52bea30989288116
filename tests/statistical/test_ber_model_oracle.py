"""The timing model versus its straightforward evaluation, byte for byte.

:class:`GatedOscillatorBerModel` shares one boundary PDF between run
lengths with the same relative SJ and evaluates the Gaussian tail only
where it is not exactly zero.  The oracle below is the evaluation that
does neither: one boundary PDF per run length and ``q_function`` over the
whole ``(positions, grid)`` broadcast.  Both must agree byte for byte on
generated budgets.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import units
from repro.datapath.cid import geometric_run_distribution
from repro.statistical import ber_model
from repro.statistical.ber_model import CdrJitterBudget, GatedOscillatorBerModel
from repro.statistical.qfunc import q_function

# -- the oracle ----------------------------------------------------------------


class _Oracle:
    """*model* evaluated with a per-run-length cache and every tail computed."""

    def __init__(self, model: GatedOscillatorBerModel) -> None:
        self.model = model
        self.pdfs = {}

    def boundary_pdf(self, k: int):
        if k not in self.pdfs:
            relative_sj = self.model.budget.relative_sj_pp_over_gap(float(k))
            self.pdfs[k] = self.model._edge_pair_pdf(relative_sj)
        return self.pdfs[k]

    def right(self, means, positions, k):
        model = self.model
        pdf = self.boundary_pdf(k)
        sigmas = model._sampling_sigmas_ui(positions)
        margins = float(k) - means
        if model.budget.osc_sigma_ui_per_bit > 0.0:
            tails = q_function((margins[..., None] + pdf.grid) / sigmas[:, None])
        else:
            tails = (pdf.grid < -margins[..., None]).astype(float)
        return np.clip(np.sum(pdf.density * tails, axis=-1) * pdf.step, 0.0, 1.0)

    def per_run(self, phases=None):
        """``(k, weights, p_right, p_left)`` for every run length."""
        model = self.model
        joint = model.run_lengths.position_in_run_weights()
        for k in range(1, model.run_lengths.max_run + 1):
            positions = np.arange(1, k + 1)
            means = model._sampling_means_ui(positions, phases)
            p_right = self.right(means, positions, k)
            p_left = model._left_error_probabilities(means, positions)
            yield k, joint[k - 1, :k], p_right, p_left

    def ber_at_phases(self, phases):
        totals = np.zeros(phases.shape, dtype=float)
        for _, weights, p_right, p_left in self.per_run(phases):
            totals += np.minimum(1.0, p_right + p_left) @ weights
        return np.minimum(totals, 1.0)

    def ber_breakdown(self):
        total = total_right = total_left = 0.0
        per_run = {}
        for k, weights, p_right, p_left in self.per_run():
            p_bit = np.minimum(1.0, p_right + p_left)
            active = weights > 0.0
            contribution = float(np.sum(weights[active] * p_bit[active]))
            total_right += float(np.sum(weights[active] * p_right[active]))
            total_left += float(np.sum(weights[active] * p_left[active]))
            per_run[k] = contribution
            total += contribution
        return {
            "ber": float(min(total, 1.0)),
            "ber_right": float(min(total_right, 1.0)),
            "ber_left": float(min(total_left, 1.0)),
            "per_run_length": per_run,
        }


def _hex(value: float) -> str:
    return float(value).hex()


def _same_bytes(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and left.tobytes() == right.tobytes()


# -- generated budgets ---------------------------------------------------------


def _zero_or(low: float, high: float):
    return st.one_of(st.just(0.0), st.floats(min_value=low, max_value=high))


_SJ_FREQUENCIES = st.one_of(
    st.just(units.DEFAULT_BIT_RATE / 2.0),  # every odd run length shares one PDF
    st.sampled_from([1.0e5, 1.0e8, 1.0e9]),
    st.floats(min_value=1.0e3, max_value=units.DEFAULT_BIT_RATE),
)


@st.composite
def _models(draw):
    budget = CdrJitterBudget(
        dj_ui_pp=draw(_zero_or(1.0e-3, 0.6)),
        rj_ui_rms=draw(_zero_or(1.0e-3, 0.06)),
        sj_amplitude_ui_pp=draw(_zero_or(1.0e-3, 1.2)),
        sj_frequency_hz=draw(_SJ_FREQUENCIES),
        osc_sigma_ui_per_bit=draw(_zero_or(1.0e-4, 0.05)),
        frequency_offset=draw(st.floats(min_value=-0.1, max_value=0.1)),
    )
    return GatedOscillatorBerModel(
        budget,
        sampling_phase_ui=draw(st.floats(min_value=0.05, max_value=0.95)),
        run_lengths=geometric_run_distribution(draw(st.integers(min_value=1, max_value=7))),
        grid_step_ui=draw(st.sampled_from([2.0e-3, 3.0e-3, 5.0e-3, 8.0e-3])),
        static_phase_error_ui=draw(_zero_or(-0.2, 0.2)),
    )


_PHASES = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=6),
    elements=st.one_of(
        st.sampled_from([0.0, 1.0e-9, 1.0e-3, 0.5, 1.0 - 1.0e-3, 1.0 - 1.0e-9, 1.0]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)


class TestModelMatchesOracle:
    @given(_models(), _PHASES)
    @settings(max_examples=80, deadline=None)
    def test_ber_at_phases_bytes(self, model, phases):
        expected = _Oracle(model).ber_at_phases(phases)
        assert _same_bytes(model.ber_at_phases(phases), expected)

    @given(_models())
    @settings(max_examples=80, deadline=None)
    def test_ber_breakdown_bytes(self, model):
        expected = _Oracle(model).ber_breakdown()
        breakdown = model.ber_breakdown()
        for name in ("ber", "ber_right", "ber_left"):
            assert _hex(getattr(breakdown, name)) == _hex(expected[name]), name
        assert list(breakdown.per_run_length) == list(expected["per_run_length"])
        for k, value in expected["per_run_length"].items():
            assert _hex(breakdown.per_run_length[k]) == _hex(value), k

    def test_half_rate_sj_shares_one_pdf_across_odd_run_lengths(self):
        budget = CdrJitterBudget(
            sj_amplitude_ui_pp=0.3, sj_frequency_hz=units.DEFAULT_BIT_RATE / 2.0
        )
        model = GatedOscillatorBerModel(budget, grid_step_ui=4.0e-3)
        oracle = _Oracle(model)
        phases = np.array([0.5])
        assert _same_bytes(model.ber_at_phases(phases), oracle.ber_at_phases(phases))
        assert model._boundary_pdf(1) is model._boundary_pdf(3) is model._boundary_pdf(5)
        assert len(model._boundary_pdf_cache) < len(oracle.pdfs)

    def test_zero_sj_builds_one_boundary_pdf(self):
        model = GatedOscillatorBerModel(CdrJitterBudget(), grid_step_ui=4.0e-3)
        model.ber_breakdown()
        assert list(model._boundary_pdf_cache) == [0.0]


# -- the premise of the zero-tail skip -----------------------------------------


class TestGaussianTailCutoff:
    def test_q_function_is_exactly_zero_from_the_cutoff_up(self):
        cutoff = ber_model._Q_ZERO_BEYOND
        dense = np.linspace(cutoff, 2.0 * cutoff, 200_001)
        beyond = np.concatenate(([cutoff], dense, [1.0e3, 1.0e300, math.inf]))
        tails = q_function(beyond)
        assert _same_bytes(tails, np.zeros_like(beyond))  # +0.0, not -0.0
        assert q_function(cutoff) == 0.0

    def test_tails_just_below_the_cutoff_are_kept(self):
        # Oscillator jitter alone, with the run-end margin ~34 sigma away:
        # the whole BER is made of tails Q still resolves, so a cutoff set
        # too low would zero the right-hand contribution.
        budget = CdrJitterBudget(dj_ui_pp=0.0, rj_ui_rms=0.0, osc_sigma_ui_per_bit=0.5 / 34.0)
        model = GatedOscillatorBerModel(
            budget, run_lengths=geometric_run_distribution(1), grid_step_ui=4.0e-3
        )
        breakdown = model.ber_breakdown()
        assert 0.0 < breakdown.ber_right < 1.0e-200
        assert _hex(breakdown.ber) == _hex(_Oracle(model).ber_breakdown()["ber"])


class TestNonFiniteSamplingMeans:
    def test_nan_mean_stays_nan_in_the_right_tail(self):
        model = GatedOscillatorBerModel(CdrJitterBudget(), grid_step_ui=4.0e-3)
        positions = np.arange(1, 4)
        means = model._sampling_means_ui(positions).copy()
        means[1] = math.nan
        probabilities = model._right_error_probabilities(
            means, positions, 3, model._boundary_pdf(3)
        )
        assert np.isnan(probabilities[1])
        assert np.all(np.isfinite(probabilities[[0, 2]]))

    def test_nan_phase_gives_nan_ber(self):
        model = GatedOscillatorBerModel(CdrJitterBudget(), grid_step_ui=4.0e-3)
        bers = model.ber_at_phases(np.array([0.5, math.nan]))
        assert np.isfinite(bers[0]) and np.isnan(bers[1])
