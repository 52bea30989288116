"""The benchmark's workloads: inputs made from a seed, one closed-loop iteration each.

Every workload drives the public API from one client with ``workers=1``
and sends its next call only after the previous one returned.  The seed
changes the random draws and the pattern phase, never the amount of work,
so runs on different seeds measure the same cost.

Each iteration returns one :class:`Operation` per grid point, solve or
training run.  An operation's ``record`` is the canonical text of its
simulated statistics (error and compared-bit counts, statistical-eye BER
at fixed points, the trained lineup); a speed change must leave every
record byte-identical.  Floats are written with ``float.hex`` so that
nothing is lost to rounding.

A workload times itself with its ``clock``: host seconds by default, or
the scaled clock of an untraced run, which may pause to read the host
speed after any of the calls :func:`pause_probes` names.

The probes at the bottom name the layers a traced run times.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from bench_tracing import Probe
from repro import experiments
from repro.core.cdr_channel import BehavioralCdrChannel, BehavioralSimulationResult
from repro.core.config import CdrChannelConfig
from repro.datapath import nrz
from repro.experiments import ParameterAxis, ScenarioSpec, StimulusSpec, engine
from repro.fastpath.engine import FastCdrChannel
from repro.link import (
    CrosstalkSpec,
    LinkConfig,
    LinkPath,
    LinkTrainer,
    LmsDfe,
    LossyLineChannel,
    RxCtle,
    TxFfe,
    statistical_eye,
)
from repro.link.stateye import StatisticalEyeSolver
from repro.link.training.objective import StatEyeObjective
from repro.statistical.ber_model import GatedOscillatorBerModel
from repro.sweep import resilient

#: Statistical-eye BER is recorded at these (phase UI, threshold) points.
EYE_PROBE_PHASES = (0.25, 0.5, 0.75)
EYE_PROBE_THRESHOLDS = (-0.1, 0.0, 0.1)
TARGET_BER = 1.0e-12


@dataclass(frozen=True)
class Operation:
    """One grid point, statistical-eye solve or training run of an iteration.

    ``ok`` is false for a recorded point failure, a non-finite output or an
    output outside the workload's invariants.  ``seconds`` is the host time
    of the call when it was timed on its own (solves and training runs).
    """

    kind: str
    record: str
    ok: bool
    seconds: float | None = None


@dataclass(frozen=True)
class Iteration:
    """What one closed-loop iteration did and when, in readings of the workload's clock."""

    started: float
    seconds: float
    operations: tuple[Operation, ...]
    points: int
    bits: int


def _hex(value: float) -> str:
    return float(value).hex()


def _finite(*values: float) -> bool:
    return all(math.isfinite(float(value)) for value in values)


def _prbs7_seed(seed: int) -> int:
    """A non-zero PRBS7 register state, so the pattern phase follows the seed."""
    return 1 + seed % 127


def _sj_phase(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, 2.0 * math.pi))


class GridWorkload:
    """One ``run_grid`` call per iteration over a fixed grid."""

    def __init__(
        self,
        name: str,
        spec: ScenarioSpec,
        axes: tuple[ParameterAxis, ...],
        seed: int,
    ) -> None:
        self.name = name
        self.spec = spec
        self.axes = axes
        self.seed = seed
        self.n_points = math.prod(len(axis) for axis in axes)
        self.clock = time.perf_counter

    def run(self) -> Iteration:
        start = self.clock()
        result = experiments.run_grid(
            self.spec,
            self.axes,
            name=self.name,
            seed=self.seed,
            workers=1,
            failure_policy="collect",
        )
        seconds = self.clock() - start
        return Iteration(
            started=start,
            seconds=seconds,
            operations=grid_operations(result, self.spec.stimulus.n_bits),
            points=self.n_points,
            bits=self.n_points * self.spec.stimulus.n_bits,
        )


def grid_operations(result, n_bits: int) -> tuple[Operation, ...]:
    """One operation per grid point: its coordinates, errors and compared bits.

    The BER comparison skips the first and last bit, so a healthy point
    compares exactly ``n_bits - 2`` bits and has at most that many errors.
    """
    failed = {failure.index: failure for failure in result.failures}
    errors = result.metrics["errors"].ravel()
    compared = result.metrics["compared"].ravel()
    shape = tuple(len(axis.labels) for axis in result.axes)
    operations = []
    for index in range(errors.size):
        position = np.unravel_index(index, shape)
        where = ",".join(
            f"{axis.name}={axis.labels[int(p)]}" for axis, p in zip(result.axes, position)
        )
        if index in failed:
            failure = failed[index]
            record = f"{where} failed={failure.exception_type}: {failure.message}"
            operations.append(Operation("point", record, ok=False))
            continue
        e, c = int(errors[index]), int(compared[index])
        ok = c == n_bits - 2 and 0 <= e <= c
        operations.append(Operation("point", f"{where} errors={e} compared={c}", ok=ok))
    return tuple(operations)


def solve_operation(label: str, eye, seconds: float) -> Operation:
    """BER at fixed (phase, threshold) points plus the openings at 1e-12."""
    bers = [
        eye.ber_at(phase, threshold)
        for phase in EYE_PROBE_PHASES
        for threshold in EYE_PROBE_THRESHOLDS
    ]
    horizontal = eye.horizontal_opening_ui(TARGET_BER)
    vertical = eye.vertical_opening(TARGET_BER)
    ok = _finite(*bers, horizontal, vertical) and all(0.0 <= b <= 1.0 for b in bers)
    record = (
        f"solve {label} ber=[{' '.join(_hex(b) for b in bers)}] "
        f"h={_hex(horizontal)} v={_hex(vertical)}"
    )
    return Operation("solve", record, ok=ok, seconds=seconds)


def train_operation(trained, seconds: float) -> Operation:
    """The trained lineup: coordinates, scores, DFE taps and evaluations spent."""
    eye, coarse = trained.eye, trained.coarse_eye
    coordinates = (trained.tx_post_db, trained.ctle_peaking_db)
    scores = (eye.horizontal_ui, eye.vertical, eye.ber, eye.score, coarse.score)
    taps = tuple(trained.dfe_weights)
    ok = (
        _finite(*scores, *taps, *(c for c in coordinates if c is not None))
        and eye.score >= coarse.score
        and trained.n_evaluations > 0
    )
    record = (
        f"train tx_post_db={coordinates[0]!r} ctle_peaking_db={coordinates[1]!r} "
        f"eye=[{' '.join(_hex(s) for s in scores)}] "
        f"dfe=[{' '.join(_hex(t) for t in taps)}] evaluations={trained.n_evaluations}"
    )
    return Operation("train", record, ok=ok, seconds=seconds)


class StateyeWorkload:
    """One ``LinkTrainer.train()`` plus a fixed mix of standalone solves per iteration."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        channel = LossyLineChannel.for_loss_at_nyquist(14.0)
        self.training_link = LinkConfig(channel=channel)
        fext = CrosstalkSpec.single_fext(
            float(rng.uniform(0.08, 0.12)),
            coupling_corner_hz=float(rng.uniform(1.0e9, 1.5e9)),
        )
        ffe_ctle = LinkConfig(
            channel=channel,
            tx_ffe=TxFfe.de_emphasis(post_db=float(rng.uniform(3.0, 4.0))),
            rx_ctle=RxCtle(peaking_db=float(rng.uniform(5.5, 6.5))),
        )
        dfe3 = LinkConfig(
            channel=channel,
            rx_ctle=ffe_ctle.rx_ctle,
            dfe=LmsDfe(n_taps=3, step_size=0.02, n_epochs=60),
        )
        self.mix = (
            ("ffe_ctle", ffe_ctle),
            ("dfe3", dfe3),
            ("ffe_ctle_fext", ffe_ctle.with_crosstalk(fext)),
        )
        self.clock = time.perf_counter

    def run(self) -> Iteration:
        start = self.clock()
        trained = LinkTrainer(self.training_link).train()
        train_seconds = self.clock() - start
        solves = []
        for label, link in self.mix:
            began = self.clock()
            eye = statistical_eye(link)
            solves.append((label, eye, self.clock() - began))
        seconds = self.clock() - start
        operations = (
            train_operation(trained, train_seconds),
            *(solve_operation(label, eye, solve_seconds) for label, eye, solve_seconds in solves),
        )
        return Iteration(
            started=start,
            seconds=seconds,
            operations=operations,
            points=trained.n_evaluations + len(self.mix),
            bits=0,
        )


def build(name: str, seed: int):
    """The workload *name* with every input made from *seed*."""
    rng = np.random.default_rng(seed)
    if name == "fast_link_sweep":
        spec = ScenarioSpec(
            stimulus=StimulusSpec(n_bits=50_000, seed=_prbs7_seed(seed)),
            jitter=nrz.JitterSpec(
                dj_ui_pp=0.2,
                rj_ui_rms=0.02,
                sj_amplitude_ui_pp=0.2,
                sj_frequency_hz=50.0e6,
                sj_phase_rad=_sj_phase(rng),
            ),
            link=LinkConfig(tx_ffe=TxFfe.de_emphasis(post_db=3.5), rx_ctle=RxCtle(peaking_db=6.0)),
            backend="fast",
        )
        axes = (
            ParameterAxis("channel_loss_db", (10.0, 16.0)),
            ParameterAxis("frequency_offset", (0.0, 0.03)),
        )
        return GridWorkload(name, spec, axes, seed)
    if name == "event_jitter_sweep":
        spec = ScenarioSpec(
            stimulus=StimulusSpec(n_bits=4_000, seed=_prbs7_seed(seed)),
            jitter=nrz.JitterSpec(
                sj_amplitude_ui_pp=0.1, sj_frequency_hz=50.0e6, sj_phase_rad=_sj_phase(rng)
            ),
            config=CdrChannelConfig.paper_nominal(),
            backend="auto",
        )
        axes = (ParameterAxis("frequency_offset", (0.0, 0.01, 0.02, 0.03)),)
        return GridWorkload(name, spec, axes, seed)
    if name == "stateye_training":
        return StateyeWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


# --- per-layer probes ----------------------------------------------------------

#: Layer spans in the order the per-layer table lists them.
LAYERS = (
    "datapath.stimulus",
    "datapath.edges",
    "link.transmit",
    "link.pulse",
    "link.pattern",
    "fastpath.run",
    "events.run",
    "core.ber",
    "experiments.run_grid",
    "experiments.simulate_scenario",
    "sweep.runner",
    "stateye.cursor",
    "stateye.solve",
    "statistical.timing",
    "dfe.adapt",
    "training.train",
)


def _count_bits(counter: str):
    def on_return(recorder, args, kwargs, result):
        bits = args[1] if len(args) > 1 else kwargs["bits"]
        recorder.count(counter, int(np.asarray(bits).size))

    return on_return


def _count_stateye_ops(recorder, args, kwargs, eye):
    """Computed work of one solve: phases x cursor rows x voltage bins."""
    solver = args[0]
    crosstalk = solver.path.config.crosstalk
    n_aggressors = 0 if crosstalk is None else len(crosstalk.aggressors)
    rows = (solver.span_ui - 1) + n_aggressors * solver.span_ui
    recorder.count("stateye.ops", eye.phases_ui.size * rows * eye.thresholds.size)


def _count_evaluations(recorder, args, kwargs, trained):
    recorder.count("training.evaluations", trained.n_evaluations)


def _count_cache_hits(recorder, call, args):
    """An objective evaluation that did not solve is a cache hit."""
    objective = args[0]
    before = objective.evaluations
    result = call()
    recorder.count("training.evaluate_calls")
    if objective.evaluations == before:
        recorder.count("training.cache_hits")
    return result


def pause_probes(pause) -> tuple[Probe, ...]:
    """Calls after which *pause()* runs: every grid point, objective evaluation and solve.

    They split an iteration into parts of at most a few tenths of a second
    on every workload, so the scaled clock can read the host speed often.
    """

    def on_call(recorder, call, args):
        result = call()
        pause()
        return result

    return (
        Probe("pause.point", engine, "simulate_scenario", on_call, span=False),
        Probe("pause.evaluate", StatEyeObjective, "evaluate", on_call, span=False),
        Probe("pause.solve", StatisticalEyeSolver, "solve", on_call, span=False),
    )


def layer_probes() -> tuple[Probe, ...]:
    """The public entry points a traced iteration wraps, one span name each."""
    return (
        Probe("datapath.stimulus", StimulusSpec, "bits"),
        Probe("datapath.edges", nrz, "generate_edge_times"),
        Probe("link.transmit", LinkPath, "transmit"),
        Probe("link.pulse", LinkPath, "equalized_pulse_response"),
        Probe("link.pattern", LinkPath, "pattern_displacements"),
        Probe("fastpath.run", FastCdrChannel, "run", _count_bits("fastpath.bits")),
        Probe("events.run", BehavioralCdrChannel, "run", _count_bits("events.bits")),
        Probe("core.ber", BehavioralSimulationResult, "ber"),
        Probe("experiments.run_grid", engine, "run_grid"),
        Probe("experiments.simulate_scenario", engine, "simulate_scenario"),
        Probe("sweep.runner", resilient, "map_tasks_resilient"),
        Probe("stateye.cursor", StatisticalEyeSolver, "cursor_matrix"),
        Probe("stateye.solve", StatisticalEyeSolver, "solve", _count_stateye_ops),
        Probe("statistical.timing", GatedOscillatorBerModel, "ber_at_phases"),
        Probe("dfe.adapt", LmsDfe, "adapt"),
        Probe("training.train", LinkTrainer, "train", _count_evaluations),
        Probe("training.evaluate", StatEyeObjective, "evaluate", _count_cache_hits, span=False),
    )
