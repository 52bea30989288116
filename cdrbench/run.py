"""Benchmark of the CDR reproduction: absolute throughput on three named workloads.

Run from the root of a checkout::

    python3 cdrbench/run.py --workload fast_link_sweep --seed 0 --seconds 10 --trace 0
    python3 cdrbench/run.py --workload all --seed 0 --seconds 10

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it times every layer's public entry points and reports
the per-layer metrics.  ``--workload all`` runs every workload both ways.
Times are host times scaled to a fixed host speed (see bench_speed.py).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output check passed, 1 when one failed and 2 when the benchmark could not
run at all (for example without the simulator source under ``src/``).

See README.md next to this file for the workloads, the metrics and the
layers each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import bench_stats
from bench_tracing import Instrumentation, SpanRecorder, self_times, union_length

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS_PATH = BENCH_DIR / "expected_digests.json"
RUNS_DIR = BENCH_DIR / "runs"

DEFAULT_SEED = 0
#: Fresh processes started per run to time set-up; the lower quartile is reported.
SETUP_PROBES = 5
#: A set-up probe that takes longer than this is a failure, not a sample.
SETUP_TIMEOUT_S = 60.0
#: Thread-count variables of the BLAS builds numpy may link against.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Per-layer throughput counters: bits through a backend over its busy time.
BUSY_RATES = {"fastpath.bits_per_busy_s": "fastpath", "events.bits_per_busy_s": "events"}


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def import_simulator():
    """Put this checkout's ``src/`` first on the path and import ``repro`` from it.

    The measured process runs on one thread: numpy's BLAS pool is pinned to
    one thread before numpy loads, so it cannot compete for the second core
    of a small host.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SetupError(f"no simulator source at {source}")
    for variable in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SetupError(f"imported repro from {repro.__file__}, not from {source}")
    return repro


def declared_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"no {path}")
    return json.loads(path.read_text())


def digest(iteration) -> str:
    text = "\n".join(operation.record for operation in iteration.operations)
    return hashlib.sha256(text.encode()).hexdigest()


def environment_key(manifest: dict) -> dict:
    """The manifest fields a byte-identical output may depend on."""
    return {key: manifest[key] for key in ("numpy", "machine")}


def recorded_digest(workload: str, seed: int, manifest: dict) -> str | None:
    """The expected digest recorded for this workload, seed and environment, if any."""
    if not DIGESTS_PATH.is_file():
        return None
    recorded = json.loads(DIGESTS_PATH.read_text())
    if recorded["environment"] != environment_key(manifest):
        return None
    return recorded["digests"].get(workload, {}).get(str(seed))


def check_iteration(iteration, reference, tally: bench_stats.OperationTally) -> None:
    """Count each operation; it passes when it is healthy and equals the reference."""
    expected = [operation.record for operation in reference.operations]
    for index, operation in enumerate(iteration.operations):
        same = index < len(expected) and operation.record == expected[index]
        tally.record(operation.ok and same)
    for _ in range(len(iteration.operations), len(expected)):
        tally.record(False)


def measure_untraced(workload, seconds: float, reference, tally, clock, pauses):
    """Iterations timed by the scaled *clock*, and each one's host seconds.

    The host seconds of an iteration run from the previous iteration's
    last clock reading to its own, so they include the small gap between
    iterations; the scaled seconds do not.
    """
    iterations, host_seconds = [], []
    workload.clock = clock
    start = time.perf_counter()
    with Instrumentation(SpanRecorder(), pauses, package="repro"):
        while not iterations or time.perf_counter() - start < seconds:
            host_before = clock.host
            iteration = workload.run()
            host_seconds.append(clock.host - host_before)
            check_iteration(iteration, reference, tally)
            iterations.append(iteration)
    return iterations, host_seconds


def measure_traced(workload, seconds: float, reference, tally, probes):
    """Alternate traced and untraced iterations; spans come from the traced ones."""
    recorder = SpanRecorder()
    traced, untraced = [], []
    start = time.perf_counter()
    while not traced or not untraced or time.perf_counter() - start < seconds:
        if len(traced) <= len(untraced):
            recorder.iteration = len(traced)
            with Instrumentation(recorder, probes, package="repro"):
                iteration = workload.run()
            traced.append(iteration)
        else:
            iteration = workload.run()
            untraced.append(iteration)
        check_iteration(iteration, reference, tally)
    return recorder, traced, untraced


def measure_setup(workload: str, seed: int, speed) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh process to a warm workload, per probe: host and scaled."""
    samples, scaled = [], []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    command += ["--workload", workload, "--seed", str(seed)]
    before = speed.read()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - start
            process.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if process.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe of {workload} failed ({process.returncode})")
        after = speed.read()
        samples.append(elapsed)
        scaled.append(bench_stats.scaled_seconds(elapsed, before, after, speed.reference))
        before = after
    return samples, scaled


def end_to_end_metrics(iterations, host_seconds, readings, setup_samples, setup_scaled, tally):
    """End-to-end metrics from untraced iterations, plus the printed extras.

    Every time is in scaled seconds; the host times are printed next to
    them.  The gated times are lower quartiles (:func:`bench_stats.lower_quartile`).
    """
    seconds = [iteration.seconds for iteration in iterations]
    iteration_s = bench_stats.lower_quartile(seconds)
    points = iterations[0].points
    metrics = {
        "setup_s": (bench_stats.lower_quartile(setup_scaled), "s"),
        "points_per_s": (points / iteration_s, "points/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    extras = [
        ("setup_s", metrics["setup_s"][0], "s", len(setup_scaled)),
        ("setup_host_s_p50", bench_stats.median(setup_samples), "s", len(setup_samples)),
        ("iteration_s_p25", iteration_s, "s", len(seconds)),
        ("iteration_s_p50", bench_stats.median(seconds), "s", len(seconds)),
        ("iteration_host_s_p50", bench_stats.median(host_seconds), "s", len(host_seconds)),
        ("reference_ms_p50", bench_stats.median(readings) * 1e3, "ms", len(readings)),
        ("points_per_s", metrics["points_per_s"][0], "points/s", len(seconds)),
    ]
    if iterations[0].bits:
        extras.append(("bits_per_s", iterations[0].bits / iteration_s, "bits/s", len(seconds)))
    timed = (("solve", "solve_ms", 1e3, "ms"), ("train", "train_s", 1.0, "s"))
    for kind, name, scale, unit in timed:
        samples = [
            op.seconds * scale for it in iterations for op in it.operations if op.kind == kind
        ]
        if samples:
            extras.append((f"{name}_p50", bench_stats.median(samples), unit, len(samples)))
            p90 = bench_stats.tail_percentile(samples, 0.9)
            extras.append((f"{name}_p90", p90, unit, len(samples)))
    extras.append(("peak_rss_mb", metrics["peak_rss_mb"][0], "MiB", 1))
    extras.append(("failed_fraction", tally.failed_fraction, "ratio", tally.attempted))
    return metrics, extras


def layer_metrics(recorder, traced, untraced, layers):
    """Per-layer metrics of the traced iterations, and each layer's median self seconds.

    A layer's ``self_share`` is its self time over all traced iteration
    time; ``calls`` is the median count per traced iteration.
    """
    own = self_times(recorder.spans)
    n = len(traced)
    calls = {layer: [0] * n for layer in layers}
    self_s = {layer: [0.0] * n for layer in layers}
    busy = {layer: 0.0 for layer in layers}
    for span in recorder.spans:
        if span.name in calls:
            calls[span.name][span.iteration] += 1
            self_s[span.name][span.iteration] += own[span.id]
            busy[span.name] += span.duration

    def total(counter: str) -> float:
        return sum(value for (_, name), value in recorder.counts.items() if name == counter)

    def per_iteration(counter: str) -> float:
        return bench_stats.median([recorder.counts.get((i, counter), 0.0) for i in range(n)])

    traced_total = sum(iteration.seconds for iteration in traced)
    metrics, self_medians = {}, {}
    for layer in layers:
        metrics[f"{layer}.calls"] = (bench_stats.median(calls[layer]), "count")
        metrics[f"{layer}.self_share"] = (sum(self_s[layer]) / traced_total, "ratio")
        self_medians[layer] = bench_stats.median(self_s[layer])
    for name, prefix in BUSY_RATES.items():
        seconds = busy[f"{prefix}.run"]
        metrics[name] = (total(f"{prefix}.bits") / seconds if seconds else 0.0, "bits/s")
    metrics["stateye.ops"] = (per_iteration("stateye.ops"), "count")
    metrics["training.evaluations"] = (per_iteration("training.evaluations"), "count")
    evaluate_calls = total("training.evaluate_calls")
    hit_ratio = total("training.cache_hits") / evaluate_calls if evaluate_calls else 0.0
    metrics["training.cache_hit_ratio"] = (hit_ratio, "ratio")

    uncovered = 0.0
    for i, iteration in enumerate(traced):
        window = (iteration.started, iteration.started + iteration.seconds)
        top = [
            (max(span.start, window[0]), min(span.end, window[1]))
            for span in recorder.spans
            if span.iteration == i and span.parent is None
        ]
        uncovered += iteration.seconds - union_length(top)
    metrics["unattributed_share"] = (uncovered / traced_total, "ratio")
    traced_median = bench_stats.median(iteration.seconds for iteration in traced)
    untraced_median = bench_stats.median(iteration.seconds for iteration in untraced)
    metrics["tracing_overhead_share"] = (traced_median / untraced_median - 1.0, "ratio")
    return metrics, self_medians


def describe_check(expected: str | None, actual: str) -> str:
    if expected is None:
        return "no digest recorded for this seed and environment: repeatability checked"
    if expected == actual:
        return "matches the recorded digest"
    return "DIFFERS from the recorded digest"


def print_end_to_end(extras) -> None:
    print("end-to-end, untraced")
    for name, value, unit, count in extras:
        shown = "n/a (< 10 samples beyond)" if value is None else f"{value:.6g}"
        print(f"  {name:20s} {shown:>26s} {unit:9s} n={count}")


def print_layers(metrics: dict, self_seconds: dict) -> None:
    print(f"{'layer, per traced iteration':34s} {'calls':>8s} {'self_s':>12s} {'share':>8s}")
    for layer, self_s in self_seconds.items():
        calls, share = metrics[f"{layer}.calls"][0], metrics[f"{layer}.self_share"][0]
        print(f"  {layer:32s} {calls:8.0f} {self_s:12.6f} {share:8.4f}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_share")):
            print(f"  {name:32s} {value:.6g} {unit}")


def write_record(args, manifest: dict, reference, reference_digest, extra: dict) -> Path:
    RUNS_DIR.mkdir(exist_ok=True)
    path = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "manifest": manifest,
        "digest": reference_digest,
        "records": [operation.record for operation in reference.operations],
        **extra,
    }
    path.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")
    return path


def run_workload(args, benchmark: dict) -> int:
    import_simulator()
    import bench_workloads
    from bench_speed import ScaledClock, SpeedReference
    from repro._kernels import resolve_tier
    from repro.telemetry.manifest import collect_manifest

    section = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in benchmark[section]}
    workload = bench_workloads.build(args.workload, args.seed)
    reference = workload.run()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    manifest = collect_manifest(kernel_tier=resolve_tier(), seed=args.seed).to_dict()
    reference_digest = digest(reference)
    expected = recorded_digest(args.workload, args.seed, manifest)
    tally = bench_stats.OperationTally()
    if args.trace:
        recorder, traced, untraced = measure_traced(
            workload, args.seconds, reference, tally, bench_workloads.layer_probes()
        )
        metrics, self_seconds = layer_metrics(recorder, traced, untraced, bench_workloads.LAYERS)
        samples = {"traced_s": [it.seconds for it in traced]}
        samples["untraced_s"] = [it.seconds for it in untraced]
        samples["self_s"] = self_seconds
    else:
        speed = SpeedReference()
        clock = ScaledClock(speed)
        pauses = bench_workloads.pause_probes(clock.pause)
        iterations, host_seconds = measure_untraced(
            workload, args.seconds, reference, tally, clock, pauses
        )
        setup_samples, setup_scaled = measure_setup(args.workload, args.seed, speed)
        metrics, extras = end_to_end_metrics(
            iterations, host_seconds, clock.readings, setup_samples, setup_scaled, tally
        )
        samples = {"iteration_s": [it.seconds for it in iterations], "setup_s": setup_scaled}
        samples["iteration_host_s"] = host_seconds
        samples["setup_host_s"] = setup_samples
        samples["reference_s"] = clock.readings
        samples["report"] = [
            {"name": name, "value": value, "unit": unit, "samples": count}
            for name, value, unit, count in extras
        ]

    if expected is not None and expected != reference_digest:
        tally.fail_all()
    correct = tally.failed == 0
    if set(metrics) != set(declared) or any(metrics[k][1] != declared[k] for k in metrics):
        raise RuntimeError(f"emitted {section} metrics differ from BENCHMARK.json")
    result = bench_stats.result_line(correct, tally, metrics)

    print(f"workload {args.workload}  seed {args.seed}  kernel tier {manifest['kernel_tier']}")
    print(f"output digest {reference_digest[:16]}  {describe_check(expected, reference_digest)}")
    print(f"operations {tally.attempted}  failed {tally.failed}")
    if args.trace:
        print_layers(metrics, self_seconds)
    else:
        print_end_to_end(extras)
    path = write_record(args, manifest, reference, reference_digest, {"samples": samples, **result})
    print(f"run record {path.relative_to(ROOT)}")
    print(json.dumps(result, allow_nan=False))
    return 0 if correct else 1


def run_all(args, benchmark: dict) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    status = 0
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
            command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            command += ["--trace", str(trace)]
            print(f"== {workload} trace {trace}", flush=True)
            completed = subprocess.run(command, cwd=ROOT)
            status = max(status, completed.returncode)
    print("all output checks passed" if status == 0 else "an output check FAILED")
    return status


def record_digests(count: int, benchmark: dict) -> int:
    """Record the expected output digest of every workload for seeds ``0..count-1``."""
    import_simulator()
    import bench_workloads
    from repro.telemetry.manifest import collect_manifest

    digests = {
        workload: {
            str(seed): digest(bench_workloads.build(workload, seed).run()) for seed in range(count)
        }
        for workload in (entry["name"] for entry in benchmark["workloads"])
    }
    payload = {"environment": environment_key(collect_manifest().to_dict()), "digests": digests}
    DIGESTS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"recorded {count} seeds per workload in {DIGESTS_PATH.relative_to(ROOT)}")
    return 0


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-digests",
        type=int,
        metavar="N",
        help="record the expected output digests of seeds 0..N-1 and exit",
    )
    args = parser.parse_args(argv)
    if args.record_digests is None and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    try:
        benchmark = declared_benchmark()
        args = parse_args(argv, [entry["name"] for entry in benchmark["workloads"]])
        if args.record_digests is not None:
            return record_digests(args.record_digests, benchmark)
        if args.workload == "all":
            return run_all(args, benchmark)
        return run_workload(args, benchmark)
    except SetupError as error:
        print(f"cdrbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
