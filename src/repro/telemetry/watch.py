"""Offline/live status viewer for resilient-sweep sidecar files.

``python -m repro.telemetry.watch <checkpoint>`` reads the checkpoint
and its ``.progress`` / ``.audit`` sidecars (written by
:func:`repro.sweep.resilient.map_tasks_resilient`) and renders a status
report: run state, completion, failure / retry / restore counts,
throughput and ETA, pool-health transitions, provenance from the
embedded :class:`~repro.telemetry.manifest.RunManifest`, and — when a
trace file is supplied — the per-stage time breakdown.  ``--follow``
re-renders every ``--interval`` seconds until the run writes its ``end``
record.

The module is deliberately **numpy-free**: it reads the journal files
through :func:`repro._jsonio.read_journal` (guarded numpy import; the
same torn-tail-tolerant reader and file table the writer uses) and
renders through the dependency-free :mod:`repro.reporting` tables, so an
operator can watch a sweep from an environment that cannot import the
simulation stack — the CI lint job smoke-tests exactly that.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from .._jsonio import JOURNAL_FILES, dumps_strict, journal_path, read_journal
from ..reporting.tables import TextTable

__all__ = [
    "collect_status",
    "render_status",
    "main",
]


def collect_status(checkpoint: str | Path) -> dict:
    """Assemble the JSON-safe status dict of one checkpointed run.

    Reads ``<checkpoint>``, ``<checkpoint>.progress`` and
    ``<checkpoint>.audit``; each file is optional (the report states
    which were present).  Progress counts come from the latest run's
    events (a resumed run appends a fresh ``start`` record); durable
    point/failure counts come from the checkpoint itself.
    """
    journals = {name: read_journal(journal_path(checkpoint, name), name) for name in JOURNAL_FILES}
    cp_records = journals["checkpoint"].records[1:]
    pg_records = journals["progress"].records[1:]
    au_records = journals["audit"].records[1:]
    present = {name: bool(journal.records) for name, journal in journals.items()}
    if not (present["checkpoint"] or present["progress"]):
        raise FileNotFoundError(
            f"neither {checkpoint} nor {journal_path(checkpoint, 'progress')} exists "
            "(or both are empty)"
        )

    header = journals["progress" if present["progress"] else "checkpoint"].records[0]
    status: dict = {
        "checkpoint": str(checkpoint),
        "key": header.get("key"),
        "n_tasks": header.get("n_tasks"),
        "seed": header.get("seed"),
        "manifest": header.get("manifest"),
        "files": present,
        "torn_tails": {name: journal.torn is not None for name, journal in journals.items()},
    }

    # Durable truth from the checkpoint body: last record per index wins
    # (a point re-run after a failure supersedes the failure record).
    durable: dict[int, str] = {}
    for record in cp_records:
        if record.get("kind") in ("point", "failure"):
            durable[int(record["index"])] = record["kind"]
    status["durable"] = {
        "points": sum(1 for kind in durable.values() if kind == "point"),
        "failures": sum(1 for kind in durable.values() if kind == "failure"),
    }

    # Latest run = everything after the last "start" progress event.
    run: dict = {"state": "unknown", "events": 0}
    if present["progress"]:
        last_start = 0
        for position, record in enumerate(pg_records):
            if record.get("kind") == "start":
                last_start = position
        events = pg_records[last_start:]
        run["events"] = len(events)
        run["pool_transitions"] = [
            record["transition"] for record in events if record.get("kind") == "pool"
        ]
        last = events[-1] if events else None
        if last is not None:
            for name in ("done", "failed", "restored", "retries", "pending"):
                if name in last:
                    run[name] = last[name]
            run["timing"] = last.get("timing")
        ended = any(record.get("kind") == "end" for record in events)
        run["state"] = "completed" if ended else "in-progress"
        chunk_ends = [record for record in events if record.get("kind") == "chunk-end"]
        starts = [record for record in events if record.get("kind") == "start"]
        run["chunks_done"] = len(chunk_ends)
        run["chunks_planned"] = starts[-1].get("chunks") if starts else None
    status["run"] = run

    # Execution-mode counts from the audit sidecar (last write per index wins).
    if present["audit"]:
        modes: dict[int, str] = {}
        for record in au_records:
            if record.get("kind") == "audit":
                modes[int(record["index"])] = str(record["mode"])
        by_mode: dict[str, int] = {}
        for mode in modes.values():
            by_mode[mode] = by_mode.get(mode, 0) + 1
        status["modes"] = {mode: by_mode[mode] for mode in sorted(by_mode)}

    n_tasks = status["n_tasks"]
    processed = None
    if "done" in run:
        processed = run.get("restored", 0) + run["done"] + run.get("failed", 0)
    elif present["checkpoint"]:
        processed = status["durable"]["points"] + status["durable"]["failures"]
    if processed is not None and n_tasks:
        status["completion"] = processed / n_tasks
    return status


def _format_seconds(value) -> str:
    if value is None:
        return "-"
    return f"{float(value):.1f}s"


def render_status(status: dict, trace: str | Path | None = None) -> str:
    """Render :func:`collect_status` output as aligned text tables."""
    parts = [f"sweep watch: {status['checkpoint']}", ""]

    run = status.get("run", {})
    timing = run.get("timing") or {}
    table = TextTable(headers=["field", "value"], title="run status")
    table.add_row("state", run.get("state", "unknown"))
    if status.get("n_tasks") is not None:
        table.add_row("tasks", status["n_tasks"])
    if "completion" in status:
        table.add_row("completion", f"{status['completion']:.1%}")
    for name in ("done", "failed", "restored", "retries", "pending"):
        if name in run:
            table.add_row(name, run[name])
    if run.get("chunks_planned") is not None:
        table.add_row("chunks", f"{run.get('chunks_done', 0)}/{run['chunks_planned']}")
    if timing:
        table.add_row("elapsed", _format_seconds(timing.get("elapsed_s")))
        throughput = timing.get("throughput_pts_per_s")
        table.add_row("throughput", f"{throughput:.2f} pts/s" if throughput else "-")
        table.add_row("eta", _format_seconds(timing.get("eta_s")))
    if run.get("pool_transitions"):
        table.add_row("pool", ", ".join(run["pool_transitions"]))
    durable = status.get("durable", {})
    if status["files"]["checkpoint"]:
        table.add_row("durable points", durable.get("points", 0))
        table.add_row("durable failures", durable.get("failures", 0))
    torn = [name for name, flag in status["torn_tails"].items() if flag]
    if torn:
        table.add_row("torn tails", ", ".join(sorted(torn)))
    parts.append(table.render())

    if status.get("modes"):
        table = TextTable(headers=["mode", "tasks"], title="execution modes")
        for mode, count in status["modes"].items():
            table.add_row(mode, count)
        parts.append(table.render())

    manifest = status.get("manifest")
    if manifest:
        table = TextTable(headers=["field", "value"], title="provenance")
        for name in ("backend", "kernel_tier", "python", "numpy", "numba", "platform", "seed"):
            if manifest.get(name) is not None:
                table.add_row(name, manifest[name])
        parts.append(table.render())

    if trace is not None and Path(trace).exists():
        # Deferred so the sidecar-only path never imports the report module.
        from .report import load_trace, stage_table

        parts.append(stage_table(load_trace(Path(trace))).render())

    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: one-shot (default) or ``--follow`` status rendering."""
    parser = argparse.ArgumentParser(
        description="Watch a resilient sweep via its checkpoint sidecar files."
    )
    parser.add_argument("checkpoint", help="checkpoint path (sidecars are derived from it)")
    parser.add_argument(
        "--trace", default=None, help="optional telemetry trace for a stage breakdown"
    )
    parser.add_argument(
        "--follow", action="store_true", help="re-render until the run completes"
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, help="--follow refresh period in seconds"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    arguments = parser.parse_args(argv)

    try:
        while True:
            try:
                status = collect_status(arguments.checkpoint)
            except (FileNotFoundError, ValueError) as exc:
                print(f"watch: {exc}")
                return 1
            if arguments.format == "json":
                print(dumps_strict(status, sort_keys=True))
            else:
                print(render_status(status, trace=arguments.trace))
            if not arguments.follow or status.get("run", {}).get("state") == "completed":
                return 0
            time.sleep(arguments.interval)
    except BrokenPipeError:
        # Status output is routinely piped (`watch ... | head`); a closed
        # reader ends the watch, it is not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
