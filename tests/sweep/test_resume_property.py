"""Resumed ≡ uninterrupted, at generated interruption points.

A crash can tear any journal file (the checkpoint or its ``.audit`` /
``.progress`` sidecar) at any byte past its header.  Whatever the tear,
a resume must return the values of an uninterrupted run, a second resume
must restore every point, and the watch CLI must count exactly the
points a resume restores.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep.resilient import map_tasks_resilient
from repro.telemetry.watch import collect_status


def _draw(task, rng):
    return float(task) + float(rng.uniform())


def _restored(result) -> int:
    return sum(audit.mode == "checkpoint" for audit in result.audit)


@settings(max_examples=60, deadline=None)
@given(
    n_tasks=st.integers(min_value=1, max_value=12),
    chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    torn=st.sampled_from(["", ".audit", ".progress"]),
    permille=st.integers(min_value=0, max_value=1000),
)
def test_resume_after_a_tear_matches_the_uninterrupted_run(n_tasks, chunk_size, torn, permille):
    tasks = list(range(n_tasks))
    children = np.random.SeedSequence(5).spawn(n_tasks)
    reference = [_draw(task, np.random.default_rng(child)) for task, child in zip(tasks, children)]

    def run(checkpoint):
        return map_tasks_resilient(
            _draw, tasks, seed=5, workers=1, chunk_size=chunk_size, checkpoint=checkpoint
        )

    with tempfile.TemporaryDirectory() as scratch:
        checkpoint = Path(scratch) / "sweep.jsonl"
        assert run(checkpoint).values == reference

        victim = Path(str(checkpoint) + torn)
        content = victim.read_bytes()
        # The tear lands *permille* of the way through the body.  (Progress
        # timing floats vary in length, so an absolute offset would not be
        # reproducible from one example run to the next.)
        header_end = content.index(b"\n") + 1
        victim.write_bytes(content[: header_end + (len(content) - header_end) * permille // 1000])

        durable = collect_status(checkpoint)["durable"]["points"]
        resumed = run(checkpoint)
        assert resumed.values == reference
        assert _restored(resumed) == durable

        again = run(checkpoint)
        assert again.values == reference
        assert _restored(again) == n_tasks
        status = collect_status(checkpoint)
        assert status["durable"]["points"] == n_tasks
        assert not any(status["torn_tails"].values())
