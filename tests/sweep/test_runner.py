"""Seeding contract and exception boundaries of the sweep runner.

The runner is :func:`repro.sweep.resilient.map_tasks_resilient`; its
isolation, checkpoint and pool-robustness behaviour is covered in
``test_resilient.py``.
"""

import pytest

from repro.sweep.resilient import map_tasks_resilient


def _draw(task, rng):
    """Module-level worker (picklable): task value plus a seeded draw."""
    return float(task) + float(rng.uniform())


def _structured(task, rng):
    return {"task": task, "draws": rng.normal(size=3).tolist()}


def _values(worker, tasks, seed, workers):
    return map_tasks_resilient(worker, tasks, seed=seed, workers=workers).values


class TestDeterminism:
    def test_results_in_task_order(self):
        results = _values(_draw, [10.0, 20.0, 30.0], seed=1, workers=1)
        assert [int(r) for r in results] == [10, 20, 30]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_same_seed_same_results_regardless_of_worker_count(self, workers):
        serial = _values(_draw, list(range(8)), seed=42, workers=1)
        pooled = _values(_draw, list(range(8)), seed=42, workers=workers)
        assert serial == pooled

    def test_different_seeds_differ(self):
        a = _values(_draw, list(range(4)), seed=1, workers=1)
        b = _values(_draw, list(range(4)), seed=2, workers=1)
        assert a != b

    def test_task_streams_are_independent(self):
        """Each task's stream depends only on (seed, index), not on others."""
        full = _values(_structured, ["a", "b", "c"], seed=7, workers=1)
        # Same seed, same index => same draws even with different task values.
        other = _values(_structured, ["x", "y", "z"], seed=7, workers=1)
        for first, second in zip(full, other):
            assert first["draws"] == second["draws"]

    def test_empty_tasks(self):
        assert _values(_draw, [], seed=0, workers=4) == []


def _raise_os_error(task, rng):
    raise OSError(f"worker-level failure for task {task!r}")


_CALLS = []


def _counting_raiser(task, rng):
    _CALLS.append(task)
    raise ValueError(f"bad task {task!r}")


class TestExceptionBoundaries:
    """Pool-layer failures fall back to serial; worker bugs must not."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_exception_propagates_unchanged(self, workers):
        # A worker-raised OSError is the task's failure, not a refused spawn:
        # it is recorded with its type and message, where it ran.
        result = map_tasks_resilient(_raise_os_error, [0, 1], seed=0, workers=workers)
        assert [failure.exception_type for failure in result.failures] == ["OSError"] * 2
        assert "worker-level failure for task 0" in result.failures[0].message
        assert {audit.mode for audit in result.audit} == {"pool" if workers > 1 else "serial"}

    def test_worker_exception_is_not_retried_serially(self):
        """Regression: a worker-raised error used to trigger a serial re-run."""
        _CALLS.clear()
        result = map_tasks_resilient(_counting_raiser, [0], seed=0, workers=1)
        assert result.failures[0].exception_type == "ValueError"
        assert _CALLS == [0]

    def test_pool_spawn_failure_falls_back_to_serial(self, monkeypatch):
        import repro.sweep.resilient as resilient

        class NoSpawn:
            def __init__(self, *args, **kwargs):
                raise PermissionError("process spawning disabled")

        monkeypatch.setattr(resilient, "ProcessPoolExecutor", NoSpawn)
        serial = _values(_draw, list(range(6)), seed=42, workers=1)
        assert _values(_draw, list(range(6)), seed=42, workers=4) == serial
