"""Checkpoint/restart extension (the paper's future-work direction)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import COMET_MACHINE, Cluster
from repro.errors import MPIError
from repro.mpi.checkpoint import (
    CheckpointStore,
    RestartResult,
    SimulatedRankFailure,
    run_with_restart,
)


def make_cluster():
    return Cluster(COMET_MACHINE.with_nodes(2))


def iterative_job(total_steps: int, fail_plan: dict[int, int] | None = None):
    """An iterative kernel that checkpoints every step.

    ``fail_plan`` maps attempt-number -> step at which rank 1 crashes.
    Uses the store itself to count attempts (no global state).
    """
    attempts = {"n": 0}

    def body(comm, ckpt):
        if comm.rank == 0:
            attempts["n"] += 1
        restored = ckpt.restore()
        step0, acc = (restored[0] + 1, restored[1]) if restored else (0, 0.0)
        for step in range(step0, total_steps):
            acc += comm.allreduce(float(comm.rank + step))
            if fail_plan and fail_plan.get(attempts["n"]) == step and comm.rank == 1:
                raise SimulatedRankFailure(f"rank 1 died at step {step}")
            ckpt.save(step, acc)
        return acc

    return body, attempts


def expected_value(total_steps: int, nprocs: int) -> float:
    acc = 0.0
    for step in range(total_steps):
        acc += sum(r + step for r in range(nprocs))
    return acc


class TestCheckpointStore:
    def test_roundtrip_is_a_copy(self):
        store = CheckpointStore()
        state = np.array([1.0, 2.0])
        store.put(0, 0, state)
        state[:] = -1
        np.testing.assert_allclose(store.get(0, 0), [1.0, 2.0])

    def test_latest_step_tracks_commits(self):
        store = CheckpointStore()
        assert store.latest_step is None
        store.put(3, 0, "x")
        store.commit(3)
        assert store.latest_step == 3


class TestRunWithRestart:
    def test_clean_run_single_attempt(self):
        body, _ = iterative_job(5)
        res = run_with_restart(make_cluster, body, 4, procs_per_node=2)
        assert isinstance(res, RestartResult)
        assert res.attempts == 1
        assert res.result.returns[0] == expected_value(5, 4)

    def test_failure_restarts_from_checkpoint(self):
        body, attempts = iterative_job(6, fail_plan={1: 3})
        res = run_with_restart(make_cluster, body, 4, procs_per_node=2)
        assert res.attempts == 2
        assert attempts["n"] == 2
        # the answer is still exact: steps 0-2 restored, 3-5 re-run
        assert res.result.returns[0] == expected_value(6, 4)

    def test_total_time_includes_lost_attempts(self):
        body, _ = iterative_job(6, fail_plan={1: 3})
        faulted = run_with_restart(make_cluster, body, 4, procs_per_node=2)
        body2, _ = iterative_job(6)
        clean = run_with_restart(make_cluster, body2, 4, procs_per_node=2)
        assert faulted.total_elapsed > clean.total_elapsed
        assert len(faulted.attempt_times) == 2

    def test_repeated_failures_eventually_abort(self):
        body, _ = iterative_job(6, fail_plan={1: 2, 2: 2, 3: 2})
        with pytest.raises(MPIError):
            run_with_restart(make_cluster, body, 4, procs_per_node=2,
                             max_restarts=2)

    def test_checkpoint_interval_tradeoff(self):
        """Checkpoint every step vs every third step: the sparse variant is
        cheaper when clean but loses more work per failure."""

        def job(stride: int, fail_plan=None):
            attempts = {"n": 0}

            def body(comm, ckpt):
                from repro.sim import current_process

                if comm.rank == 0:
                    attempts["n"] += 1
                restored = ckpt.restore()
                step0, acc = (restored[0] + 1, restored[1]) if restored else (0, 0.0)
                for step in range(step0, 9):
                    current_process().compute(0.01)  # real per-step work
                    acc += comm.allreduce(float(comm.rank + step))
                    if (fail_plan and fail_plan.get(attempts["n"]) == step
                            and comm.rank == 1):
                        raise SimulatedRankFailure("boom")
                    if step % stride == stride - 1:
                        ckpt.save(step, acc)
                return acc

            return body

        dense = run_with_restart(make_cluster, job(1), 4, procs_per_node=2)
        sparse = run_with_restart(make_cluster, job(3), 4, procs_per_node=2)
        assert sparse.total_elapsed < dense.total_elapsed  # fewer barriers+writes
        dense_f = run_with_restart(make_cluster, job(1, {1: 7}), 4,
                                   procs_per_node=2)
        sparse_f = run_with_restart(make_cluster, job(3, {1: 7}), 4,
                                    procs_per_node=2)
        # both recover correctly...
        assert dense_f.result.returns[0] == sparse_f.result.returns[0]
        # ...but the sparse one re-executes more lost steps
        assert (sparse_f.attempt_times[-1] > dense_f.attempt_times[-1])

    def test_store_can_be_shared_explicitly(self):
        store = CheckpointStore()
        body, _ = iterative_job(4)
        res = run_with_restart(make_cluster, body, 2, procs_per_node=1,
                               store=store)
        assert res.result.returns[0] == expected_value(4, 2)
        assert store.latest_step == 3
