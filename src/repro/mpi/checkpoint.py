"""Coordinated checkpoint/restart for MPI jobs — the paper's future work.

Section VI-D: "most distributed frameworks (such as MPI) use different
checkpointing/restarting algorithms to handle faults", and the conclusion
proposes "applying fault tolerance and I/O handling from Spark to HPC
models".  This extension provides the classic coordinated-checkpoint
mitigation so its cost can be compared against Spark's lineage recovery
(see ``ablation-faults``):

* :class:`CheckpointStore` — host-side storage that survives job restarts
  (stands in for a parallel filesystem's persistence);
* :class:`CheckpointManager` — per-rank save/restore with barrier
  coordination and honest I/O costs;
* :func:`run_with_restart` — runs an MPI job, restarting it from the last
  checkpoint when a rank fails, and accounts the *total* virtual time
  across attempts (the price of having no partial recovery).

Inject failures by raising :class:`SimulatedRankFailure` from application
code (typically gated on attempt number, as in the tests).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.cluster import Cluster
from repro.errors import MPIError, SimProcessError
from repro.mpi.runtime import MPIResult, mpi_run
from repro.sim.engine import current_process


class SimulatedRankFailure(MPIError):
    """Raised by application code to emulate a rank crash."""


class CheckpointStore:
    """Checkpoint bytes that outlive a job (per rank, per step).

    One store is shared across restart attempts; the simulated write/read
    costs are charged by the :class:`CheckpointManager`, the store itself
    only keeps the payloads (serialised defensively so a restarted job
    cannot alias a dead job's live objects).
    """

    def __init__(self) -> None:
        self._data: dict[tuple[int, int], bytes] = {}
        self._latest_step: int | None = None

    def put(self, step: int, rank: int, state: Any) -> int:
        blob = pickle.dumps(state)
        self._data[(step, rank)] = blob
        return len(blob)

    def commit(self, step: int) -> None:
        self._latest_step = step

    def get(self, step: int, rank: int) -> Any:
        return pickle.loads(self._data[(step, rank)])

    @property
    def latest_step(self) -> int | None:
        """Most recent *committed* checkpoint step."""
        return self._latest_step

    def nbytes(self, step: int, rank: int) -> int:
        return len(self._data[(step, rank)])


class CheckpointManager:
    """Rank-side API: ``save`` at iteration boundaries, ``restore`` at start.

    ``save`` is collective: all ranks write their state to node-local
    scratch (charged at SSD write bandwidth) and the checkpoint commits at
    a barrier — a straggler delays everyone, which is exactly the cost
    profile that makes checkpointing expensive at scale.
    """

    def __init__(self, comm, store: CheckpointStore) -> None:
        self.comm = comm
        self.store = store

    def save(self, step: int, state: Any) -> None:
        """Collectively persist this rank's ``state`` for iteration ``step``."""
        proc = current_process()
        nbytes = self.store.put(step, self.comm.rank, state)
        node = self.comm.env.cluster.node_of(proc)
        node.ssd.write(proc, nbytes, label=f"ckpt:{step}")
        self.comm.barrier()
        if self.comm.rank == 0:
            self.store.commit(step)
        self.comm.barrier()

    def restore(self) -> tuple[int, Any] | None:
        """Latest committed state for this rank, charging the read."""
        step = self.store.latest_step
        if step is None:
            return None
        proc = current_process()
        nbytes = self.store.nbytes(step, self.comm.rank)
        node = self.comm.env.cluster.node_of(proc)
        node.ssd.read(proc, nbytes, label=f"ckpt:{step}")
        return step, self.store.get(step, self.comm.rank)


@dataclass
class RestartResult:
    """Outcome of a checkpoint/restart job."""

    result: MPIResult
    attempts: int
    #: total virtual time summed over all attempts (restarts pay in full)
    total_elapsed: float
    #: per-attempt elapsed times
    attempt_times: list[float] = field(default_factory=list)


def run_with_restart(
    make_cluster: Callable[[], Cluster],
    fn: Callable[..., Any],
    nprocs: int,
    *,
    procs_per_node: int | None = None,
    max_restarts: int = 3,
    store: CheckpointStore | None = None,
) -> RestartResult:
    """Run ``fn(comm, ckpt)`` with restart-from-checkpoint on rank failure.

    ``make_cluster`` must build a fresh cluster per attempt (a simulated
    cluster's virtual clock is monotonic, so a "restarted" job is a new
    allocation); the :class:`CheckpointStore` carries state across.  Raises
    the last failure if ``max_restarts`` is exhausted.
    """
    store = store if store is not None else CheckpointStore()
    attempt_times: list[float] = []
    last_exc: BaseException | None = None
    for attempt in range(max_restarts + 1):
        cluster = make_cluster()

        def rank_main(comm):
            from repro.mpi.checkpoint import CheckpointManager

            return fn(comm, CheckpointManager(comm, store))

        try:
            result = mpi_run(cluster, rank_main, nprocs,
                             procs_per_node=procs_per_node)
            return RestartResult(
                result=result,
                attempts=attempt + 1,
                total_elapsed=sum(attempt_times) + result.elapsed,
                attempt_times=attempt_times + [result.elapsed],
            )
        except SimProcessError as exc:
            if not isinstance(exc.__cause__, SimulatedRankFailure):
                raise
            attempt_times.append(cluster.engine.makespan())
            last_exc = exc
    raise MPIError(
        f"job failed {max_restarts + 1} times; giving up"
    ) from last_exc
