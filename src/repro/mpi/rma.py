"""One-sided communication: MPI-3 RMA windows (Section II-B).

A window exposes a per-rank NumPy buffer for remote put/get without target
participation — the "better support for one-sided and global-address-space
models" the paper credits to MPI-3.  Puts and gets ride the RDMA fabric
directly; synchronisation is via :meth:`Window.fence` (active target) or
:meth:`Window.lock`/:meth:`Window.unlock` (passive target).  Each put and
get is a ``mem.write``/``mem.read`` access of its element range of the
target's window (``mpi.win{ctx}.{epoch}@rank{r}``) for the race checker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import MPIError
from repro.sim.engine import current_process
from repro.sim.sync import SimLock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.comm import Communicator


class Window:
    """An RMA window over one communicator (``MPI_Win_create``)."""

    def __init__(self, comm: "Communicator", name: str,
                 buffers: dict[int, np.ndarray],
                 locks: dict[int, SimLock]) -> None:
        self.comm = comm
        #: the window's location prefix in the race checker's accesses
        self._name = name
        #: rank -> exposed buffer (shared registry — real memory, not copies)
        self._buffers = buffers
        #: rank -> SimLock; shared across the per-rank Window objects
        self._locks = locks

    @classmethod
    def create(cls, comm: "Communicator", buffer: np.ndarray | None) -> "Window":
        """Collective window creation (``MPI_Win_create``): every rank exposes
        its buffer into a registry shared by all ranks' window handles, so a
        remote put mutates the *actual* target memory."""
        epoch = comm.env.epoch("win", comm.ctx, comm.size)
        buffers, locks = comm.env.windows.setdefault((comm.ctx, epoch),
                                                     ({}, {}))
        buffers[comm.rank] = buffer if buffer is not None else np.empty(0)
        comm.barrier()  # window is usable only once all ranks registered
        return cls(comm, f"mpi.win{comm.ctx}.{epoch}", buffers, locks)

    def buffer(self, rank: int | None = None) -> np.ndarray:
        """The exposed buffer of ``rank`` (defaults to the calling rank)."""
        rank = self.comm.rank if rank is None else rank
        return self._buffers[rank]

    # -- data movement ------------------------------------------------------------

    def put(self, data: np.ndarray, target_rank: int, target_offset: int = 0) -> None:
        """``MPI_Put``: write ``data`` into the target's window buffer."""
        proc = current_process()
        env = self.comm.env
        proc.compute(env.costs.shmem_rma_overhead)
        target = self._buffers[target_rank]
        if target_offset + data.size > target.size:
            raise MPIError(
                f"put of {data.size} items at offset {target_offset} "
                f"overflows window of {target.size}"
            )
        env.cluster.network.transmit(
            proc,
            env.fabric,
            env.node_of_rank(self.comm.world_rank(self.comm.rank)),
            env.node_of_rank(self.comm.world_rank(target_rank)),
            data.nbytes,
            label=f"rma.put->{target_rank}",
        )
        env.cluster.trace.access(
            proc, "write", f"{self._name}@rank{target_rank}",
            start=target_offset, stop=target_offset + data.size)
        target[target_offset : target_offset + data.size] = data

    def get(self, target_rank: int, offset: int = 0, count: int | None = None) -> np.ndarray:
        """``MPI_Get``: read from the target's window buffer into a private
        array — the caller may scribble on it, the window never sees that."""
        proc = current_process()
        env = self.comm.env
        proc.compute(env.costs.shmem_rma_overhead)
        source = self._buffers[target_rank]
        count = source.size - offset if count is None else count
        if offset + count > source.size:
            raise MPIError(
                f"get of {count} items at offset {offset} "
                f"overflows window of {source.size}"
            )
        view = source[offset : offset + count]
        env.cluster.network.transmit(
            proc,
            env.fabric,
            env.node_of_rank(self.comm.world_rank(target_rank)),
            env.node_of_rank(self.comm.world_rank(self.comm.rank)),
            view.nbytes,
            label=f"rma.get<-{target_rank}",
        )
        env.cluster.trace.access(
            proc, "read", f"{self._name}@rank{target_rank}",
            start=offset, stop=offset + count)
        return view.copy()

    # -- synchronisation ------------------------------------------------------------

    def fence(self) -> None:
        """``MPI_Win_fence``: active-target epoch boundary (a barrier)."""
        self.comm.barrier()

    def lock(self, rank: int) -> None:
        """``MPI_Win_lock(EXCLUSIVE)`` on ``rank``'s window."""
        self._locks.setdefault(rank, SimLock(f"rma.win[{rank}]")).acquire(
            current_process()
        )

    def unlock(self, rank: int) -> None:
        """``MPI_Win_unlock``: release and hand to the next waiter."""
        lock = self._locks.get(rank)
        if lock is None:
            raise MPIError(f"unlock without holding the lock on window of {rank}")
        lock.release(current_process())
