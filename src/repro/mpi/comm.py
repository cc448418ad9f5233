"""The user-facing communicator (mpi4py-flavoured API)."""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import MPICommError
from repro.mpi import collectives, p2p
from repro.mpi.datatypes import ReduceOp, SUM
from repro.mpi.runtime import MPIEnv
from repro.sim.engine import current_process

#: wildcard constants (mpi4py uses objects; ``None`` reads naturally here)
ANY_SOURCE = None
ANY_TAG = None


class Communicator:
    """A communication context over an ordered group of world ranks.

    ``MPI_COMM_WORLD`` is created by :func:`repro.mpi.mpi_run`; further
    communicators come from :meth:`split` (``MPI_Comm_split``).  All methods
    must be called from inside a simulated rank process; the calling rank is
    inferred the way a real MPI library does from its process context.
    """

    def __init__(self, env: MPIEnv, ctx: int, world_ranks: Sequence[int]) -> None:
        self.env = env
        self.ctx = ctx
        self._world_ranks = list(world_ranks)
        self._local_of_world = {w: i for i, w in enumerate(self._world_ranks)}

    # -- identity ---------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        return len(self._world_ranks)

    @property
    def rank(self) -> int:
        """Local rank of the calling process."""
        world = self.env.my_world_rank()
        try:
            return self._local_of_world[world]
        except KeyError:
            raise MPICommError(
                f"world rank {world} is not a member of this communicator"
            ) from None

    def world_rank(self, local: int) -> int:
        """Translate a local rank to a world rank."""
        if not 0 <= local < self.size:
            raise MPICommError(f"rank {local} out of range 0..{self.size - 1}")
        return self._world_ranks[local]

    def wtime(self) -> float:
        """Virtual time on this rank (``MPI_Wtime``)."""
        return current_process().clock

    # -- point-to-point ---------------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking send (eager or rendezvous by size)."""
        self._check_tag(tag)
        p2p.send(self, self.rank, dest, obj, tag)

    def recv(self, source: int | None = ANY_SOURCE, tag: int | None = ANY_TAG) -> Any:
        """Blocking receive; returns the payload."""
        payload, _src, _tag = self.recv_status(source, tag)
        return payload

    def recv_status(
        self, source: int | None = ANY_SOURCE, tag: int | None = ANY_TAG
    ) -> tuple[Any, int, int]:
        """Blocking receive returning ``(payload, source, tag)``."""
        if tag is not None:
            self._check_tag(tag)
        payload, src, t = p2p.recv(self, self.rank, source, tag)
        return payload, src, t

    def isend(self, obj: Any, dest: int, tag: int = 0) -> p2p.Request:
        """Non-blocking send; ``Request.wait()`` completes it."""
        self._check_tag(tag)
        return p2p.isend(self, self.rank, dest, obj, tag)

    def irecv(self, source: int | None = ANY_SOURCE, tag: int | None = ANY_TAG) -> p2p.Request:
        """Non-blocking receive; ``Request.wait()`` returns the payload."""
        if tag is not None:
            self._check_tag(tag)
        return p2p.irecv(self, self.rank, source, tag)

    def sendrecv(self, obj: Any, dest: int, source: int | None = ANY_SOURCE,
                 tag: int = 0) -> Any:
        """Paired exchange; deadlock-free even for large payloads."""
        self._check_tag(tag)
        return p2p.sendrecv(self, self.rank, dest, obj, source, tag)

    # -- collectives ----------------------------------------------------------------------

    def barrier(self) -> None:
        """``MPI_Barrier`` (dissemination algorithm)."""
        collectives.barrier(self, self.rank, self.size)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """``MPI_Bcast`` (binomial tree); returns the object everywhere."""
        return self._relocal(collectives.bcast)(obj, root)

    def reduce(self, obj: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        """``MPI_Reduce`` (binomial tree); result at ``root`` only."""
        return collectives.reduce(self, self.rank, self.size, obj, op, root)

    def allreduce(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """``MPI_Allreduce`` (recursive doubling)."""
        return collectives.allreduce(self, self.rank, self.size, obj, op)

    def gather(self, obj: Any, root: int = 0) -> list | None:
        """``MPI_Gather``; rank-ordered list at ``root``."""
        return collectives.gather(self, self.rank, self.size, obj, root)

    def scatter(self, objs: list | None, root: int = 0) -> Any:
        """``MPI_Scatter``; element ``i`` goes to rank ``i``."""
        return collectives.scatter(self, self.rank, self.size, objs, root)

    def allgather(self, obj: Any) -> list:
        """``MPI_Allgather`` (ring)."""
        return collectives.allgather(self, self.rank, self.size, obj)

    def alltoall(self, objs: list) -> list:
        """``MPI_Alltoall`` (pairwise exchange)."""
        return collectives.alltoall(self, self.rank, self.size, objs)

    def scan(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """``MPI_Scan``: inclusive prefix reduction (Hillis-Steele)."""
        return collectives.scan(self, self.rank, self.size, obj, op)

    def exscan(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """``MPI_Exscan``: exclusive prefix reduction (None at rank 0)."""
        return collectives.exscan(self, self.rank, self.size, obj, op)

    def reduce_scatter_block(self, objs: list, op: ReduceOp = SUM) -> Any:
        """``MPI_Reduce_scatter_block``: rank ``i`` receives reduced ``objs[i]``."""
        return collectives.reduce_scatter_block(self, self.rank, self.size, objs, op)

    # -- communicator management ------------------------------------------------------------

    def split(self, color: int, key: int | None = None) -> "Communicator | None":
        """``MPI_Comm_split``: one new communicator per distinct ``color``.

        Ranks passing ``color=None`` (``MPI_UNDEFINED``) receive ``None``.
        Ordering within a colour follows ``key`` (default: current rank).
        """
        me = self.rank
        key = me if key is None else key
        # counted before the allgather (see MPIEnv.epoch)
        epoch = self.env.epoch("split", self.ctx, self.size)
        triples = self.allgather((color, key, me))
        if color is None:
            return None
        members = sorted(
            (k, r) for (c, k, r) in triples if c == color
        )
        world = [self._world_ranks[r] for _, r in members]
        colors = sorted({c for (c, _, _) in triples if c is not None})
        ctx = self.env.derived_context(self.ctx, epoch, colors.index(color))
        return Communicator(self.env, ctx, world)

    # -- helpers ----------------------------------------------------------------------------------

    def _relocal(self, fn):
        """Adapt a world-rank collective to local ranks (root translation)."""
        def wrapper(obj, root):
            if not 0 <= root < self.size:
                raise MPICommError(f"root {root} out of range")
            return fn(self, self.rank, self.size, obj, root)

        return wrapper

    @staticmethod
    def _check_tag(tag: int) -> None:
        if tag < 0:
            raise MPICommError(f"user tags must be >= 0 (got {tag})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator ctx={self.ctx} size={self.size}>"
