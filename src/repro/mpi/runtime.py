"""Job launch and shared state of the MPI runtime."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError, MPICommError
from repro.sim.engine import current_process
from repro.sim.process import SimProcess
from repro.sim.sync import Mailbox


class MPIEnv:
    """Shared runtime state of one MPI job (one per ``mpi_run``)."""

    def __init__(
        self,
        cluster: Cluster,
        nprocs: int,
        placement: Sequence[int],
    ) -> None:
        self.cluster = cluster
        self.nprocs = nprocs
        self.placement = list(placement)
        self.fabric = cluster.machine.hpc_fabric
        self.costs = cluster.machine.costs
        self._ctx_counter = itertools.count()
        self._msg_counter = itertools.count()
        #: (collective, ctx) -> how many rank entries it has counted
        self._calls: dict[tuple[str, int], int] = {}
        #: (ctx, epoch) -> an RMA window's (rank -> buffer, rank -> SimLock)
        self.windows: dict[tuple[int, int], tuple[dict, dict]] = {}
        self._derived_ctx: dict[tuple[int, int, int], int] = {}
        self._mailboxes: dict[tuple[int, int], Mailbox] = {}
        #: world rank of each simulated process (filled at spawn)
        self.rank_of_proc: dict[int, int] = {}
        self.procs: list[SimProcess] = []

    def new_context(self) -> int:
        """Fresh communicator context id (message-matching namespace)."""
        return next(self._ctx_counter)

    # -- comm-split / window-create bookkeeping --------------------------------

    def epoch(self, collective: str, ctx: int, size: int) -> int:
        """Count one rank's entry into ``collective`` (``"split"``,
        ``"win"``) on ``ctx``; returns the call's epoch.  Counted before
        the call synchronises, every rank has counted it before any
        reaches the next, so ``calls // size`` is stable across ranks."""
        key = (collective, ctx)
        calls = self._calls[key] = self._calls.get(key, 0) + 1
        return (calls - 1) // size

    def derived_context(self, parent_ctx: int, epoch: int, color_idx: int) -> int:
        """Deterministic shared context id for a split's colour group."""
        key = (parent_ctx, epoch, color_idx)
        ctx = self._derived_ctx.get(key)
        if ctx is None:
            ctx = self.new_context()
            self._derived_ctx[key] = ctx
        return ctx

    def new_msg_id(self) -> int:
        return next(self._msg_counter)

    def mailbox(self, ctx: int, world_rank: int) -> Mailbox:
        key = (ctx, world_rank)
        box = self._mailboxes.get(key)
        if box is None:
            box = Mailbox(f"mpi[ctx={ctx},rank={world_rank}]")
            self._mailboxes[key] = box
        return box

    def my_world_rank(self) -> int:
        proc = current_process()
        try:
            return self.rank_of_proc[proc.pid]
        except KeyError:
            raise MPICommError(
                f"process {proc.name!r} is not part of this MPI job"
            ) from None

    def node_of_rank(self, world_rank: int) -> int:
        return self.placement[world_rank]


@dataclass
class MPIResult:
    """Outcome of one MPI job."""

    #: per-rank return values of the user function
    returns: list[Any]
    #: virtual job duration (mpirun start to last rank exit), seconds
    elapsed: float
    #: per-rank exit times
    rank_clocks: list[float]


def mpi_run(
    cluster: Cluster,
    fn: Callable[..., Any],
    nprocs: int,
    *,
    procs_per_node: int | None = None,
    args: tuple = (),
    charge_launch: bool = True,
) -> MPIResult:
    """Launch ``fn(comm, *args)`` as an SPMD job of ``nprocs`` ranks.

    Ranks are block-placed: rank ``r`` runs on node ``r // procs_per_node``
    (``procs_per_node`` defaults to spreading ranks evenly over the whole
    cluster).  The call owns the cluster's engine: it spawns the ranks, runs
    the simulation to completion and returns timings — so one
    :class:`~repro.cluster.Cluster` instance hosts one job at a time, like a
    dedicated allocation.

    Set ``charge_launch=False`` to skip mpirun/MPI_Init costs (used by
    microbenchmarks that, like OSU's, time only the measured loop).
    Fabric and cost constants come from the cluster's machine
    (``cluster.machine.hpc_fabric`` / ``.costs``).
    """
    if nprocs < 1:
        raise ConfigurationError("nprocs must be >= 1")
    if procs_per_node is None:
        procs_per_node = -(-nprocs // len(cluster.nodes))
    placement = cluster.placement(nprocs, procs_per_node)
    env = MPIEnv(cluster, nprocs, placement)
    costs = env.costs

    from repro.mpi.comm import Communicator  # late import: comm builds on env

    world = Communicator(env, env.new_context(), list(range(nprocs)))

    def rank_main(rank: int) -> Any:
        proc = current_process()
        env.rank_of_proc[proc.pid] = rank
        if charge_launch:
            proc.compute(costs.mpi_launch + nprocs * costs.mpi_init_per_proc)
            world.barrier()  # MPI_Init wireup synchronisation
        return fn(world, *args)

    env.procs = cluster.spawn_spmd(rank_main, placement, runtime="MPI",
                                   name="mpi:rank")
    elapsed = cluster.run()
    return MPIResult(
        returns=[p.result for p in env.procs],
        elapsed=elapsed,
        rank_clocks=[p.clock for p in env.procs],
    )
