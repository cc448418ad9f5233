"""The OpenMP team runtime: regions, barriers, reductions, critical, tasks."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError, OpenMPError
from repro.openmp.loops import ChunkDispenser, Schedule, iterate, split_static
from repro.sim.engine import current_process
from repro.sim.process import SimProcess, Steps
from repro.sim.sync import SimLock


@dataclass
class OMPResult:
    """Outcome of one parallel region."""

    #: per-thread return values of the region function
    returns: list[Any]
    #: virtual duration of the region (fork to last join), seconds
    elapsed: float


class _Team:
    """Shared state of one thread team (one parallel region)."""

    def __init__(self, cluster: Cluster, node_id: int, nthreads: int) -> None:
        self.cluster = cluster
        self.node = cluster.nodes[node_id]
        self.nthreads = nthreads
        self.costs = cluster.machine.costs
        self.locks: dict[str, SimLock] = {}
        self.tasks: deque[tuple[Callable, tuple]] = deque()
        self.dispensers: dict[int, ChunkDispenser] = {}
        self.reduce_slots: dict[int, list] = {}
        self.single_done: set[int] = set()
        # task-aware barrier state
        self.generation = 0
        self.arrived = 0
        self.max_arrival = 0.0
        self.release_time = 0.0
        self.sleepers: list = []
        #: team threads in tid order, filled by :func:`omp_run`; used by
        #: the deadlock diagnosis to name candidate wakers.
        self.procs: list = []

    def active_wakers(self, engine: Any, waiter: Any) -> list:
        """Team threads that can still release the barrier (diagnostics):
        everyone not already asleep at it."""
        return [p for p in self.procs
                if p is not waiter and not any(p is s for s in self.sleepers)]


class OMP:
    """Per-thread view of an OpenMP parallel region.

    The runtime passes one instance to each team thread; all methods charge
    the calling thread's virtual clock with the costs a real runtime incurs
    (region fork, barrier, dynamic-chunk grabs, task dispatch...).
    """

    def __init__(self, team: _Team, tid: int) -> None:
        self._team = team
        self.thread_num = tid

    # -- identity ------------------------------------------------------------------

    @property
    def num_threads(self) -> int:
        """Team size (``omp_get_num_threads``)."""
        return self._team.nthreads

    def wtime(self) -> float:
        """Virtual time (``omp_get_wtime``)."""
        return current_process().clock

    # -- cost charging ----------------------------------------------------------------

    def compute(self, seconds: float) -> None:
        """Charge CPU-bound work to this thread."""
        current_process().compute(seconds)

    def compute_bytes(self, nbytes: float, rate: float) -> None:
        """Charge CPU-bound streaming work at a fixed per-thread rate."""
        current_process().compute_bytes(nbytes, rate)

    def stream_bytes(self, nbytes: float) -> None:
        """Stream through the node's *shared* memory system (team threads
        contend for the node's memory bandwidth — what makes 16 threads
        less than 2x faster than 8 on a memory-bound scan)."""
        self._team.node.stream_bytes(current_process(), nbytes, label="omp")

    # -- worksharing --------------------------------------------------------------------

    def for_range(
        self,
        n: int,
        schedule: str | Schedule = Schedule.STATIC,
        chunk: int | None = None,
    ) -> Iterator[int]:
        """Iterations of a worksharing loop assigned to this thread.

        Equivalent to ``#pragma omp for schedule(...)`` over ``range(n)``.
        All team threads must reach every loop in the same order (the usual
        OpenMP requirement).  There is **no implied barrier** here; call
        :meth:`barrier` if the loop needs one (``nowait`` is the default
        because Python iteration makes the barrier placement explicit).
        """
        schedule = Schedule(schedule)
        if n < 0:
            raise OpenMPError(f"negative iteration count: {n}")
        if schedule is Schedule.STATIC:
            for r in split_static(n, self.num_threads, self.thread_num, chunk):
                yield from r
            return
        # dynamic/guided: one shared dispenser per loop instance
        disp = self._dispenser_for(n, schedule, chunk)
        proc = current_process()

        def charge() -> None:
            proc.compute(self._team.costs.omp_dynamic_chunk)
            proc.checkpoint()  # grabs happen in virtual-time order

        yield from iterate(disp, charge)

    def _dispenser_for(self, n: int, schedule: Schedule, chunk: int | None) -> ChunkDispenser:
        """Each thread's k-th dynamic loop shares the k-th dispenser."""
        key = getattr(self, "_loop_count", 0)
        self._loop_count = key + 1
        disp = self._team.dispensers.get(key)
        if disp is None:
            disp = ChunkDispenser(n, self.num_threads, schedule, chunk)
            self._team.dispensers[key] = disp
        elif disp.n != n or disp.schedule is not schedule:
            raise OpenMPError(
                "team threads reached different worksharing loops "
                f"(loop #{key}: n={disp.n} vs {n})"
            )
        return disp

    # -- synchronisation ---------------------------------------------------------------------

    def barrier(self) -> None:
        """``#pragma omp barrier`` — task-aware, as the spec requires.

        A thread waiting at a barrier executes queued tasks instead of
        idling; the barrier releases when every thread has arrived *and* the
        task pool is empty.  All threads leave at the same virtual time (the
        latest arrival / last task completion).  The waiting is one step
        body (:meth:`_barrier_steps`); a task it hands back runs here, on
        the thread, because a task is user code and may wait itself.
        """
        team = self._team
        proc = current_process()
        proc.compute(team.costs.omp_barrier)
        gen = team.generation
        team.arrived += 1
        team.max_arrival = max(team.max_arrival, proc.clock)
        while (task := proc.run_steps(self._barrier_steps(proc, gen))):
            fn, args = task
            proc.compute(team.costs.omp_task_overhead)
            fn(*args)
            team.max_arrival = max(team.max_arrival, proc.clock)

    def _barrier_steps(self, proc: SimProcess,
                       gen: int) -> Steps[tuple | None]:
        """Wait at barrier generation ``gen`` until a task is queued (it is
        popped and returned) or the barrier has released (``None``)."""
        team = self._team
        while True:
            yield from proc.checkpoint_steps()
            if team.generation != gen:
                break  # released while we were parked or stealing
            if team.tasks:
                return team.tasks.popleft()
            if team.arrived == team.nthreads and proc.clock >= team.max_arrival:
                # last thread (in virtual time) with an empty pool: release
                team.generation += 1
                team.arrived = 0
                team.release_time = team.max_arrival
                team.max_arrival = 0.0
                sleepers, team.sleepers = team.sleepers, []
                for w in sleepers:
                    w._wake(team.release_time)
                break
            if team.arrived == team.nthreads:
                # everyone arrived but a later arrival exists: wait for it
                yield from proc.park_until_steps(team.max_arrival,
                                                 reason="omp.barrier-exit")
                continue
            team.sleepers.append(proc)
            yield from proc.block_steps(reason="omp.barrier", obj=team,
                                        wakers=team.active_wakers)
        if team.release_time > proc.clock:
            yield from proc.park_until_steps(team.release_time,
                                             reason="omp.barrier-exit")

    def critical(self, name: str = "") -> "_Critical":
        """``#pragma omp critical [name]`` — a context manager."""
        lock = self._team.locks.setdefault(name, SimLock(f"omp.critical:{name}"))
        return _Critical(lock)

    def single(self) -> bool:
        """``#pragma omp single nowait``: True on exactly one thread per
        encounter.  Pair with :meth:`barrier` for the non-nowait form."""
        key = getattr(self, "_single_count", 0)
        self._single_count = key + 1
        current_process().checkpoint()
        if key in self._team.single_done:
            return False
        self._team.single_done.add(key)
        return True

    def master(self) -> bool:
        """``#pragma omp master``: True on thread 0 only."""
        return self.thread_num == 0

    def sections(self, *section_fns: Callable[[], Any]) -> list[Any]:
        """``#pragma omp sections``: run each function exactly once, spread
        over the team; returns the results (in section order) on every
        thread after the implied barrier."""
        key = getattr(self, "_sections_count", 0)
        self._sections_count = key + 1
        slot = self._team.reduce_slots.setdefault(("sections", key), {})
        proc = current_process()
        for idx in range(self.thread_num, len(section_fns), self.num_threads):
            proc.compute(self._team.costs.omp_task_overhead)
            slot[idx] = section_fns[idx]()
        self.barrier()
        return [slot[i] for i in range(len(section_fns))]

    # -- reductions ---------------------------------------------------------------------------

    def reduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Combine ``value`` across the team; every thread gets the result.

        Models the ``reduction(...)`` clause: thread partials are combined
        at the implicit barrier.  ``op`` defaults to ``+``.
        """
        key = getattr(self, "_reduce_count", 0)
        self._reduce_count = key + 1
        slot = self._team.reduce_slots.setdefault(key, [])
        slot.append(value)
        self.barrier()
        if len(slot) != self.num_threads:
            raise OpenMPError("reduce(): some thread skipped the reduction")
        acc = slot[0]
        for v in slot[1:]:
            acc = (op or (lambda a, b: a + b))(acc, v)
        current_process().compute(
            self._team.costs.omp_barrier * max(1, self.num_threads.bit_length())
        )
        self.barrier()
        return acc

    # -- tasks -------------------------------------------------------------------------------------

    def task(self, fn: Callable, *args: Any) -> None:
        """``#pragma omp task``: defer ``fn(*args)`` to the team's task pool.

        Wakes one thread idling at a barrier so it can steal the task.
        """
        proc = current_process()
        proc.compute(self._team.costs.omp_task_overhead)
        proc.checkpoint()
        self._team.tasks.append((fn, args))
        if self._team.sleepers:
            self._team.sleepers.pop(0)._wake(proc.clock)

    def taskwait(self) -> None:
        """Execute pending tasks until the pool is empty (cooperative
        draining: every thread reaching a taskwait/barrier helps)."""
        proc = current_process()
        while True:
            proc.checkpoint()  # pops happen in virtual-time order
            if not self._team.tasks:
                return
            fn, args = self._team.tasks.popleft()
            proc.compute(self._team.costs.omp_task_overhead)
            fn(*args)


class _Critical:
    def __init__(self, lock: SimLock) -> None:
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.acquire(current_process())

    def __exit__(self, *exc: Any) -> None:
        self._lock.release(current_process())


def omp_run(
    cluster: Cluster,
    fn: Callable[..., Any],
    num_threads: int,
    *,
    node_id: int = 0,
    args: tuple = (),
) -> OMPResult:
    """Execute ``fn(omp, *args)`` as a parallel region of ``num_threads``.

    Threads are pinned to ``node_id`` — OpenMP is a single-node model, so
    asking for more threads than the node has cores raises
    :class:`~repro.errors.ConfigurationError` (the simulator does not model
    oversubscription).  Cost constants are ``cluster.machine.costs``.
    """
    if num_threads < 1:
        raise ConfigurationError("num_threads must be >= 1")
    node = cluster.nodes[node_id]
    if num_threads > node.spec.cores:
        raise ConfigurationError(
            f"{num_threads} threads exceed the node's {node.spec.cores} cores"
        )
    team = _Team(cluster, node_id, num_threads)
    costs = team.costs

    def thread_main(tid: int) -> Any:
        proc = current_process()
        proc.compute(costs.omp_region_overhead + num_threads * costs.omp_per_thread)
        omp = OMP(team, tid)
        result = fn(omp, *args)
        omp.barrier()  # implicit join barrier (drains tasks)
        return result

    team.procs = cluster.spawn_spmd(thread_main, [node_id] * num_threads,
                                    runtime="OpenMP", name="omp:t")
    elapsed = cluster.run()
    return OMPResult(returns=[p.result for p in team.procs], elapsed=elapsed)
