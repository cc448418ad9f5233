"""The virtual-time scheduler.

One :class:`Engine` owns a set of :class:`~repro.sim.process.SimProcess`
instances and runs them cooperatively: the runnable process with the smallest
``(clock, pid)`` gets the execution token, runs until it parks (at a
checkpoint, a blocking primitive or completion), then the next minimum is
chosen.  Because every interaction with shared simulation state is preceded
by a checkpoint, interactions execute in global virtual-time order and the
simulation is deterministic.

The engine runs on the caller's thread; simulated processes each own a
daemon thread that is parked except when granted the token, so at any moment
at most one thread is doing work.  The exception is a process whose body is
a generator function: it is all steps (point 4 below), so it owns no thread
and the engine runs its body at its turns.

Execution model
---------------

The scheduling decision ("which runnable process has the smallest
``(clock, pid)``?") is answered by a lazy-deletion binary heap
(:attr:`Engine._heap`).  Every transition *into* the RUNNABLE state pushes a
``(clock, pid, seq, proc)`` entry; bumping the per-process sequence number
turns an entry stale, and a stale entry is discarded when it reaches the
top.  Selecting the next process is therefore O(log n) instead of the O(n)
scan a list would need.  One kind of RUNNABLE process may be *without* a
live entry: the owner of a fluid flow that is not the earliest-finishing
parked owner of its flow system, which re-keys such owners in place and
queues only the minimum (the queue-one-owner invariant, stated in
``sim/resources.py``) — so the heap top is still the global minimum.

Four cooperating optimisations make the hot path (a checkpoint that does
not change the schedule order, a transfer, a protocol round) switch-free:

1. **Run-ahead token retention** — at a checkpoint (or a ``park_until``
   whose wake time is already due) the running process peeks at the heap
   top.  If its own ``(clock, pid)`` is still the global minimum, a
   scheduler that parked it would immediately re-grant it, so the
   process simply *keeps* the token and continues inline: zero lock
   round-trips, zero OS context switches.  This is safe because no other
   process could have run in between — the observable interleaving is
   identical to park-and-regrant.

2. **Direct handoff** — when a switch *is* required, the yielding process
   thread pops the successor off the heap and grants the token straight to
   it (one lock release), instead of waking the engine thread first (two
   signals).  The token invariant — at most one thread executes simulation
   code at any instant — is preserved: the granting thread touches no
   shared state after the grant.

3. **Engine thread as supervisor** — the thread that called :meth:`run`
   sleeps for the whole simulation and is only woken for the cases the
   process threads cannot decide locally: a process failed (abort + raise),
   or no process is runnable (termination vs deadlock detection).  A
   failure is recorded where it happens (:meth:`_fail`), so the
   supervisor, which also dispatches threadless processes' first turns,
   never scans the process list per iteration.

4. **Step continuations** — every wait is a generator run by
   :meth:`SimProcess.run_steps`, the one place a thread parks: the sim
   primitives (a checkpoint, a timed park, a block, a transfer, a mailbox,
   a future, a barrier, a lock), the MPI point-to-point and collective
   algorithms, the OpenSHMEM collectives and ``wait_until``, OpenMP's
   barrier.
   It parks carrying the generator instead of its thread.  At the owner's
   turn :meth:`_dispatch` runs the next segment on the thread that holds
   the token, with :func:`current_process` bound to the owner, and keeps
   popping; the owner's thread is granted once, when the generator
   returns — or never, for a threadless process, whose body is the
   generator: it is DONE when the body returns and FAILED (the supervisor
   woken) when it raises.  A Hadoop task attempt and a Spark executor
   are such bodies.  A
   segment starts at exactly the ``(clock, pid)`` turn at
   which a thread parked at that request would have resumed — the same
   retention test, the same push, the same BLOCKED state — so the
   interleaving is that of parked threads; only the thread executing it
   differs.  Invariants: a step never parks (``run_steps`` raises when a
   step calls it), a raising step fails its owner on the owner's thread,
   and a wake or clock edge made by a step belongs to the owner.

Determinism is unaffected: the successor chosen by the heap is exactly the
``min(runnable, key=(clock, pid))`` of a linear scan, and token retention
only happens when that minimum is the yielding process itself.  That
obviously-correct scheduler — O(n) scan, every yield through the engine
thread, no retention — lives in ``tests/sim_oracle.py`` as an
:class:`Engine` subclass; the determinism suite asserts byte-identical
traces between it and this engine on golden scenarios and on generated
process programs.  ``tests/test_sim_steps.py`` runs generated programs with
their operations as steps and as the thread-parking reference primitives
of ``tests/sim_oracle.py``, on both schedulers, and requires the same
clocks, results and traces.

Measured on one pinned CPU of the 2-core benchmark host: a forced hand-off
between two process threads costs 5.5-6.4 µs, the same step run as a
continuation on the thread already holding the token 1.8-2.2 µs; on the
benchmark's ``reduce_latency`` (64-rank MPI and OpenSHMEM reduces, mostly
dissemination-barrier rounds) thread grants per repetition fell from
61,202 to 12,346.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import gc
import sys
import threading
from heapq import heappop, heappush
from typing import Any, Callable, Iterable

from repro.errors import (ConfigurationError, DeadlockError, FaultAbortError,
                          SimProcessError, SimulationError)
from repro.sim.process import ProcState, SimProcess
from repro.sim.trace import Trace, anchored_path

try:
    import resource
except ImportError:  # pragma: no cover - not a POSIX host
    resource = None

_current: threading.local = threading.local()

#: glibc's ``mallopt`` parameter number for the arena cap
_M_ARENA_MAX = -8


@functools.cache
def _one_malloc_arena() -> None:
    """Cap glibc's malloc at one arena, once per interpreter (host tuning).

    glibc gives threads their own arenas (up to eight per core) so threads
    running at once do not contend for one heap.  Simulated processes never
    run at once, and a step runs on whichever thread holds the token, so a
    payload is often allocated on one thread and freed on another: the
    extra arenas only keep fragments resident.  Peak RSS of the benchmark's
    ``reduce_latency`` (64-rank MPI and OpenSHMEM reduces of up to 1 MiB):
    242 MiB with per-thread arenas before the protocols ran as steps, 265
    MiB after, 217 MiB with one arena.  glibc fixes its arena limit the
    first time a thread needs a ninth arena, so the cap holds when set
    before that (any interpreter that has not yet run many threads) and
    cannot be undone; elsewhere than glibc this is a no-op.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def current_process() -> SimProcess:
    """Return the :class:`SimProcess` executing on the calling thread.

    Raises :class:`SimulationError` when called from outside a simulated
    process (e.g. from the host test code).
    """
    proc = getattr(_current, "proc", None)
    if proc is None:
        raise SimulationError(
            "current_process() called outside a simulated process"
        )
    return proc


class Engine:
    """Deterministic cooperative scheduler for simulated processes.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.sim.trace.Trace` collecting structured
        events; when ``None`` a disabled trace is used (zero overhead).

    Example
    -------
    >>> eng = Engine()
    >>> def hello():
    ...     current_process().compute(1.5)
    ...     return "hi"
    >>> p = eng.spawn(hello, name="p0")
    >>> eng.run()
    1.5
    >>> p.result, p.clock
    ('hi', 1.5)
    """

    def __init__(self, *, trace: Trace | None = None) -> None:
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.processes: list[SimProcess] = []
        self._next_pid = 0
        self._yield_evt = threading.Event()
        self._running = False
        self._aborting = False
        #: lazy-deletion run queue of ``(clock, pid, seq, proc)`` entries;
        #: an entry is live iff ``seq == proc._hseq`` and the process is
        #: RUNNABLE (see :meth:`_push`).
        self._heap: list[tuple[float, int, int, SimProcess]] = []
        #: happens-before mode: thread vector clocks through processes and
        #: synchronisation primitives so the race checker can replay traces
        #: (:mod:`repro.analysis.races`).  Purely observational — scheduling
        #: and virtual time are untouched, so outputs are bit-identical with
        #: the flag on or off.
        self._hb = self.trace.hb
        #: virtual time of the most recently scheduled process; monotone
        #: non-decreasing over interaction points.
        self.now = 0.0
        #: counter handing out engine-unique ids to :class:`SimBarrier`
        #: instances on first use (sanitizer identity; see ``sync.py``).
        self._next_barrier_uid = 0
        #: processes that raised, recorded where they fail (:meth:`_fail`),
        #: so the supervisor finds one without scanning every process
        self._failures: list[SimProcess] = []

    # -- construction --------------------------------------------------------

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str | None = None,
        start_time: float | None = None,
        node: Any = None,
        **kwargs: Any,
    ) -> SimProcess:
        """Create a simulated process running ``fn(*args, **kwargs)``.

        May be called before :meth:`run` or from *inside* a running process
        (dynamic spawning, used by the MapReduce engine to launch task
        attempts).  A dynamically spawned process starts at the spawner's
        current virtual time unless ``start_time`` is given.  When ``fn``
        (unwrapped) is a generator function, its body is steps and the
        process gets no thread (see ``SimProcess._start``).
        """
        parent = getattr(_current, "proc", None)
        if start_time is None:
            start_time = parent.clock if parent is not None else 0.0
        pid = self._next_pid
        self._next_pid += 1
        proc = SimProcess(
            self,
            pid,
            fn,
            args,
            kwargs,
            name=name or f"proc-{pid}",
            start_time=start_time,
            node=node,
        )
        if self._hb:
            # Fork edge: the child starts with the spawner's causal history;
            # the spawner's own component advances so its later work is
            # concurrent with (not before) the child.
            if parent is not None and parent.engine is self \
                    and parent.vc is not None:
                proc.vc = dict(parent.vc)
                parent.vc[parent.pid] = parent.vc.get(parent.pid, 0) + 1
            else:
                proc.vc = {}
            proc.vc[pid] = 1
        if self._running and proc._thread is not None:
            self._check_thread_ceiling(spawning=1)
        self.processes.append(proc)
        if self._running:
            proc._start()
        return proc

    def _check_thread_ceiling(self, spawning: int = 0) -> None:
        """Raise, before a thread starts, if the run would hold more backing
        threads than the soft ``RLIMIT_NPROC`` (threadless processes own
        none): a typed error instead of a ``RuntimeError`` from
        ``threading`` part-way through a run.  The limit counts every
        thread of the user, not only this run's, so passing the check does
        not guarantee that every thread starts.
        """
        if resource is None:  # pragma: no cover - not a POSIX host
            return
        soft = resource.getrlimit(resource.RLIMIT_NPROC)[0]
        if soft == resource.RLIM_INFINITY \
                or len(self.processes) + spawning <= soft:
            return  # cheap bound first: a spawn while running stays O(1)
        threads = spawning + sum(p._thread is not None and p.alive
                                 for p in self.processes)
        if threads > soft:
            raise ConfigurationError(
                f"the run needs {threads} process threads but the soft "
                f"RLIMIT_NPROC (ulimit -u) allows {soft}; simulate fewer "
                "threaded processes or raise the limit")

    def _current_proc(self) -> SimProcess | None:
        """The simulated process running on the calling thread, or ``None``."""
        return getattr(_current, "proc", None)

    def _register_current(self, proc: SimProcess) -> None:
        """Bind ``proc`` to its backing thread (called from that thread)."""
        _current.proc = proc

    # -- run queue ------------------------------------------------------------

    def _push(self, proc: SimProcess) -> None:
        """Enqueue a process that just became RUNNABLE (or was re-keyed).

        Bumps the process's heap sequence number so any earlier entry for it
        still in the heap is recognised as stale and skipped on pop.
        """
        seq = proc._hseq + 1
        proc._hseq = seq
        heappush(self._heap, (proc.clock, proc.pid, seq, proc))

    def _pop_min(self) -> SimProcess | None:
        """Pop the runnable process with the smallest ``(clock, pid)``.

        Discards stale entries (superseded pushes, processes no longer
        RUNNABLE) on the way; returns ``None`` when nothing is runnable.
        """
        heap = self._heap
        while heap:
            _clock, _pid, seq, proc = heap[0]
            heappop(heap)
            if seq == proc._hseq and proc.state is ProcState.RUNNABLE:
                return proc
        return None

    def _peek_min(self) -> tuple[float, int] | None:
        """``(clock, pid)`` of the minimum runnable process, or ``None``.

        Like :meth:`_pop_min` this reaps stale entries, but leaves the live
        minimum in place.  Called from the running process's thread (which
        holds the token, so no other thread touches the heap concurrently).
        """
        heap = self._heap
        while heap:
            clock, pid, seq, proc = heap[0]
            if seq == proc._hseq and proc.state is ProcState.RUNNABLE:
                return (clock, pid)
            heappop(heap)
        return None

    # -- scheduling loop ------------------------------------------------------

    def run(self) -> float:
        """Run until every process has finished; return the final makespan.

        Raises
        ------
        SimProcessError
            If any process raised; the original traceback is chained.
        DeadlockError
            If at some point every live process is blocked.
        ConfigurationError
            Before any thread starts, past the soft ``RLIMIT_NPROC``.
        FaultAbortError
            If an injected fault killed an HPC job (unwrapped).
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._check_thread_ceiling()
        self._running = True
        # Host-side tuning, invisible to virtual time.  The data plane
        # allocates container objects by the hundred thousand while memo
        # caches keep a large live heap, so periodic cyclic-GC scans would
        # re-walk it all run long; pause the collector for the run and do
        # one collection at the end.  ``gc.collect()`` is a full
        # collection: it walks every tracked object of all three
        # generations, the long-lived ones included, so its cost follows
        # the whole tracked heap, not the objects the run made.  On the
        # benchmark's ``pagerank_shuffle`` (seed 42, pinned to one CPU of
        # the 2-core benchmark host) each of the two per-repetition
        # collections walks ~34 k objects (29 k in generation 2), frees
        # ~3.6 k and takes 6-10 ms, 4-5 % of ``wall_s``; on
        # ``pagerank_persist`` each of three takes 7-9 ms, 3-4 %.
        # Dropping the collection was measured at +33 % peak RSS.  The
        # long switch interval stops the GIL from preempting compute
        # mid-slice — processes hand off deterministically through locks,
        # never via preemption.
        _one_malloc_arena()
        gc_was_enabled = gc.isenabled()
        old_switch = sys.getswitchinterval()
        gc.disable()
        sys.setswitchinterval(0.05)
        try:
            for proc in list(self.processes):
                proc._start()
            return self._supervise()
        finally:
            self._running = False
            sys.setswitchinterval(old_switch)
            if gc_was_enabled:
                gc.enable()
                gc.collect()

    def _supervise(self) -> float:
        """Supervisor loop: grant, sleep, and handle the terminal cases.

        Between grants the token circulates directly among process threads;
        this thread is only woken when a process failed or nothing is
        runnable.
        """
        while True:
            if self._failures:
                failed = min(self._failures, key=lambda p: p.pid)
                self._abort()
                if isinstance(failed.exception,
                              (DeadlockError, FaultAbortError)):
                    # A protocol-level detector (e.g. the MPI send/send-cycle
                    # diagnostic) or an HPC job's fault policy
                    # (``Cluster.spawn_spmd``) already produced the full
                    # diagnosis inside the process; surface it unwrapped.
                    raise failed.exception
                raise SimProcessError(failed.name) from failed.exception
            proc = self._pop_min()
            if proc is None:
                # BLOCKED: nobody left to wake it.  RUNNABLE: parked with no
                # live run-queue entry, i.e. on a flow that never re-queued
                # it — wedged just the same.
                stuck = [
                    p for p in self.processes
                    if p.state in (ProcState.BLOCKED, ProcState.RUNNABLE)
                ]
                if stuck:
                    # Diagnose before aborting: the abort unwinds the parked
                    # threads, destroying the frames the diagnosis inspects.
                    msg = self._deadlock_message(stuck)
                    self._abort()
                    raise DeadlockError(msg)
                break  # everything DONE/FAILED
            self._yield_evt.clear()
            if self._dispatch(proc):
                self._yield_evt.wait()
        return self.makespan()

    def makespan(self) -> float:
        """Largest virtual clock reached by any process."""
        return max((p.clock for p in self.processes), default=0.0)

    def results(self) -> list[Any]:
        """Return values of all processes, in spawn order."""
        return [p.result for p in self.processes]

    # -- internals -----------------------------------------------------------

    def _release_token(self, proc: SimProcess) -> None:
        """Called from ``proc``'s thread when it parks or terminates.

        The yielding thread grants the successor directly (it still owns
        the token, so heap access is race-free) and wakes the engine thread
        only when it cannot: the process failed, an abort is in progress,
        or nothing is runnable (termination/deadlock — the engine decides
        which).
        """
        if self._aborting or proc.state is ProcState.FAILED:
            self._yield_evt.set()
            return
        while True:
            nxt = self._pop_min()
            if nxt is None:
                self._yield_evt.set()
                return
            if self._dispatch(nxt):
                return

    def _dispatch(self, proc: SimProcess) -> bool:
        """Give ``proc`` its turn; return whether the token went to its thread.

        A process parked in ``run_steps`` gets its next segment run here, on
        the calling thread, and its own thread granted only when the steps
        are over; until then it stays parked (``False``: the caller still
        holds the token and picks the next minimum).  A step that raises is
        the owner's failure: the exception is handed to the owner's thread,
        which is granted the token and re-raises it from its ``run_steps``.
        A threadless process ends here instead (:meth:`_finish`).
        """
        if proc.clock > self.now:
            self.now = proc.clock
        if proc._steps is not None and not self._resume(proc):
            return False
        if proc._thread is None:
            return self._finish(proc)
        proc._grant()
        return True

    def _finish(self, proc: SimProcess) -> bool:
        """A threadless process's body is over: DONE, or FAILED.

        Returns ``False`` (the caller keeps the token) when the body
        returned; when it raised, wakes the supervisor, which aborts the
        run, and returns ``True``.
        """
        exc, proc._step_error = proc._step_error, None
        if exc is None:
            proc.result, proc._step_result = proc._step_result, None
            proc.state = ProcState.DONE
            return False
        self._fail(proc, exc)
        self._yield_evt.set()
        return True

    def _fail(self, proc: SimProcess, exc: BaseException) -> None:
        """``proc`` raised ``exc``: FAILED, and recorded for the supervisor."""
        proc.state = ProcState.FAILED
        proc.exception = exc
        self._failures.append(proc)

    def _resume(self, proc: SimProcess) -> bool:
        """Run ``proc``'s parked steps here, as ``proc``; ``True`` once over.

        For the segment's duration ``proc`` is RUNNING and is what
        :func:`current_process` answers on this thread, so ``compute()``
        charges it and a ``_wake`` it makes attributes the vector-clock edge
        to it, not to the thread's own process.
        """
        prev = getattr(_current, "proc", None)
        _current.proc = proc
        proc.state = ProcState.RUNNING
        try:
            return proc._advance()
        finally:
            _current.proc = prev

    def _abort(self) -> None:
        """Unwind every parked process by injecting ``SimKilled``.

        A parked threadless process has no thread to unwind: its body is
        closed here, on the supervisor's thread.
        """
        self._aborting = True
        try:
            for p in self.processes:
                if p._thread is None and p.alive:
                    p.state = ProcState.FAILED
                    steps, p._steps = p._steps, None
                    if steps is not None:
                        with contextlib.suppress(Exception):
                            steps.close()
                elif p.state in (ProcState.RUNNABLE, ProcState.BLOCKED):
                    p._killed = True
                    self._yield_evt.clear()
                    p._go.release()
                    self._yield_evt.wait()
                elif p.state is ProcState.NEW:
                    p._killed = True
                    p.state = ProcState.FAILED
        finally:
            self._aborting = False

    # -- deadlock diagnosis ---------------------------------------------------
    #
    # Everything below runs only on the no-runnable-process path, after the
    # simulation is already wedged — it reads diagnostic metadata the sync
    # primitives left on each blocked process (``waiting_on``/``wait_obj``/
    # ``wait_wakers``, see ``process.py``) and never mutates simulation
    # state, so it cannot perturb outputs.

    def _block_site(self, proc: SimProcess) -> str | None:
        """Source location (``path:line``) where ``proc`` is blocked.

        Walks the blocked thread's live frame stack past simulator-internal
        and threading frames to the runtime/user frame that issued the wait.
        The thread is parked in its hand-off lock's ``acquire`` while we
        look, so the stack is stable.  A process parked in ``run_steps`` is
        in the middle of a protocol whose frames are not on the stack; the
        frames above it belong to the runtime the protocol comes from, so
        those are skipped too and the site is the call into that runtime
        (the user's ``comm.barrier()``), if there is one.  Returns ``None``
        when no frame can be attributed.

        A threadless process has no stack: its site is the innermost frame
        outside ``repro/sim/`` in the chain of generators its body is
        suspended in (``gi_yieldfrom``).
        """
        if proc._thread is None:
            return self._steps_site(proc._steps)
        code = getattr(proc._steps, "gi_code", None)
        runtime = None
        if code is not None:
            runtime = anchored_path(code.co_filename).rpartition("/")[0]
        frame = sys._current_frames().get(proc._thread.ident)
        site = None
        while frame is not None:
            path = anchored_path(frame.f_code.co_filename)
            if not path.startswith("repro/sim/") and "threading" not in path:
                here = f"{path}:{frame.f_lineno}"
                if not runtime or not path.startswith(runtime + "/"):
                    return here
                site = site or here
            frame = frame.f_back
        return site

    @staticmethod
    def _steps_site(steps: Any) -> str | None:
        """``path:line`` of the innermost suspended generator outside the sim."""
        site = None
        while steps is not None:
            frame = getattr(steps, "gi_frame", None)
            if frame is None:
                break
            path = anchored_path(frame.f_code.co_filename)
            if not path.startswith("repro/sim/"):
                site = f"{path}:{frame.f_lineno}"
            steps = steps.gi_yieldfrom
        return site

    def _wait_edges(
        self, blocked: list[SimProcess]
    ) -> dict[int, list[int]]:
        """Wait-for edges ``waiter pid -> [candidate waker pids]``.

        Only edges whose target is itself blocked are kept — a waker that is
        DONE/FAILED can never fire, and one that is RUNNABLE would
        contradict the no-runnable premise.
        """
        in_set = {p.pid for p in blocked}
        edges: dict[int, list[int]] = {}
        for p in blocked:
            wakers = p.wait_wakers
            if callable(wakers):
                try:
                    wakers = wakers(self, p)
                except Exception:  # diagnosis must never mask the deadlock
                    wakers = ()
            if wakers is None:
                continue
            pids = sorted({w.pid for w in wakers if w.pid in in_set})
            if pids:
                edges[p.pid] = pids
        return edges

    def _wait_cycle(self, blocked: list[SimProcess]) -> list[SimProcess]:
        """One cycle in the wait-for graph, as processes, or ``[]``.

        Iterative DFS with white/grey/black colouring over pids in sorted
        order, so the reported cycle is deterministic.
        """
        edges = self._wait_edges(blocked)
        by_pid = {p.pid: p for p in blocked}
        color: dict[int, int] = {}  # absent=white, 1=grey, 2=black
        for start in sorted(by_pid):
            if color.get(start):
                continue
            stack = [start]
            path: list[int] = []
            while stack:
                pid = stack[-1]
                if color.get(pid) != 1:
                    color[pid] = 1
                    path.append(pid)
                nxt = None
                for q in edges.get(pid, ()):
                    if color.get(q) == 1:
                        return [by_pid[r] for r in path[path.index(q):]]
                    if not color.get(q):
                        nxt = q
                        break
                if nxt is None:
                    color[pid] = 2
                    path.pop()
                    stack.pop()
                else:
                    stack.append(nxt)
        return []

    def _deadlock_message(self, blocked: Iterable[SimProcess]) -> str:
        blocked = list(blocked)
        lines = ["simulation deadlock: all live processes are blocked"]
        for p in blocked:
            since = (
                f" since t={p.waiting_since:.6g}"
                if p.waiting_since is not None else ""
            )
            site = self._block_site(p)
            at = f" at {site}" if site else ""
            lines.append(
                f"  - {p.name} (pid {p.pid}, t={p.clock:.6g}) "
                f"waiting on {p.waiting_on or '?'}{since}{at}"
            )
        cycle = self._wait_cycle(blocked)
        if cycle:
            chain = " -> ".join(
                f"{p.name} [{p.waiting_on or '?'}]" for p in cycle
            )
            lines.append(f"  wait-for cycle: {chain} -> {cycle[0].name}")
        return "\n".join(lines)
