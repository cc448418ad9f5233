"""Rendezvous primitives for simulated processes.

These are the *simulation-level* building blocks out of which the
programming-model runtimes construct their user-facing semantics (MPI
send/recv and barriers, Spark shuffle fetches, SHMEM synchronisation ...).

All primitives resolve wake times in virtual time: a receiver never observes
a message before its arrival time, and a barrier releases everyone at the
latest arrival.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.process import TURN, SimProcess, Steps
from repro.sim.trace import call_site


@dataclass
class Message:
    """An in-flight payload: visible to receivers from ``arrival`` onwards.

    ``vc`` is the sender's vector-clock release snapshot (hb mode only);
    receivers acquire it so message passing is a happens-before edge.
    """

    arrival: float
    payload: Any
    meta: dict[str, Any] = field(default_factory=dict)
    vc: dict[int, int] | None = None


def _any_message(_msg: Message) -> bool:
    return True


class Mailbox:
    """An unbounded, order-preserving message queue with predicate matching.

    ``recv`` completes at ``max(receiver clock, message arrival)``; if no
    matching message is queued the receiver blocks until one is posted.
    Matching scans in post order, so messages between the same pair with the
    same match key are non-overtaking (the MPI guarantee).
    """

    def __init__(self, name: str = "mailbox") -> None:
        self.name = name
        self._queue: deque[Message] = deque()
        self._waiters: deque[tuple[SimProcess, Callable[[Message], bool], list]] = deque()

    def post(self, sender: SimProcess, payload: Any, *, arrival: float | None = None, **meta: Any) -> None:
        """Deposit a message; wakes the first compatible blocked receiver.

        ``arrival`` defaults to the sender's current clock (i.e. the payload
        is visible immediately); transports that model latency/bandwidth pass
        the transfer completion time instead.
        """
        sender.run_steps(
            self.post_steps(sender, payload, arrival=arrival, **meta))

    def post_steps(self, sender: SimProcess, payload: Any, *,
                   arrival: float | None = None, **meta: Any) -> Steps[None]:
        """Step form of :meth:`post` (see ``SimProcess.run_steps``)."""
        yield TURN  # interactions execute in virtual-time order
        msg = Message(arrival if arrival is not None else sender.clock, payload, meta)
        if sender.vc is not None:
            msg.vc = sender._hb_release()
        for i, (proc, match, slot) in enumerate(self._waiters):
            if match(msg):
                del self._waiters[i]
                slot.append(msg)
                proc._wake(max(proc.clock, msg.arrival))
                return
        self._queue.append(msg)

    def recv(
        self,
        proc: SimProcess,
        match: Callable[[Message], bool] | None = None,
        *,
        reason: str | None = None,
        waker: SimProcess | None = None,
    ) -> Message:
        """Take the oldest matching message, blocking until one exists.

        ``waker`` optionally names the (sole) process expected to post the
        matching message — a diagnostic hint for the wait-for-graph deadlock
        analysis, never consulted on the happy path.
        """
        return proc.run_steps(
            self.recv_steps(proc, match, reason=reason, waker=waker))

    def recv_steps(
        self,
        proc: SimProcess,
        match: Callable[[Message], bool] | None = None,
        *,
        reason: str | None = None,
        waker: SimProcess | None = None,
    ) -> Steps[Message]:
        """Step form of :meth:`recv` (see ``SimProcess.run_steps``)."""
        yield TURN
        for i, msg in enumerate(self._queue):
            if match is None or match(msg):
                del self._queue[i]
                proc._hb_join(msg.vc)
                if msg.arrival > proc.clock:
                    yield from proc.park_until_steps(msg.arrival,
                                                     reason="recv-arrival")
                return msg
        slot: list[Message] = []  # a post fills it
        self._waiters.append((proc, match or _any_message, slot))
        yield from proc.block_steps(
            reason=reason or f"recv:{self.name}", obj=self,
            wakers=(waker,) if waker is not None else None)
        if not slot:
            raise SimulationError(f"{proc.name}: woken without a message")
        proc._hb_join(slot[0].vc)
        return slot[0]

    def undelivered(self, match: Callable[[Message], bool]) -> bool:
        """True if a queued message matches and no blocked receiver exists.

        Diagnostic probe used by the send/send-cycle detector: such a
        message can only be consumed by a *future* ``recv`` — if its
        intended receiver is provably wedged, it never will be.
        """
        return not self._waiters and any(match(m) for m in self._queue)

    def try_recv(
        self, proc: SimProcess, match: Callable[[Message], bool] | None = None
    ) -> Message | None:
        """Non-blocking probe: a matching message *already arrived*, or None."""
        proc.checkpoint()
        if match is None:
            match = _any_message
        for i, msg in enumerate(self._queue):
            if match(msg) and msg.arrival <= proc.clock:
                del self._queue[i]
                proc._hb_join(msg.vc)
                return msg
        return None

    def __len__(self) -> int:
        return len(self._queue)


class SimBarrier:
    """A reusable n-party barrier; all parties leave at the latest arrival.

    This is the *zero-cost* synchronisation primitive; its one runtime user
    is the planted barrier of ``analysis/scenarios.py``.  OpenMP's barrier
    is task-aware and has its own protocol, and MPI's is built from
    messages, so its cost scales with ``log p`` as on a real machine.
    """

    def __init__(self, parties: int, name: str = "barrier") -> None:
        if parties < 1:
            raise SimulationError("barrier needs at least one party")
        self.parties = parties
        self.name = name
        self._arrived: list[SimProcess] = []
        self._generation = 0
        #: engine-unique id assigned on first wait, so two barriers that
        #: share a display name are still distinct to the sanitizer.
        self._uid: int | None = None
        #: release snapshots of the already-arrived parties (hb mode); the
        #: completing process joins them all, so every party's pre-barrier
        #: work happens-before every party's post-barrier work.
        self._vcs: list[dict[int, int]] = []

    def _pending_wakers(self, engine: Any, waiter: SimProcess) -> list[SimProcess]:
        """Processes that could still complete this barrier (diagnostics)."""
        return [p for p in engine.processes
                if p.alive and not any(p is a for a in self._arrived)]

    def wait(self, proc: SimProcess) -> int:
        """Enter the barrier; returns the barrier generation just completed."""
        return proc.run_steps(self.wait_steps(proc))

    def wait_steps(self, proc: SimProcess) -> Steps[int]:
        """Step form of :meth:`wait` (see ``SimProcess.run_steps``)."""
        yield TURN
        trace = proc.engine.trace
        if trace is not None and trace.enabled and trace.hb:
            if self._uid is None:
                self._uid = proc.engine._next_barrier_uid
                proc.engine._next_barrier_uid += 1
            trace.coll(proc, "barrier", f"barrier:{self.name}#{self._uid}",
                       parties=self.parties, site=call_site(proc=proc))
        gen = self._generation
        self._arrived.append(proc)
        if len(self._arrived) == self.parties:
            release = max(p.clock for p in self._arrived)
            self._generation += 1
            waiters, self._arrived = self._arrived[:-1], []
            if proc.vc is not None:
                for snap in self._vcs:
                    proc._hb_join(snap)
                self._vcs = []
            for p in waiters:
                p._wake(release)
            if release > proc.clock:
                yield from proc.park_until_steps(
                    release, reason=f"barrier:{self.name}")
            return gen
        if proc.vc is not None:
            snap = proc._hb_release()
            if snap is not None:
                self._vcs.append(snap)
        yield from proc.block_steps(reason=f"barrier:{self.name}", obj=self,
                                    wakers=self._pending_wakers)
        return gen


class SimLock:
    """A mutex in *virtual* time.

    The engine never runs two processes at once, so physical races cannot
    happen — what this lock provides is mutual exclusion of virtual-time
    *intervals*: if A holds the lock from t=1 to t=3, B's acquire at t=2
    completes at t=3.  Used for OpenMP ``critical`` sections and SHMEM
    locks.
    """

    def __init__(self, name: str = "lock") -> None:
        self.name = name
        self._holder: SimProcess | None = None
        self._waiters: deque[SimProcess] = deque()
        #: release snapshot of the last releaser (hb mode): the next
        #: acquirer joins it, so critical sections are totally ordered.
        self._vc: dict[int, int] | None = None

    def _holder_wakers(self, engine: Any, waiter: SimProcess) -> tuple:
        """The current holder is the only process that can release (diagnostics)."""
        return () if self._holder is None else (self._holder,)

    def _trace_lock(self, proc: SimProcess, op: str) -> None:
        """Record a ``lock.acquire``/``lock.release`` event (hb mode only)."""
        trace = proc.engine.trace
        if trace is not None and trace.enabled and trace.hb:
            trace.record(proc.clock, proc.name, f"lock.{op}",
                         lock=self.name, pid=proc.pid,
                         site=call_site(proc=proc))

    def acquire(self, proc: SimProcess) -> None:
        """Block until the lock is free, then take it."""
        proc.run_steps(self.acquire_steps(proc))

    def acquire_steps(self, proc: SimProcess) -> Steps[None]:
        """Step form of :meth:`acquire` (see ``SimProcess.run_steps``)."""
        yield TURN
        if self._holder is None:
            self._holder = proc
            proc._hb_join(self._vc)
            self._trace_lock(proc, "acquire")
            return
        if self._holder is proc:
            raise SimulationError(f"{proc.name}: lock {self.name!r} is not reentrant")
        self._waiters.append(proc)
        yield from proc.block_steps(reason=f"lock:{self.name}", obj=self,
                                    wakers=self._holder_wakers)
        proc._hb_join(self._vc)
        self._trace_lock(proc, "acquire")

    def release(self, proc: SimProcess) -> None:
        """Release; the longest-waiting process acquires at this instant."""
        proc.run_steps(self.release_steps(proc))

    def release_steps(self, proc: SimProcess) -> Steps[None]:
        """Step form of :meth:`release` (see ``SimProcess.run_steps``)."""
        yield TURN  # contenders at earlier virtual times queue first
        if self._holder is not proc:
            raise SimulationError(
                f"{proc.name}: releasing lock {self.name!r} it does not hold"
            )
        self._trace_lock(proc, "release")
        if proc.vc is not None:
            self._vc = proc._hb_release()
        if self._waiters:
            nxt = self._waiters.popleft()
            self._holder = nxt
            nxt._wake(proc.clock)
        else:
            self._holder = None


class Future:
    """A one-shot value that simulated processes can wait for."""

    def __init__(self, name: str = "future") -> None:
        self.name = name
        self._done = False
        self._value: Any = None
        self._set_time = 0.0
        self._waiters: list[SimProcess] = []
        #: resolver's release snapshot (hb mode); waiters join it
        self._vc: dict[int, int] | None = None
        #: diagnostic hints set by protocol code (e.g. the MPI rendezvous
        #: path): the process expected to resolve this future, and free-form
        #: metadata the deadlock detectors can inspect.  Never read on the
        #: happy path.
        self.waker: SimProcess | None = None
        self.meta: dict[str, Any] = {}

    def _waker_wakers(self, engine: Any, waiter: SimProcess) -> tuple:
        return () if self.waker is None else (self.waker,)

    @property
    def done(self) -> bool:
        return self._done

    def set(self, proc: SimProcess, value: Any = None) -> None:
        """Resolve the future at ``proc``'s current time; wakes all waiters."""
        proc.run_steps(self.set_steps(proc, value))

    def set_steps(self, proc: SimProcess, value: Any = None) -> Steps[None]:
        """Step form of :meth:`set` (see ``SimProcess.run_steps``)."""
        yield TURN  # earlier-time waiters must register before we fire
        if self._done:
            raise SimulationError(f"future {self.name!r} set twice")
        self._done = True
        self._value = value
        self._set_time = proc.clock
        if proc.vc is not None:
            self._vc = proc._hb_release()
        waiters, self._waiters = self._waiters, []
        for p in waiters:
            p._wake(self._set_time)

    def wait(self, proc: SimProcess) -> Any:
        """Block until resolved; returns the value."""
        return proc.run_steps(self.wait_steps(proc))

    def wait_steps(self, proc: SimProcess) -> Steps[Any]:
        """Step form of :meth:`wait` (see ``SimProcess.run_steps``)."""
        yield TURN
        if not self._done:
            self._waiters.append(proc)
            yield from proc.block_steps(reason=f"future:{self.name}", obj=self,
                                        wakers=self._waker_wakers)
        elif self._set_time > proc.clock:
            yield from proc.park_until_steps(self._set_time,
                                             reason=f"future:{self.name}")
        proc._hb_join(self._vc)
        return self._value
