"""Simulated processes: real threads with virtual clocks.

A :class:`SimProcess` executes ordinary Python code on its own OS thread but
never runs concurrently with another simulated process — the engine grants
the CPU to one process at a time, always the runnable process with the
smallest virtual clock.  This makes runs bit-for-bit deterministic regardless
of host scheduling.

Time advances only through the explicit API:

* :meth:`SimProcess.compute` — charge local CPU time (no context switch);
* :meth:`SimProcess.checkpoint` — yield so that every *interaction* with
  shared state (resources, mailboxes) happens in global virtual-time order;
* :meth:`SimProcess.block` / :meth:`SimProcess.park_until` — wait for another
  process or for a scheduled virtual instant.

Every wait is written as **steps** and run by :meth:`SimProcess.run_steps`:
a generator that yields one :class:`Step` request wherever it waits.  Every
segment after the first runs at the owner's turn on whichever thread holds
the token, so the owner's own thread is woken once, when the steps return.
``run_steps`` is the only place a thread parks.  Each primitive that waits
has one body, its step form (``checkpoint_steps``, ``block_steps``,
``Mailbox.recv_steps``, ``SimBarrier.wait_steps``,
``FlowSystem.transfer_steps`` ...); the blocking name is ``run_steps`` over
it.  Runtime code composes the step forms with ``yield from`` and never
yields a request itself.

The exception to "its own OS thread": a process whose body is a generator
function is all steps, so it gets no thread.  The engine runs the body as
it runs parked steps, at each of the process's turns on whichever thread
holds the token; the generator's return value is the process's result.
Hadoop map/reduce attempts and Spark executors are such processes.

All methods prefixed with an underscore are engine/runtime internals.
"""

from __future__ import annotations

import enum
import inspect
import threading
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Generator, TypeVar

from repro.errors import SimKilled, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

T = TypeVar("T")


class Step(enum.Enum):
    """What a step generator waits for (see :meth:`SimProcess.run_steps`)."""

    #: resume me at my ``(clock, pid)`` turn — a checkpoint, or with the
    #: clock already moved forward, a ``park_until``
    TURN = "turn"
    #: I registered myself as a waiter; resume me after ``_wake``
    BLOCK = "block"
    #: I am parked RUNNABLE and the flow system owns my run-queue entry
    QUEUED = "queued"


TURN, BLOCK, QUEUED = Step.TURN, Step.BLOCK, Step.QUEUED

#: a protocol written as steps: yields requests, returns its result
Steps = Generator[Step, None, T]


class ProcState(enum.Enum):
    """Lifecycle of a simulated process."""

    NEW = "new"            # spawned, thread not yet started
    RUNNABLE = "runnable"  # parked; will resume when its clock is minimal
    RUNNING = "running"    # currently holds the (single) execution token
    BLOCKED = "blocked"    # parked with no wake time; another process must wake it
    DONE = "done"          # function returned
    FAILED = "failed"      # function raised; see .exception


class SimProcess:
    """One simulated process (thread + virtual clock).

    Instances are created via :meth:`repro.sim.engine.Engine.spawn`; user code
    receives the current instance through
    :func:`repro.sim.engine.current_process`.

    Attributes
    ----------
    name:
        Human-readable identifier used in traces and deadlock dumps.
    pid:
        Dense integer id; ties in virtual time are broken by ``pid`` so that
        scheduling is deterministic.
    clock:
        The process-local virtual time, in seconds.
    node:
        Optional opaque placement tag (the cluster layer stores the
        :class:`~repro.cluster.node.Node` the process is pinned to).
    """

    def __init__(
        self,
        engine: "Engine",
        pid: int,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        *,
        name: str,
        start_time: float = 0.0,
        node: Any = None,
    ) -> None:
        self.engine = engine
        self.pid = pid
        self.name = name
        self.clock = float(start_time)
        self.node = node
        self.state = ProcState.NEW
        self.result: Any = None
        self.exception: BaseException | None = None
        #: set while the process is parked on something; shown (through
        #: ``str()``, so a lazily-formatted object is fine) in deadlock dumps
        self.waiting_on: Any = None
        #: blocking-edge metadata for the wait-for-graph deadlock diagnosis
        #: (set by :meth:`block`, cleared on wake).  Pure diagnostics: never
        #: read on the scheduling path, so filling it cannot change outputs.
        #: ``wait_wakers`` is ``None`` (unknown), a tuple of processes, or a
        #: callable ``(engine, waiter) -> iterable[SimProcess]`` evaluated
        #: lazily when a deadlock is being diagnosed.
        self.waiting_since: float | None = None
        self.wait_obj: Any = None
        self.wait_wakers: Any = None
        self._fn = fn
        self._args = args
        self._kwargs = kwargs
        #: hand-off semaphore: a plain lock held while the process must not
        #: run.  The backing thread blocks in ``acquire()``; a grant is one
        #: ``release()`` from whichever thread holds the token.  A release
        #: that lands before the thread reaches its ``acquire`` just lets
        #: that acquire fall through.  (An ``Event`` costs a ``Condition``,
        #: a fresh waiter lock and ~10 lock operations per switch.)
        self._go = threading.Lock()
        self._go.acquire()
        self._killed = False
        #: the step generator :meth:`run_steps` is driving while this
        #: process is parked in it; the token holder resumes it at this
        #: process's turn (``Engine._dispatch``) and grants the process
        #: only once it has returned, its value kept in ``_step_result`` —
        #: or raised, the exception kept in ``_step_error`` for this
        #: process's own thread to re-raise.
        self._steps: Steps[Any] | None = None
        self._step_result: Any = None
        self._step_error: BaseException | None = None
        #: heap sequence number; bumped by ``Engine._push`` so stale run
        #: queue entries for this process can be recognised and skipped.
        self._hseq = 0
        #: happens-before vector clock (``{pid: counter}``, sparse), or
        #: ``None`` when the engine is not in hb mode.  Maintained by the
        #: synchronisation primitives; purely observational — it never
        #: influences scheduling or virtual time, so enabling it cannot
        #: change simulation outputs.
        self.vc: dict[int, int] | None = None
        #: the backing thread, or ``None`` when ``fn`` is a generator
        #: function: such a body is all steps, and the engine runs it at
        #: this process's turns without a thread (see ``_start``)
        self._thread: threading.Thread | None = None
        if not inspect.isgeneratorfunction(inspect.unwrap(fn)):
            self._thread = threading.Thread(
                target=self._thread_main, name=f"sim:{name}", daemon=True)

    # -- introspection ------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProcess {self.name} pid={self.pid} t={self.clock:.6g} {self.state.value}>"

    @property
    def alive(self) -> bool:
        """True while the process may still run."""
        return self.state not in (ProcState.DONE, ProcState.FAILED)

    # -- public API (call only from inside the process) ---------------------

    def compute(self, seconds: float) -> None:
        """Charge ``seconds`` of local work to this process's clock.

        Pure local computation does not interact with shared simulation
        state, so no context switch is needed: the clock simply advances.
        A NaN, infinite or negative duration raises.
        """
        if not 0 <= seconds < inf:
            raise SimulationError(f"compute time must be finite and >= 0: "
                                  f"{seconds}")
        self._assert_current()
        self.clock += seconds

    def advance_clock_to(self, t: float) -> None:
        """Set the clock to ``t`` (never backwards) in one step.

        For callers that folded a sequence of :meth:`compute` charges
        locally — performing the *same float additions* the individual
        calls would have — and now apply the result as a single clock
        update.  Bit-identical to the unfolded sequence by construction.
        """
        self._assert_current()
        if not self.clock <= t < inf:
            raise SimulationError(
                f"{self.name}: clock must move forward to a finite time: "
                f"{self.clock} -> {t}"
            )
        self.clock = t

    def compute_bytes(self, nbytes: float, rate_bytes_per_s: float) -> None:
        """Charge CPU time for streaming ``nbytes`` at ``rate_bytes_per_s``."""
        if rate_bytes_per_s <= 0:
            raise SimulationError(f"non-positive rate: {rate_bytes_per_s}")
        self.compute(nbytes / rate_bytes_per_s)

    def checkpoint(self) -> None:
        """Yield to the engine so interactions occur in virtual-time order.

        Every primitive that touches shared simulation state (resources,
        mailboxes, wakes) must call this first.  On return, every other
        process either has ``clock >= self.clock`` or is blocked, so an
        interaction performed now is globally ordered.

        Run-ahead token retention: when this process is still the minimum
        runnable ``(clock, pid)``, parking would re-grant it immediately
        with no intervening execution, so it keeps the token and returns
        inline — no context switch.
        """
        self.run_steps(self.checkpoint_steps())

    def sleep(self, seconds: float) -> None:
        """Advance the clock by ``seconds`` and yield (an ordered delay)."""
        self.compute(seconds)
        self.checkpoint()

    def park_until(self, wake_time: float, *, reason: Any = "timer") -> None:
        """Park until virtual time ``wake_time`` (revisable by resources).

        The process is RUNNABLE with ``clock = wake_time``; the flow system,
        acting for another process at an earlier virtual time, may re-key a
        flow owner's wake time before it fires (``sim/resources.py``).
        """
        self.run_steps(self.park_until_steps(wake_time, reason=reason))

    def block(self, *, reason: str, obj: Any = None, wakers: Any = None) -> None:
        """Park with no scheduled wake; another process must call :meth:`_wake`.

        On return the clock has been set by the waker (never backwards).
        ``obj`` names the primitive being waited on and ``wakers`` the
        processes able to perform the wake (see the attribute docs in
        ``__init__``) — both feed the wait-for-graph deadlock diagnosis
        and are otherwise unused.
        """
        self.run_steps(self.block_steps(reason=reason, obj=obj,
                                        wakers=wakers))

    # -- steps ----------------------------------------------------------------

    def run_steps(self, steps: Steps[T]) -> T:
        """Run a protocol written as steps; return what the generator returns.

        ``steps`` yields one :class:`Step` request wherever it waits: a
        ``TURN`` while this process is still the minimum runnable
        ``(clock, pid)`` continues inline (run-ahead retention, see
        :meth:`checkpoint`), and so does a ``QUEUED``
        whose own run-queue entry is the minimum; otherwise the process
        parks carrying the generator.  The first segment runs
        here; every later one runs in ``Engine._dispatch`` at this
        process's turn, on whichever thread holds the token, with
        :func:`~repro.sim.engine.current_process` bound to this process and
        :meth:`compute` allowed.  This thread is granted once, when the
        generator returns; an exception it raised is re-raised here.

        This is the one place a thread parks, and a step must not park:
        calling a blocking primitive from one raises
        :class:`SimulationError` on every schedule (its thread may be
        another process's), so steps compose the step forms of the sim
        primitives with ``yield from``.  ``_steps`` is set exactly while
        steps are running or parked, and a parked owner cannot call this.
        Virtual time and event order are those of a thread that parked at
        each request, since each segment runs at exactly the scheduling
        point that thread would resume at.
        """
        self._assert_current()
        if self._steps is not None:
            raise SimulationError(
                f"{self.name}: a step must not park; compose the step forms "
                "of the sim primitives with `yield from`")
        self._steps = steps
        if self._advance():
            self.state = ProcState.RUNNING  # a raising step may have parked it
            self._raise_step_error()
        else:
            self._wait_for_grant()
        result, self._step_result = self._step_result, None
        return result

    def checkpoint_steps(self) -> Steps[None]:
        """Step form of :meth:`checkpoint`."""
        yield TURN

    def park_until_steps(self, wake_time: float, *,
                         reason: Any = "timer") -> Steps[None]:
        """Step form of :meth:`park_until`."""
        self._set_wake(wake_time)
        self.waiting_on = reason
        yield TURN
        self.waiting_on = None

    def block_steps(self, *, reason: str, obj: Any = None,
                    wakers: Any = None) -> Steps[None]:
        """Step form of :meth:`block`: the caller registered as a waiter."""
        self._await(reason, obj, wakers)
        yield BLOCK
        self._awoken()

    def _advance(self) -> bool:
        """Run ``_steps`` until they must wait; ``True`` once they are over.

        Waiting leaves the process parked as the request says — RUNNABLE
        and pushed (``TURN`` not retained), BLOCKED (``BLOCK``), RUNNABLE
        with whatever entry the flow system gave it (``QUEUED`` not
        retained) — and returns ``False``.  Over means returned (value in
        ``_step_result``) or raised (exception in ``_step_error``, for the
        owner's thread to re-raise).  Called on the owner's thread for the
        first segment, by ``Engine._dispatch`` for every later one.

        Both ``TURN`` and ``QUEUED`` go on inline when
        :meth:`_keeps_turn` says so.
        """
        steps = self._steps
        try:
            req = steps.send(None)
            while True:
                if req is TURN:
                    if self._keeps_turn():
                        req = steps.send(None)
                        continue
                    self.state = ProcState.RUNNABLE
                    self.engine._push(self)
                elif req is BLOCK:
                    self.state = ProcState.BLOCKED
                elif req is QUEUED:
                    if self._keeps_turn(queued=True):
                        req = steps.send(None)
                        continue
                    self.state = ProcState.RUNNABLE
                else:
                    raise SimulationError(
                        f"{self.name}: a step yielded {req!r}; steps yield "
                        "TURN, BLOCK or QUEUED")
                return False
        except StopIteration as stop:
            self._step_result = stop.value
        except Exception as exc:  # noqa: BLE001 - re-raised by the owner
            self._step_error = exc
        self._steps = None
        return True

    def _keeps_turn(self, *, queued: bool = False) -> bool:
        """Run-ahead retention: keep the token rather than park?

        Parking would re-grant this process at once, with nothing run in
        between, when it is still the minimum runnable ``(clock, pid)`` —
        or, ``queued`` (parked RUNNABLE in an entry the flow system owns),
        when that own entry is the heap minimum; it is then popped here.
        Either way the process stays RUNNING and ``Engine.now`` follows
        its clock, as a grant would have left them.
        """
        eng = self.engine
        top = eng._peek_min()
        if queued:
            if top is None or top[1] != self.pid:
                return False
            eng._pop_min()
            self.state = ProcState.RUNNING
        elif not (top is None or (self.clock, self.pid) < top):
            return False
        if self.clock > eng.now:
            eng.now = self.clock
        return True

    # -- happens-before bookkeeping (hb mode only) ---------------------------

    def _hb_release(self) -> dict[int, int] | None:
        """Snapshot this process's vector clock for a cross-process edge.

        The standard release rule: copy the clock, then advance our own
        component so accesses *after* the release are not ordered before the
        acquirer's subsequent work.  Returns ``None`` outside hb mode.
        """
        vc = self.vc
        if vc is None:
            return None
        snap = dict(vc)
        vc[self.pid] = vc.get(self.pid, 0) + 1
        return snap

    def _hb_join(self, snap: dict[int, int] | None) -> None:
        """Acquire rule: fold a release snapshot into this process's clock."""
        vc = self.vc
        if vc is None or snap is None:
            return
        for k, v in snap.items():
            if v > vc.get(k, 0):
                vc[k] = v

    # -- engine/runtime internals -------------------------------------------

    def _wake(self, at_time: float) -> None:
        """Make a BLOCKED process runnable at ``max(its clock, at_time)``.

        Called by *another* (currently running) process or by the engine.
        In hb mode waking is a synchronisation edge: the woken process
        acquires the waker's release snapshot (the waker *caused* the wake,
        so everything it did so far happens-before everything we do next).
        """
        if self.state is not ProcState.BLOCKED:
            raise SimulationError(
                f"cannot wake {self.name}: state is {self.state.value}"
            )
        if self.vc is not None:
            waker = self.engine._current_proc()
            if waker is not None and waker is not self \
                    and waker.engine is self.engine:
                self._hb_join(waker._hb_release())
        self.clock = max(self.clock, at_time)
        self.state = ProcState.RUNNABLE
        self.engine._push(self)

    def _set_wake(self, wake_time: float) -> None:
        """Move the clock forward to a timed park's wake time."""
        if not self.clock <= wake_time < inf:
            raise SimulationError(
                f"{self.name}: wake time {wake_time} precedes clock "
                f"{self.clock} or is not finite"
            )
        self.clock = wake_time

    def _await(self, reason: str, obj: Any, wakers: Any) -> None:
        """Record the blocking-edge metadata of a wait (see ``__init__``)."""
        self.waiting_on = reason
        self.waiting_since = self.clock
        self.wait_obj = obj
        self.wait_wakers = wakers

    def _awoken(self) -> None:
        self.waiting_on = None
        self.waiting_since = None
        self.wait_obj = None
        self.wait_wakers = None

    def _wait_for_grant(self) -> None:
        """Hand the token on and block this thread until it is granted back.

        The successor is granted directly from this thread (or the engine is
        woken when there is none) — see ``Engine._release_token``.
        """
        self.engine._release_token(self)
        self._go.acquire()
        if self._killed:
            raise SimKilled()
        self._raise_step_error()

    def _raise_step_error(self) -> None:
        exc = self._step_error
        if exc is not None:
            self._step_error = None
            raise exc

    def _grant(self) -> None:
        """Engine-side: give this process the execution token."""
        self.state = ProcState.RUNNING
        self._go.release()

    def _start(self) -> None:
        """Engine-side: start the backing thread (parked immediately).

        A threadless process instead parks its body as steps: its first
        segment runs at its first turn, like a first grant.
        """
        if self.state is not ProcState.NEW:
            return
        self.state = ProcState.RUNNABLE
        self.engine._push(self)
        if self._thread is None:
            self._steps = self._fn(*self._args, **self._kwargs)
        else:
            self._thread.start()

    def _assert_current(self) -> None:
        if self.state is not ProcState.RUNNING:
            raise SimulationError(
                f"sim API called from outside process {self.name!r} "
                f"(state={self.state.value}); use Engine.spawn to create "
                "simulated processes"
            )

    def _thread_main(self) -> None:
        self.engine._register_current(self)
        # Wait for the first grant before touching any shared state.
        self._go.acquire()
        try:
            if self._killed:
                raise SimKilled()
            self.result = self._fn(*self._args, **self._kwargs)
            self.state = ProcState.DONE
        except SimKilled:
            self.state = ProcState.FAILED
            self.exception = None  # deliberate shutdown, not an error
        except BaseException as exc:  # noqa: BLE001 - report any failure
            self.engine._fail(self, exc)
        finally:
            self.engine._release_token(self)
