"""Test-side oracles for :class:`repro.sim.Engine` and the fluid flow model.

The production engine answers "who runs next?" with a lazy-deletion heap,
lets a process keep the token while it is still the minimum, and hands the
token from thread to thread without waking the engine.
:class:`ReferenceEngine` does none of that: every yield goes back to the
engine thread, which picks ``min(runnable, key=(clock, pid))`` by a linear
scan.  It is slow and obviously correct, and the determinism suite asserts
that both produce byte-identical traces.

The production :class:`~repro.sim.resources.FlowSystem` queues one flow
owner per event and parks a transfer once.  :class:`ReferenceFlowSystem` is
the algorithm it replaced — a separate advance pass, a fresh run-queue entry
for every revised owner, two parks per transfer — and a property test
asserts bit-identical completion times between the two under both engines.

Every production primitive that waits is one step body run by
``SimProcess.run_steps``.  :class:`ReferenceMailbox`,
:class:`ReferenceFuture`, :class:`ReferenceBarrier` and
:class:`ReferenceLock` are the thread-parking bodies those replaced —
``checkpoint``, then ``park_until`` or ``block`` on the caller's own thread
— and the step suite requires the same clocks, results and traces from
both.
"""

from __future__ import annotations

from collections import deque

from repro.errors import DeadlockError, SimProcessError
from repro.sim import Engine
from repro.sim.process import ProcState
from repro.sim.resources import Flow
from repro.sim.sync import Message
from repro.sim.trace import call_site


class ReferenceEngine(Engine):
    """O(n) scan, engine-mediated switches, no token retention."""

    def _peek_min(self):
        # Something always precedes the caller, so a checkpoint always parks.
        return (float("-inf"), -1)

    def _release_token(self, proc):
        self._yield_evt.set()

    def _supervise(self) -> float:
        while True:
            runnable = [
                p for p in self.processes if p.state is ProcState.RUNNABLE
            ]
            if not runnable:
                blocked = [
                    p for p in self.processes if p.state is ProcState.BLOCKED
                ]
                if blocked:
                    msg = self._deadlock_message(blocked)
                    self._abort()
                    raise DeadlockError(msg)
                return self.makespan()
            proc = min(runnable, key=lambda p: (p.clock, p.pid))
            self._yield_evt.clear()
            if not self._dispatch(proc):
                continue  # ran a step segment; parked again, or DONE
            self._yield_evt.wait()
            if proc.state is ProcState.FAILED and proc.exception is not None:
                self._abort()
                if isinstance(proc.exception, DeadlockError):
                    raise proc.exception
                raise SimProcessError(proc.name) from proc.exception


class ReferenceFlowSystem:
    """Fair-share fluid flows, one obvious step at a time.

    Same public surface as ``FlowSystem`` (``transfer``, ``set_capacity``,
    ``active_count``) over the same ``FluidResource``/``Flow`` objects; no
    input validation — it is only fed valid programs.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.flows: set[Flow] = set()

    @property
    def active_count(self) -> int:
        return len(self.flows)

    def transfer(self, proc, resources, nbytes, *, rate_cap=None, label=""):
        res = tuple(resources)
        if nbytes == 0 or not res:
            return proc.clock
        proc.checkpoint()  # first park: wait for our turn to register
        self._advance_to(proc.clock)
        flow = Flow(proc, res, nbytes, rate_cap, label)
        self.flows.add(flow)
        for r in res:
            r.flows.add(flow)
        self._recompute(proc.clock)
        eps = max(1e-6, 1e-12 * nbytes)
        while flow.remaining > eps:
            if flow.finish <= proc.clock:
                break  # residual is pure drift; the flow is done
            proc.park_until(flow.finish, reason=f"flow:{label}")  # second
            self._advance_to(proc.clock)
        self.flows.discard(flow)
        for r in res:
            r.flows.discard(flow)
        if self.flows:
            self._recompute(proc.clock)
        return proc.clock

    def set_capacity(self, resource, capacity, t):
        self._advance_to(t)
        resource.capacity = float(capacity)
        if self.flows:
            self._recompute(t)

    def _advance_to(self, t):
        dt = max(0.0, t - self.now)
        if dt > 0.0:
            for f in self.flows:
                rem = f.remaining - f.rate * dt
                f.remaining = rem if rem > 0.0 else 0.0
            self.now = t

    def _recompute(self, t):
        for f in self.flows:
            rate = min(r.fair_share() for r in f.resources)
            if f.rate_cap is not None:
                rate = min(rate, f.rate_cap)
            f.rate = rate
            finish = t + f.remaining / rate
            if finish != f.finish:
                f.finish = finish
                owner = f.owner
                if owner.state is ProcState.RUNNABLE:  # parked on this flow
                    owner.clock = finish
                    owner.engine._push(owner)  # supersedes its older entry


class ReferenceMailbox:
    """``Mailbox.post``/``recv`` parking the caller's thread at each wait."""

    def __init__(self, name="mailbox"):
        self.name = name
        self._queue = deque()
        self._waiters = deque()

    def post(self, sender, payload, *, arrival=None, **meta):
        sender.checkpoint()
        msg = Message(arrival if arrival is not None else sender.clock,
                      payload, meta)
        if sender.vc is not None:
            msg.vc = sender._hb_release()
        for i, (proc, match, slot) in enumerate(self._waiters):
            if match is None or match(msg):
                del self._waiters[i]
                slot.append(msg)
                proc._wake(max(proc.clock, msg.arrival))
                return
        self._queue.append(msg)

    def recv(self, proc, match=None):
        proc.checkpoint()
        for i, msg in enumerate(self._queue):
            if match is None or match(msg):
                del self._queue[i]
                proc._hb_join(msg.vc)
                if msg.arrival > proc.clock:
                    proc.park_until(msg.arrival, reason="recv-arrival")
                return msg
        slot = []
        self._waiters.append((proc, match, slot))
        proc.block(reason=f"recv:{self.name}", obj=self)
        proc._hb_join(slot[0].vc)
        return slot[0]


class ReferenceFuture:
    """``Future.set``/``wait`` parking the caller's thread at each wait."""

    def __init__(self, name="future"):
        self.name = name
        self._done = False
        self._value = None
        self._set_time = 0.0
        self._waiters = []
        self._vc = None

    def set(self, proc, value=None):
        proc.checkpoint()
        self._done = True
        self._value = value
        self._set_time = proc.clock
        if proc.vc is not None:
            self._vc = proc._hb_release()
        waiters, self._waiters = self._waiters, []
        for p in waiters:
            p._wake(self._set_time)

    def wait(self, proc):
        proc.checkpoint()
        if not self._done:
            self._waiters.append(proc)
            proc.block(reason=f"future:{self.name}", obj=self)
        elif self._set_time > proc.clock:
            proc.park_until(self._set_time, reason=f"future:{self.name}")
        proc._hb_join(self._vc)
        return self._value


class ReferenceBarrier:
    """``SimBarrier.wait`` parking the caller's thread at each wait."""

    def __init__(self, parties, name="barrier"):
        self.parties = parties
        self.name = name
        self._arrived = []
        self._generation = 0
        self._uid = None
        self._vcs = []

    def wait(self, proc):
        proc.checkpoint()
        trace = proc.engine.trace
        if trace is not None and trace.enabled and trace.hb:
            if self._uid is None:
                self._uid = proc.engine._next_barrier_uid
                proc.engine._next_barrier_uid += 1
            trace.coll(proc, "barrier", f"barrier:{self.name}#{self._uid}",
                       parties=self.parties, site=call_site())
        gen = self._generation
        self._arrived.append(proc)
        if len(self._arrived) == self.parties:
            release = max(p.clock for p in self._arrived)
            self._generation += 1
            waiters, self._arrived = self._arrived[:-1], []
            for snap in self._vcs:
                proc._hb_join(snap)
            self._vcs = []
            for p in waiters:
                p._wake(release)
            if release > proc.clock:
                proc.park_until(release, reason=f"barrier:{self.name}")
            return gen
        snap = proc._hb_release()
        if snap is not None:
            self._vcs.append(snap)
        proc.block(reason=f"barrier:{self.name}", obj=self)
        return gen


class ReferenceLock:
    """``SimLock.acquire``/``release`` parking the caller's thread."""

    def __init__(self, name="lock"):
        self.name = name
        self._holder = None
        self._waiters = deque()
        self._vc = None

    def _trace_lock(self, proc, op):
        trace = proc.engine.trace
        if trace is not None and trace.enabled and trace.hb:
            trace.record(proc.clock, proc.name, f"lock.{op}",
                         lock=self.name, pid=proc.pid, site=call_site())

    def acquire(self, proc):
        proc.checkpoint()
        if self._holder is not None:
            self._waiters.append(proc)
            proc.block(reason=f"lock:{self.name}", obj=self)
        else:
            self._holder = proc
        proc._hb_join(self._vc)
        self._trace_lock(proc, "acquire")

    def release(self, proc):
        proc.checkpoint()
        self._trace_lock(proc, "release")
        if proc.vc is not None:
            self._vc = proc._hb_release()
        if self._waiters:
            self._holder = self._waiters.popleft()
            self._holder._wake(proc.clock)
        else:
            self._holder = None
