"""Protocols written as steps (``SimProcess.run_steps``).

A step generator must be indistinguishable from thread-parking calls —
same virtual times, same event order, same results — while the owner's
thread sleeps through it.  The equivalence net below is the one generated
net of that contract and of engine ≡ reference scheduler (DESIGN.md §6):
it runs generated programs through the thread-parking reference
primitives of ``tests/sim_oracle.py`` for one ``want``, then as steps per
operation, as one step body and as a threadless body, on the production
engine and on the reference scheduler, each of which must equal ``want``.
The guard tests pin what the step form buys (one wake per collective,
none per uncontended transfer) and what it must not lose (failures on
the owner, deadlock diagnosis, happens-before edges).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.errors import DeadlockError, SimProcessError, SimulationError
from repro.mpi import mpi_run
from repro.shmem import shmem_run
from repro.sim import Engine, Mailbox, current_process
from repro.sim.process import ProcState
from repro.sim.resources import FlowSystem, FluidResource
from repro.sim.sync import Future, SimBarrier, SimLock
from repro.sim.trace import Trace
from tests.conftest import TESTING_MACHINE, counting_trace, forced_trace
from tests.sim_oracle import (ReferenceBarrier, ReferenceEngine,
                              ReferenceFlowSystem, ReferenceFuture,
                              ReferenceLock, ReferenceMailbox)

BOTH_SCHEDULERS = pytest.mark.parametrize(
    "engine_cls", [Engine, ReferenceEngine], ids=["fast", "reference"])


def _digest(trace: Trace) -> str:
    # Every event field but the call site a barrier or lock records in hb
    # mode: composed from a test's own step generator, that site is the
    # generator's line on the owner's thread and the owner's ``run_steps``
    # line on any other, so it names the thread, not the schedule.
    h = hashlib.sha256()
    for ev in trace:
        detail = sorted((k, v) for k, v in ev.detail.items() if k != "site")
        h.update(f"{ev.time.hex()}|{ev.proc}|{ev.kind}|{detail!r}\n"
                 .encode())
    return h.hexdigest()


# -- the equivalence net ------------------------------------------------------

def _actions(me, n_procs, script):
    """``(step, op, peer, amount)`` for each step process ``me`` takes part in.

    A ``msg`` step makes ``a`` post to ``b`` and ``b`` receive it; a
    ``future`` step makes ``a`` set future ``step`` and ``b`` wait on it;
    every process enters a ``barrier`` step; every other step is ``a``'s
    alone (a ``lock`` step acquires lock ``b % 2``, computes, releases).
    Each process takes its steps in script order, so the earliest
    unfinished step can always complete and no generated program
    deadlocks.
    """
    for i, (kind, a, b, amount) in enumerate(script):
        a, b = a % n_procs, b % n_procs
        if kind == "barrier":
            yield i, kind, b, amount
        elif kind in ("msg", "future"):
            if me == a:
                yield i, f"{kind}.give", b, amount
            if me == b:
                yield i, f"{kind}.take", a, amount
        elif me == a:
            yield i, kind, b, amount


def _run_program(engine_cls, mode, n_procs, script):
    """Run one program; ``(trace digest, final clocks, per-process logs)``.

    ``mode``: ``"blocking"`` calls the thread-parking reference primitives
    of ``tests/sim_oracle.py``; ``"per-op"`` runs each production
    primitive's step form in its own ``run_steps``; ``"whole"`` runs a
    process's entire body as one step generator; ``"threadless"`` spawns
    that generator as the body itself, so the process has no thread.
    """
    tr = forced_trace()
    if tr is None:  # not ``or``: an empty trace is falsy
        tr = Trace(enabled=True)
    eng = engine_cls(trace=tr)
    blocking = mode == "blocking"
    fs = ReferenceFlowSystem() if blocking else FlowSystem()
    nics = [FluidResource(f"nic{i}", 100.0) for i in range(2)]
    boxes = [(ReferenceMailbox if blocking else Mailbox)(f"b{i}")
             for i in range(n_procs)]
    futures = [(ReferenceFuture if blocking else Future)(f"f{i}")
               for i in range(len(script))]
    barrier = (ReferenceBarrier if blocking else SimBarrier)(n_procs)
    locks = [(ReferenceLock if blocking else SimLock)(f"l{i}")
             for i in range(2)]

    def blocking_op(p, me, i, op, peer, amount):
        if op == "compute":
            p.compute(amount / 1000)
        elif op == "checkpoint":
            p.checkpoint()
        elif op == "msg.give":
            boxes[peer].post(p, i, arrival=p.clock + amount / 1000)
        elif op == "msg.take":
            return boxes[me].recv(p, lambda m: m.payload == i).payload
        elif op == "future.give":
            futures[i].set(p, i * 10)
        elif op == "future.take":
            return futures[i].wait(p)
        elif op == "barrier":
            return barrier.wait(p)
        elif op == "lock":
            locks[peer % 2].acquire(p)
            p.compute(amount / 1000)
            locks[peer % 2].release(p)
        else:
            return fs.transfer(p, (nics[peer % 2],), (amount + 1) * 10.0,
                               label=f"x{i}")
        return None

    def op_steps(p, me, i, op, peer, amount):
        if op == "compute":
            p.compute(amount / 1000)
        elif op == "checkpoint":
            yield from p.checkpoint_steps()
        elif op == "msg.give":
            yield from boxes[peer].post_steps(
                p, i, arrival=p.clock + amount / 1000)
        elif op == "msg.take":
            msg = yield from boxes[me].recv_steps(
                p, lambda m: m.payload == i)
            return msg.payload
        elif op == "future.give":
            yield from futures[i].set_steps(p, i * 10)
        elif op == "future.take":
            return (yield from futures[i].wait_steps(p))
        elif op == "barrier":
            return (yield from barrier.wait_steps(p))
        elif op == "lock":
            yield from locks[peer % 2].acquire_steps(p)
            p.compute(amount / 1000)
            yield from locks[peer % 2].release_steps(p)
        else:
            return (yield from fs.transfer_steps(
                p, (nics[peer % 2],), (amount + 1) * 10.0, label=f"x{i}"))
        return None

    def note(p, log, i, op, got):
        tr.record(p.clock, p.name, f"step.{op}", step=i, now=eng.now)
        log.append((i, p.clock.hex(), got))

    def body(me):
        p = current_process()
        log = []
        for i, op, peer, amount in _actions(me, n_procs, script):
            if blocking:
                got = blocking_op(p, me, i, op, peer, amount)
            else:
                got = p.run_steps(op_steps(p, me, i, op, peer, amount))
            note(p, log, i, op, got)
        return log

    def whole_steps(p, me):
        log = []
        for i, op, peer, amount in _actions(me, n_procs, script):
            got = yield from op_steps(p, me, i, op, peer, amount)
            assert current_process() is p  # on whichever thread runs this
            note(p, log, i, op, got)
        return log

    def whole(me):
        p = current_process()
        return p.run_steps(whole_steps(p, me))

    def threadless(me):
        return (yield from whole_steps(current_process(), me))

    fn = {"whole": whole, "threadless": threadless}.get(mode, body)
    procs = [eng.spawn(fn, i, name=f"p{i}") for i in range(n_procs)]
    eng.run()
    assert fs.active_count == 0
    return (_digest(tr), [p.clock.hex() for p in procs],
            [p.result for p in procs])


@given(
    n_procs=st.integers(2, 6),
    script=st.lists(
        st.tuples(
            st.sampled_from(["compute", "checkpoint", "msg", "future",
                             "transfer", "barrier", "lock"]),
            st.integers(0, 5), st.integers(0, 5), st.integers(0, 20)),
        max_size=24),
)
# Three owners on one NIC, each arriving while the others are parked on
# it: kills, every run, a re-pricing that leaves a re-keyed owner's old
# run-queue entry live (no ``owner._hseq += 1`` in FlowSystem._recompute),
# which the drawn programs killed in 1 of 3 runs.
@example(n_procs=3, script=[
    ("transfer", 0, 0, 20), ("compute", 1, 0, 5), ("transfer", 1, 0, 10),
    ("checkpoint", 2, 0, 0), ("transfer", 2, 0, 3), ("msg", 0, 2, 7),
    ("future", 2, 1, 0)])
# Three processes queue on lock 0 while its holder computes: the only case
# that kills a LIFO hand-off (``pop`` for ``popleft`` in
# SimLock.release_steps); the drawn programs missed it in 3 of 3 runs.
@example(n_procs=3, script=[
    ("lock", 0, 0, 20), ("compute", 1, 0, 5), ("lock", 1, 0, 10),
    ("lock", 2, 0, 3), ("barrier", 0, 0, 0), ("lock", 2, 1, 7),
    ("compute", 0, 0, 9), ("barrier", 1, 0, 0), ("lock", 0, 1, 1)])
@settings(max_examples=40, deadline=None)
def test_steps_match_blocking_calls_on_generated_programs(n_procs, script):
    want = _run_program(Engine, "blocking", n_procs, script)
    assert want == _run_program(ReferenceEngine, "blocking", n_procs, script)
    # each mode against ``want``, not against another step mode on the same
    # engine: two modes that share a scheduling slip agree with each other
    for engine_cls in (Engine, ReferenceEngine):
        for mode in ("per-op", "whole", "threadless"):
            got = _run_program(engine_cls, mode, n_procs, script)
            assert got == want, (engine_cls.__name__, mode)


# -- what a collective costs the rank's thread ---------------------------------

def _parks_during(call):
    """Parks of the calling process while ``call()`` runs (each ends in
    one grant), and its value."""
    proc = current_process()
    counts, key = proc.engine.trace.counters, ("sim.park", proc.name)
    before = counts[key]
    value = call()
    return counts[key] - before, value


def test_an_mpi_collective_wakes_each_rank_at_most_twice():
    # The blocking rounds granted 2 per message round: ~12 per barrier here.
    def main(comm):
        woke = {}
        woke["barrier"], _ = _parks_during(comm.barrier)
        woke["reduce"], total = _parks_during(
            lambda: comm.reduce(comm.rank, root=0))
        return woke, total

    res = mpi_run(Cluster(TESTING_MACHINE, trace=counting_trace()), main, 64,
                  charge_launch=False)
    assert res.returns[0][1] == sum(range(64))
    for woke, _ in res.returns:
        assert max(woke.values()) <= 2, woke


def test_an_shmem_collective_wakes_each_pe_at_most_twice():
    def main(pe):
        sym = pe.alloc(4, init=float(pe.my_pe))
        woke, _ = _parks_during(lambda: pe.sum_to_all(sym))
        return woke, pe.local(sym).tolist()

    res = shmem_run(Cluster(TESTING_MACHINE, trace=counting_trace()), main,
                    64)
    for woke, values in res.returns:
        assert woke <= 2
        assert values == [float(sum(range(64)))] * 4


def test_uncontended_transfers_keep_the_owners_thread():
    # QUEUED obeys TURN's retention rule: an owner whose own run-queue entry
    # is the minimum keeps the token, so its thread never parks.
    eng = Engine(trace=counting_trace())
    fs = FlowSystem()
    ssd = FluidResource("ssd", 1000.0)

    def stream():
        p = current_process()
        for _ in range(1000):
            fs.transfer(p, (ssd,), 100.0)
        return p.clock

    proc = eng.spawn(stream, name="stream")
    eng.run()
    assert proc.result == pytest.approx(100.0)
    assert eng.trace.counters["sim.park", "stream"] == 0


# -- failures stay the owner's ---------------------------------------------------

def _run_failing(eng, procs, name):
    """Run ``eng`` (which must not hang) to the failure of process ``name``;
    every process thread must exit.  Returns the failure's cause."""
    outcome = {}

    def drive():
        try:
            eng.run()
        except BaseException as exc:  # noqa: BLE001 - inspected below
            outcome["exc"] = exc

    runner = threading.Thread(target=drive, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "the run hung"
    exc = outcome.get("exc")
    assert isinstance(exc, SimProcessError) and name in str(exc), exc
    for proc in procs:
        if proc._thread is not None:
            proc._thread.join(timeout=10)
            assert not proc._thread.is_alive()
    return exc.__cause__


def _victim_beside_a_bystander(engine_cls, steps, *, threadless=False):
    """``victim`` runs ``steps`` while a bystander holds the token, so its
    second segment runs on the bystander's thread (or the supervisor's).
    ``threadless``: the victim's body is a generator, so it has no thread."""
    eng = engine_cls(trace=forced_trace())

    def victim():
        p = current_process()
        p.compute(1.0)
        p.run_steps(steps(p))

    def threadless_victim():
        p = current_process()
        p.compute(1.0)
        yield from steps(p)

    def bystander():
        current_process().sleep(5.0)
        current_process().sleep(5.0)

    procs = [eng.spawn(threadless_victim if threadless else victim,
                       name="victim"),
             eng.spawn(bystander, name="bystander")]
    return _run_failing(eng, procs, "victim")


@BOTH_SCHEDULERS
def test_a_step_that_calls_a_blocking_primitive_fails_its_owner(engine_cls):
    box = Mailbox("never")

    def steps(p):
        yield from p.checkpoint_steps()
        box.recv(p)  # a blocking name: run_steps nested inside a step

    cause = _victim_beside_a_bystander(engine_cls, steps)
    assert isinstance(cause, SimulationError)
    assert "victim" in str(cause) and "step" in str(cause)


@BOTH_SCHEDULERS
def test_a_step_that_parks_its_thread_fails_its_owner(engine_cls):
    def steps(p):
        yield from p.checkpoint_steps()
        p.sleep(100.0)  # parks the thread, which may be someone else's

    cause = _victim_beside_a_bystander(engine_cls, steps)
    assert isinstance(cause, SimulationError)
    assert "victim" in str(cause) and "must not park" in str(cause)


@BOTH_SCHEDULERS
@pytest.mark.parametrize("park", ["checkpoint", "sleep", "park_until"])
def test_a_step_that_parks_fails_even_when_it_would_keep_the_turn(
        engine_cls, park):
    # A lone process is the minimum at every request, so nothing about the
    # schedule would stop a nested park; the step guard alone must.
    eng = engine_cls(trace=forced_trace())

    def steps(p):
        yield from p.checkpoint_steps()
        if park == "checkpoint":
            p.checkpoint()
        elif park == "sleep":
            p.sleep(1.0)
        else:
            p.park_until(p.clock + 1.0)

    def lone():
        p = current_process()
        p.run_steps(steps(p))

    eng.spawn(lone, name="lone")
    with pytest.raises(SimProcessError) as ei:
        eng.run()
    cause = ei.value.__cause__
    assert isinstance(cause, SimulationError)
    assert "lone" in str(cause) and "must not park" in str(cause)


@BOTH_SCHEDULERS
def test_a_raising_step_fails_its_owner_and_every_thread_exits(engine_cls):
    def steps(p):
        yield from p.checkpoint_steps()
        raise ValueError("kaput")

    cause = _victim_beside_a_bystander(engine_cls, steps)
    assert isinstance(cause, ValueError) and str(cause) == "kaput"


# -- diagnostics and hb mode -----------------------------------------------------

def _line_of(fn, needle):
    lines, first = inspect.getsourcelines(fn)
    return first + next(i for i, line in enumerate(lines) if needle in line)


def test_a_barrier_missing_a_rank_names_the_cycle_and_the_users_call():
    def main(comm):
        if comm.rank == 0:
            return comm.recv(source=1)  # never enters the barrier
        comm.barrier()
        return None

    with pytest.raises(DeadlockError) as ei:
        mpi_run(Cluster(TESTING_MACHINE), main, 64, charge_launch=False)
    msg = str(ei.value)
    assert ("wait-for cycle: mpi:rank0 [mpi.recv(rank=0,src=1,tag=None)]"
            " -> mpi:rank1 [mpi.recv(rank=1,src=0,tag=-1)] -> mpi:rank0") in msg
    lines = msg.splitlines()
    rank1 = next(line for line in lines if line.startswith("  - mpi:rank1 "))
    assert rank1.endswith(
        f" at test_sim_steps.py:{_line_of(main, 'comm.barrier()')}")
    rank0 = next(line for line in lines if line.startswith("  - mpi:rank0 "))
    assert rank0.endswith(
        f" at test_sim_steps.py:{_line_of(main, 'comm.recv(source=1)')}")


def test_nested_collective_entries_record_the_users_call_site():
    tr = Trace(hb=True)

    def job(comm):
        comm.exscan(np.full(3, comm.rank + 1.0))
        comm.reduce_scatter_block([float(comm.rank)] * comm.size)

    mpi_run(Cluster(TESTING_MACHINE, trace=tr), job, 8, charge_launch=False)
    sites = {}
    for ev in tr.filter("coll.enter"):
        sites.setdefault(ev.detail["op"], set()).add(ev.detail["site"])
    here = "test_sim_steps.py:{}".format
    assert sites == {
        "exscan": {here(_line_of(job, "exscan"))},
        "scan": {here(_line_of(job, "exscan"))},
        "reduce_scatter_block": {here(_line_of(job, "reduce_scatter"))},
        "alltoall": {here(_line_of(job, "reduce_scatter"))},
    }

    tr = Trace(hb=True)

    def main(pe):
        sym = pe.alloc(2, init=float(pe.my_pe))
        pe.sum_to_all(sym)

    shmem_run(Cluster(TESTING_MACHINE, trace=tr), main, 8)
    user = here(_line_of(main, "sum_to_all"))
    by_op = Counter(ev.detail["op"] for ev in tr.filter("coll.enter")
                    if ev.detail["site"] == user)
    # sum_to_all -> broadcast -> barrier_all, once per PE each
    assert by_op == {"sum_to_all": 8, "broadcast": 8, "barrier_all": 8}


def test_a_wake_made_from_a_step_is_the_owners_edge():
    # ``poster`` deposits from a step that runs on ``bystander``'s thread;
    # the receiver must acquire the poster's clock, never the bystander's.
    eng = Engine(trace=Trace(hb=True))
    box = Mailbox("m")

    def poster():
        p = current_process()
        p.compute(1.0)
        p.run_steps(box.post_steps(p, "x"))

    def receiver():
        return box.recv(current_process()).payload

    def bystander():
        current_process().sleep(0.5)
        current_process().sleep(10.0)  # parks: poster's turn runs here

    post = eng.spawn(poster, name="poster")
    recv = eng.spawn(receiver, name="receiver")
    by = eng.spawn(bystander, name="bystander")
    eng.run()
    assert recv.result == "x"
    assert recv.vc.get(post.pid, 0) >= 1
    assert by.pid not in recv.vc


# -- threadless processes: a generator body is all steps ----------------------

@BOTH_SCHEDULERS
def test_a_generator_body_runs_without_a_thread(engine_cls, thread_starts):
    eng = engine_cls(trace=forced_trace())
    box = Mailbox("m")

    def sender(n):
        p = current_process()
        for i in range(n):
            p.compute(1.0)
            yield from box.post_steps(p, i)
        return "sent"

    def receiver(n):
        p = current_process()
        got = []
        for _ in range(n):
            got.append((yield from box.recv_steps(p)).payload)
        return got, p.clock

    procs = [eng.spawn(sender, 3, name="s"), eng.spawn(receiver, 3, name="r")]
    assert eng.run() == 3.0
    assert [p.result for p in procs] == ["sent", ([0, 1, 2], 3.0)]
    assert [p._thread for p in procs] == [None, None]
    assert thread_starts == []


def test_a_wrapped_generator_body_still_runs_without_a_thread(thread_starts):
    def body(dt):
        p = current_process()
        yield from p.park_until_steps(p.clock + dt)
        return p.clock

    @functools.wraps(body)
    def wrapped(*args):
        return body(*args)

    eng = Engine(trace=forced_trace())
    proc = eng.spawn(wrapped, 2.5, name="w")
    eng.run()
    assert proc.result == 2.5 and proc._thread is None
    assert thread_starts == []


@BOTH_SCHEDULERS
def test_a_raising_generator_body_fails_its_process(engine_cls):
    def steps(p):
        yield from p.checkpoint_steps()
        raise ValueError("kaput")

    cause = _victim_beside_a_bystander(engine_cls, steps, threadless=True)
    assert isinstance(cause, ValueError) and str(cause) == "kaput"


@BOTH_SCHEDULERS
@pytest.mark.parametrize("park", ["recv", "sleep"])
def test_a_generator_body_that_parks_fails_its_process(engine_cls, park):
    box = Mailbox("never")

    def steps(p):
        yield from p.checkpoint_steps()
        if park == "recv":
            box.recv(p)
        else:
            p.sleep(100.0)

    cause = _victim_beside_a_bystander(engine_cls, steps, threadless=True)
    assert isinstance(cause, SimulationError)
    assert "victim" in str(cause) and "must not park" in str(cause)


@BOTH_SCHEDULERS
def test_a_failure_elsewhere_unwinds_parked_generator_bodies(engine_cls):
    eng = engine_cls(trace=forced_trace())
    box = Mailbox("never")
    unwound = []

    def waiter():  # BLOCKED when the failure comes
        p = current_process()
        try:
            yield from box.recv_steps(p, reason="never")
        finally:
            unwound.append(p.name)

    def timer():  # RUNNABLE, parked until t=100
        p = current_process()
        try:
            yield from p.park_until_steps(100.0)
        finally:
            unwound.append(p.name)

    def boom():
        current_process().sleep(1.0)
        raise RuntimeError("x")

    procs = [eng.spawn(waiter, name="waiter"), eng.spawn(timer, name="timer"),
             eng.spawn(boom, name="boom")]
    cause = _run_failing(eng, procs, "boom")
    assert isinstance(cause, RuntimeError)
    assert sorted(unwound) == ["timer", "waiter"]
    for p in procs[:2]:
        assert p.state is ProcState.FAILED and p.exception is None


def test_a_threadless_spawn_keeps_the_fork_edge():
    from repro.analysis import check_trace

    trace = Trace(hb=True)
    eng = Engine(trace=trace)

    def child():
        p = current_process()
        trace.access(p, "read", "handoff")
        yield from p.checkpoint_steps()
        trace.access(p, "read", "later")

    def parent():
        p = current_process()
        trace.access(p, "write", "handoff")
        eng.spawn(child, name="child")
        yield from p.checkpoint_steps()
        trace.access(p, "write", "later")  # after the fork: unordered

    def threaded_parent():
        p = current_process()
        p.compute(1.0)
        trace.access(p, "write", "handoff2")
        eng.spawn(child2, name="child2")

    def child2():
        trace.access(current_process(), "read", "handoff2")
        yield from current_process().checkpoint_steps()

    eng.spawn(parent, name="parent")
    eng.spawn(threaded_parent, name="threaded")
    eng.run()
    assert [r.loc for r in check_trace(trace).races] == ["later"]


@BOTH_SCHEDULERS
def test_a_deadlocked_generator_body_is_named_at_its_wait(engine_cls):
    eng = engine_cls(trace=forced_trace())
    box = Mailbox("mr:driver")

    def fetch(p):
        msg = yield from box.recv_steps(p, reason="mr:wait-map")
        return msg

    def attempt(tid):  # Hadoop-shaped: charge, then a wait that never ends
        p = current_process()
        p.compute(2.5)
        return (yield from fetch(p))

    eng.spawn(attempt, 0, name="mr:map0.1")
    with pytest.raises(DeadlockError) as ei:
        eng.run()
    (line,) = [ln for ln in str(ei.value).splitlines()
               if ln.startswith("  - mr:map0.1 ")]
    assert "waiting on mr:wait-map since t=2.5" in line
    assert line.endswith(
        f" at test_sim_steps.py:{_line_of(fetch, 'recv_steps')}")


@BOTH_SCHEDULERS
def test_a_deadlock_cycle_through_a_generator_body_names_it(engine_cls):
    eng = engine_cls(trace=forced_trace())
    box_a, box_b = Mailbox("a"), Mailbox("b")
    procs = {}

    def left():
        box_a.recv(current_process(), reason="recv:a", waker=procs["right"])

    def right():
        yield from box_b.recv_steps(current_process(), reason="recv:b",
                                    waker=procs["left"])

    procs["left"] = eng.spawn(left, name="left")
    procs["right"] = eng.spawn(right, name="right")
    with pytest.raises(DeadlockError) as ei:
        eng.run()
    msg = str(ei.value)
    assert "wait-for cycle: left [recv:a] -> right [recv:b] -> left" in msg
    assert f"at test_sim_steps.py:{_line_of(right, 'recv_steps')}" in msg
