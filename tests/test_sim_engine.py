"""Unit tests for the virtual-time engine and process model."""

from __future__ import annotations

import math
import time

import pytest

from repro.errors import (ConfigurationError, DeadlockError, SimProcessError,
                          SimulationError)
from repro.sim import Engine, Future, Mailbox, SimBarrier, current_process
from repro.sim.process import ProcState
from tests.sim_oracle import ReferenceEngine


def test_single_process_computes_and_returns():
    eng = Engine()

    def work():
        p = current_process()
        p.compute(1.5)
        p.compute(0.5)
        return "done"

    proc = eng.spawn(work, name="w")
    makespan = eng.run()
    assert proc.result == "done"
    assert proc.clock == pytest.approx(2.0)
    assert makespan == pytest.approx(2.0)
    assert proc.state is ProcState.DONE


def test_compute_rejects_negative_time():
    eng = Engine()

    def work():
        current_process().compute(-1.0)

    eng.spawn(work, name="w")
    with pytest.raises(SimProcessError) as ei:
        eng.run()
    assert isinstance(ei.value.__cause__, SimulationError)


#: each way a process charges or sets its own clock
_CLOCK_ENTRY_POINTS = {
    "compute": lambda p, x: p.compute(x),
    "compute_bytes": lambda p, x: p.compute_bytes(x, 1.0),
    "advance_clock_to": lambda p, x: p.advance_clock_to(x),
    "park_until": lambda p, x: p.park_until(x),
    "park_until_steps": lambda p, x: p.run_steps(p.park_until_steps(x)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(_CLOCK_ENTRY_POINTS))
def test_non_finite_time_is_rejected(entry, bad):
    eng = Engine()

    def work():
        p = current_process()
        p.compute(1.0)
        _CLOCK_ENTRY_POINTS[entry](p, bad)

    proc = eng.spawn(work, name="w")
    with pytest.raises(SimProcessError) as ei:
        eng.run()
    assert isinstance(ei.value.__cause__, SimulationError)
    assert proc.clock == 1.0


def test_compute_bytes_divides_by_rate():
    eng = Engine()

    def work():
        current_process().compute_bytes(1000, 500.0)

    p = eng.spawn(work, name="w")
    eng.run()
    assert p.clock == pytest.approx(2.0)


def test_scheduler_runs_min_clock_first():
    """Interactions must execute in virtual-time order."""
    eng = Engine()
    order: list[str] = []

    def proc(name: str, delay: float):
        p = current_process()
        p.compute(delay)
        p.checkpoint()
        order.append(name)

    eng.spawn(proc, "slow", 5.0, name="slow")
    eng.spawn(proc, "fast", 1.0, name="fast")
    eng.spawn(proc, "mid", 3.0, name="mid")
    eng.run()
    assert order == ["fast", "mid", "slow"]


def test_tie_break_by_pid_is_deterministic():
    eng = Engine()
    order: list[int] = []

    def proc(i: int):
        current_process().checkpoint()
        order.append(i)

    for i in range(10):
        eng.spawn(proc, i, name=f"p{i}")
    eng.run()
    assert order == list(range(10))


def test_exception_propagates_with_cause():
    eng = Engine()

    def boom():
        current_process().compute(1.0)
        raise ValueError("kaput")

    eng.spawn(boom, name="boom")
    with pytest.raises(SimProcessError) as ei:
        eng.run()
    assert isinstance(ei.value.__cause__, ValueError)


def test_failure_aborts_other_processes():
    eng = Engine()

    def boom():
        raise RuntimeError("x")

    def sleeper():
        current_process().sleep(100.0)

    eng.spawn(boom, name="boom")
    s = eng.spawn(sleeper, name="sleeper")
    with pytest.raises(SimProcessError):
        eng.run()
    assert s.state is ProcState.FAILED  # unwound via SimKilled
    assert s.exception is None  # not an error of its own


def _one_turn():
    """A threadless body: one checkpoint, then done."""
    yield from current_process().checkpoint_steps()


class TestFailureRecord:
    """The supervisor finds a failed process from the record made where
    it failed, not by scanning every process on every iteration."""

    @pytest.mark.parametrize("threaded", [True, False],
                             ids=["threaded", "threadless"])
    def test_a_raising_process_among_threadless_ones_surfaces(self,
                                                              threaded):
        eng = Engine()

        def boom_thread():
            current_process().compute(1.0)
            raise ValueError("kaput")

        def boom_steps():
            yield from current_process().checkpoint_steps()
            current_process().compute(1.0)
            raise ValueError("kaput")

        for i in range(20):
            eng.spawn(_one_turn, name=f"s{i}")
        boom = eng.spawn(boom_thread if threaded else boom_steps,
                         name="boom")
        for i in range(20, 40):
            eng.spawn(_one_turn, name=f"s{i}")
        with pytest.raises(SimProcessError, match="boom") as ei:
            eng.run()
        assert isinstance(ei.value.__cause__, ValueError)
        assert (boom._thread is not None) == threaded
        assert boom.state is ProcState.FAILED
        assert eng._failures == [boom]

    def test_many_threadless_processes_finish_in_linear_time(self):
        """4,096 one-checkpoint bodies, each dispatched by the supervisor:
        ~0.03 s when a failure is read from the record, 2.6-4.9 s when
        every iteration scanned the process list."""
        eng = Engine()
        procs = [eng.spawn(_one_turn, name=f"s{i}") for i in range(4096)]
        t0 = time.perf_counter()
        eng.run()
        elapsed = time.perf_counter() - t0
        assert all(p.state is ProcState.DONE for p in procs)
        assert elapsed < 0.5, f"{elapsed:.2f} s for 4,096 processes"


#: the production engine and the test-side reference scheduler: programs
#: that *fail* must fail the same way on both, or the oracle is no oracle
BOTH_SCHEDULERS = pytest.mark.parametrize(
    "engine_cls", [Engine, ReferenceEngine], ids=["fast", "reference"])


@BOTH_SCHEDULERS
@pytest.mark.parametrize("boom_at", [0.0, 1.0],
                         ids=["never-granted", "after-park"])
def test_abort_unwinds_ungranted_and_parked_threads(engine_cls, boom_at):
    """The hand-off lock under abort.

    ``never-granted``: the failing process is pid 0 and fails at t=0, so
    the others' threads were started but never ran — the abort's release
    may land before or after they reach their first ``acquire``.
    ``after-park``: they ran, parked (one timed, one blocked), and are
    killed where they wait.  Either way every thread must exit.
    """
    eng = engine_cls()
    box = Mailbox("never")

    def boom():
        if boom_at:
            current_process().sleep(boom_at)
        raise RuntimeError("x")

    def sleeper():
        current_process().sleep(100.0)

    def waiter():
        box.recv(current_process(), reason="never")

    eng.spawn(boom, name="boom")
    others = [eng.spawn(sleeper, name="sleeper"),
              eng.spawn(waiter, name="waiter"),
              eng.spawn(sleeper, name="sleeper2")]
    with pytest.raises(SimProcessError) as ei:
        eng.run()
    assert isinstance(ei.value.__cause__, RuntimeError)
    for p in others:
        p._thread.join(timeout=10)
        assert not p._thread.is_alive()
        assert p.state is ProcState.FAILED and p.exception is None
        assert p.clock == (0.0 if not boom_at or p.name == "waiter"
                           else 100.0)


def test_deadlock_detection_lists_blocked_processes():
    eng = Engine()
    box = Mailbox("never")

    def stuck():
        box.recv(current_process(), reason="waiting-for-godot")

    eng.spawn(stuck, name="vladimir")
    eng.spawn(stuck, name="estragon")
    with pytest.raises(DeadlockError) as ei:
        eng.run()
    msg = str(ei.value)
    assert "vladimir" in msg and "estragon" in msg
    assert "waiting-for-godot" in msg


def test_dynamic_spawn_inherits_parent_clock():
    eng = Engine()
    seen = {}

    def child():
        seen["start"] = current_process().clock
        current_process().compute(1.0)

    def parent():
        p = current_process()
        p.compute(4.0)
        eng.spawn(child, name="child")

    eng.spawn(parent, name="parent")
    makespan = eng.run()
    assert seen["start"] == pytest.approx(4.0)
    assert makespan == pytest.approx(5.0)


def test_current_process_outside_sim_raises():
    with pytest.raises(SimulationError):
        current_process()


def test_sim_api_from_host_thread_raises():
    eng = Engine()
    p = eng.spawn(lambda: None, name="idle")
    with pytest.raises(SimulationError):
        p.compute(1.0)  # not the running process


def test_results_in_spawn_order():
    eng = Engine()

    def ret(v):
        return v

    for v in ("a", "b", "c"):
        eng.spawn(ret, v, name=v)
    eng.run()
    assert eng.results() == ["a", "b", "c"]


def test_run_not_reentrant():
    eng = Engine()

    def inner():
        eng.run()

    eng.spawn(inner, name="i")
    with pytest.raises(SimProcessError) as ei:
        eng.run()
    assert isinstance(ei.value.__cause__, SimulationError)


class TestMailbox:
    def test_send_then_recv_same_time(self):
        eng = Engine()
        box = Mailbox()
        got = {}

        def sender():
            p = current_process()
            p.compute(2.0)
            box.post(p, "hello")

        def receiver():
            p = current_process()
            msg = box.recv(p)
            got["payload"] = msg.payload
            got["time"] = p.clock

        eng.spawn(sender, name="s")
        eng.spawn(receiver, name="r")
        eng.run()
        assert got["payload"] == "hello"
        assert got["time"] == pytest.approx(2.0)

    def test_recv_respects_arrival_time(self):
        eng = Engine()
        box = Mailbox()
        got = {}

        def sender():
            p = current_process()
            box.post(p, "x", arrival=7.5)

        def receiver():
            p = current_process()
            p.compute(1.0)
            box.recv(p)
            got["t"] = p.clock

        eng.spawn(sender, name="s")
        eng.spawn(receiver, name="r")
        eng.run()
        assert got["t"] == pytest.approx(7.5)

    def test_recv_already_arrived_keeps_receiver_clock(self):
        eng = Engine()
        box = Mailbox()
        got = {}

        def sender():
            box.post(current_process(), "x", arrival=1.0)

        def receiver():
            p = current_process()
            p.compute(5.0)
            box.recv(p)
            got["t"] = p.clock

        eng.spawn(sender, name="s")
        eng.spawn(receiver, name="r")
        eng.run()
        assert got["t"] == pytest.approx(5.0)

    def test_match_predicate_selects_message(self):
        eng = Engine()
        box = Mailbox()
        got = {}

        def sender():
            p = current_process()
            box.post(p, "a", tag=1)
            box.post(p, "b", tag=2)

        def receiver():
            p = current_process()
            p.compute(1.0)
            msg = box.recv(p, match=lambda m: m.meta.get("tag") == 2)
            got["payload"] = msg.payload

        eng.spawn(sender, name="s")
        eng.spawn(receiver, name="r")
        eng.run()
        assert got["payload"] == "b"
        assert len(box) == 1  # tag=1 still queued

    def test_messages_fifo_per_match(self):
        eng = Engine()
        box = Mailbox()
        got = []

        def sender():
            p = current_process()
            for i in range(5):
                box.post(p, i)

        def receiver():
            p = current_process()
            p.compute(1.0)
            for _ in range(5):
                got.append(box.recv(p).payload)

        eng.spawn(sender, name="s")
        eng.spawn(receiver, name="r")
        eng.run()
        assert got == [0, 1, 2, 3, 4]

    def test_try_recv_returns_none_when_empty(self):
        eng = Engine()
        box = Mailbox()
        got = {}

        def prober():
            got["res"] = box.try_recv(current_process())

        eng.spawn(prober, name="p")
        eng.run()
        assert got["res"] is None

    def test_try_recv_ignores_future_arrivals(self):
        eng = Engine()
        box = Mailbox()
        got = {}

        def sender():
            box.post(current_process(), "later", arrival=10.0)

        def prober():
            p = current_process()
            p.compute(1.0)
            got["res"] = box.try_recv(p)

        eng.spawn(sender, name="s")
        eng.spawn(prober, name="p")
        eng.run()
        assert got["res"] is None


class TestBarrier:
    def test_all_leave_at_latest_arrival(self):
        eng = Engine()
        bar = SimBarrier(3)
        leave = {}

        def party(name, delay):
            p = current_process()
            p.compute(delay)
            bar.wait(p)
            leave[name] = p.clock

        eng.spawn(party, "a", 1.0, name="a")
        eng.spawn(party, "b", 5.0, name="b")
        eng.spawn(party, "c", 3.0, name="c")
        eng.run()
        assert leave == {"a": pytest.approx(5.0), "b": pytest.approx(5.0),
                         "c": pytest.approx(5.0)}

    def test_barrier_is_reusable(self):
        eng = Engine()
        bar = SimBarrier(2)
        gens = []

        def party(delay):
            p = current_process()
            for _ in range(3):
                p.compute(delay)
                gens.append(bar.wait(p))

        eng.spawn(party, 1.0, name="a")
        eng.spawn(party, 2.0, name="b")
        eng.run()
        assert sorted(gens) == [0, 0, 1, 1, 2, 2]


@BOTH_SCHEDULERS
class TestDeadlockDiagnosis:
    """The no-runnable-process branch: reasons, sites, wait-for cycles."""

    def test_clean_termination_is_not_a_deadlock(self, engine_cls):
        eng = engine_cls()

        def work():
            current_process().compute(1.0)

        eng.spawn(work, name="w")
        assert eng.run() == pytest.approx(1.0)

    def test_block_reason_carries_primitive_time_and_site(self, engine_cls):
        eng = engine_cls()
        box = Mailbox("never")

        def stuck():
            p = current_process()
            p.compute(2.5)
            box.recv(p, reason="mailbox:never")

        eng.spawn(stuck, name="lonely")
        with pytest.raises(DeadlockError) as ei:
            eng.run()
        msg = str(ei.value)
        assert "lonely (pid 0" in msg
        assert "waiting on mailbox:never" in msg
        assert "since t=2.5" in msg
        assert "test_sim_engine.py" in msg  # blames the recv call site

    def test_wait_for_cycle_names_ranks_and_primitives(self, engine_cls):
        eng = engine_cls()
        box_a, box_b = Mailbox("a"), Mailbox("b")
        procs = {}

        def left():
            box_a.recv(current_process(), reason="recv:a",
                       waker=procs["right"])

        def right():
            box_b.recv(current_process(), reason="recv:b",
                       waker=procs["left"])

        procs["left"] = eng.spawn(left, name="left")
        procs["right"] = eng.spawn(right, name="right")
        with pytest.raises(DeadlockError) as ei:
            eng.run()
        msg = str(ei.value)
        assert "wait-for cycle: left [recv:a] -> right [recv:b] -> left" \
            in msg

    def test_without_waker_metadata_no_cycle_is_claimed(self, engine_cls):
        eng = engine_cls()
        box = Mailbox("never")

        def stuck():
            box.recv(current_process(), reason="waiting")

        eng.spawn(stuck, name="v")
        eng.spawn(stuck, name="e")
        with pytest.raises(DeadlockError) as ei:
            eng.run()
        assert "wait-for cycle" not in str(ei.value)

    def test_broken_waker_callback_does_not_mask_the_deadlock(self, engine_cls):
        eng = engine_cls()

        def stuck():
            current_process().block(reason="custom-wait",
                                    wakers=lambda e, w: 1 / 0)

        eng.spawn(stuck, name="s")
        with pytest.raises(DeadlockError) as ei:
            eng.run()
        msg = str(ei.value)
        assert "custom-wait" in msg
        assert "wait-for cycle" not in msg

    def test_deadlock_error_from_process_surfaces_unwrapped(self, engine_cls):
        # a protocol-level detector (the MPI send/send diagnostic) raises
        # DeadlockError inside the process; the engine must not wrap it in
        # SimProcessError, which would bury the diagnosis one level down
        eng = engine_cls()
        boom = DeadlockError("protocol detector diagnosis")

        def raiser():
            raise boom

        eng.spawn(raiser, name="r")
        with pytest.raises(DeadlockError) as ei:
            eng.run()
        assert ei.value is boom


class TestFuture:
    def test_wait_before_set(self):
        eng = Engine()
        fut = Future()
        got = {}

        def setter():
            p = current_process()
            p.compute(3.0)
            fut.set(p, 42)

        def waiter():
            p = current_process()
            got["v"] = fut.wait(p)
            got["t"] = p.clock

        eng.spawn(setter, name="s")
        eng.spawn(waiter, name="w")
        eng.run()
        assert got == {"v": 42, "t": pytest.approx(3.0)}

    def test_wait_after_set_keeps_later_clock(self):
        eng = Engine()
        fut = Future()
        got = {}

        def setter():
            p = current_process()
            p.compute(1.0)
            fut.set(p, "v")

        def waiter():
            p = current_process()
            p.compute(9.0)
            fut.wait(p)
            got["t"] = p.clock

        eng.spawn(setter, name="s")
        eng.spawn(waiter, name="w")
        eng.run()
        assert got["t"] == pytest.approx(9.0)

    def test_set_twice_raises(self):
        eng = Engine()
        fut = Future()

        def setter():
            p = current_process()
            fut.set(p, 1)
            fut.set(p, 2)

        eng.spawn(setter, name="s")
        with pytest.raises(SimProcessError):
            eng.run()



class TestThreadCeiling:
    """A run that would hold more backing threads than the soft
    ``RLIMIT_NPROC`` is refused with a typed error before a thread starts."""

    @pytest.fixture
    def nproc_limit(self, monkeypatch):
        import resource

        real = resource.getrlimit

        def limit(soft):
            monkeypatch.setattr(resource, "getrlimit", lambda which: (
                (soft, resource.RLIM_INFINITY)
                if which == resource.RLIMIT_NPROC else real(which)))

        return limit

    @staticmethod
    def _work():
        current_process().compute(1.0)

    @staticmethod
    def _steps_work():
        yield from current_process().checkpoint_steps()

    def test_run_refused_before_any_thread_starts(self, nproc_limit,
                                                  thread_starts):
        nproc_limit(3)
        eng = Engine()
        for i in range(4):
            eng.spawn(self._work, name=f"w{i}")
        with pytest.raises(ConfigurationError,
                           match=r"needs 4 process threads .* allows 3"):
            eng.run()
        assert thread_starts == []

    def test_threadless_processes_do_not_count(self, nproc_limit,
                                               thread_starts):
        nproc_limit(2)
        eng = Engine()
        for i in range(2):
            eng.spawn(self._work, name=f"w{i}")
        for i in range(5):
            eng.spawn(self._steps_work, name=f"s{i}")
        assert eng.run() == 1.0
        assert thread_starts == ["sim:w0", "sim:w1"]

    def test_spawn_while_running_refused(self, nproc_limit, thread_starts):
        nproc_limit(2)
        eng = Engine()

        def parent():
            eng.spawn(self._steps_work, name="threadless")
            eng.spawn(self._work, name="third")

        eng.spawn(parent, name="p")
        eng.spawn(self._work, name="w")
        with pytest.raises(SimProcessError) as ei:
            eng.run()
        assert isinstance(ei.value.__cause__, ConfigurationError)
        assert "needs 3 process threads" in str(ei.value.__cause__)
        assert thread_starts == ["sim:p", "sim:w"]
