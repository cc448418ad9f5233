"""Unit tests for fluid fair-share and FIFO resources."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.spec import TESTING
from repro.cluster.storage import StorageDevice
from repro.errors import DeadlockError, SimProcessError, SimulationError
from repro.sim import Engine, FifoResource, FluidResource, current_process
from repro.sim.process import ProcState
from repro.sim.resources import FlowSystem
from repro.sim.sync import Future
from tests.conftest import TESTING_MACHINE, forced_trace
from tests.sim_oracle import ReferenceEngine, ReferenceFlowSystem


def run_transfers(specs, capacity=100.0, efficiency=None):
    """Run transfers through one shared resource.

    ``specs`` is a list of ``(start_delay, nbytes)``; returns the completion
    time of each transfer, in spec order.
    """
    eng = Engine(trace=forced_trace())
    fs = FlowSystem()
    res = FluidResource("r", capacity, efficiency=efficiency)
    done = [None] * len(specs)

    def proc(i, delay, nbytes):
        p = current_process()
        p.compute(delay)
        done[i] = fs.transfer(p, (res,), nbytes, label=f"t{i}")

    for i, (delay, nbytes) in enumerate(specs):
        eng.spawn(proc, i, delay, nbytes, name=f"p{i}")
    eng.run()
    return done


class TestFluidSingleResource:
    def test_solo_transfer_full_bandwidth(self):
        done = run_transfers([(0.0, 1000.0)], capacity=100.0)
        assert done[0] == pytest.approx(10.0)

    def test_two_equal_transfers_share_fairly(self):
        # Both start at t=0, 1000 bytes each at 100 B/s total -> both done at 20.
        done = run_transfers([(0.0, 1000.0), (0.0, 1000.0)], capacity=100.0)
        assert done[0] == pytest.approx(20.0)
        assert done[1] == pytest.approx(20.0)

    def test_late_arrival_slows_first_flow(self):
        # Flow A: 1000 B alone from t=0 at 100 B/s.  B arrives at t=5 with
        # 250 B.  From t=5 both run at 50 B/s; B finishes at t=10; A then has
        # 250 B left at full rate -> A done at 12.5.
        done = run_transfers([(0.0, 1000.0), (5.0, 250.0)], capacity=100.0)
        assert done[1] == pytest.approx(10.0)
        assert done[0] == pytest.approx(12.5)

    def test_finish_releases_bandwidth_early(self):
        # A (200 B) and B (1000 B) both start at t=0 at 50 B/s each.
        # A done at t=4; B then speeds up: 800 B left at 100 B/s -> t=12.
        done = run_transfers([(0.0, 200.0), (0.0, 1000.0)], capacity=100.0)
        assert done[0] == pytest.approx(4.0)
        assert done[1] == pytest.approx(12.0)

    def test_zero_byte_transfer_is_free(self):
        done = run_transfers([(3.0, 0.0)])
        assert done[0] == pytest.approx(3.0)

    def test_efficiency_curve_degrades_aggregate(self):
        # 3 concurrent flows with eff(3)=0.5: aggregate 50 B/s -> each 16.66.
        eff = lambda n: 0.5 if n >= 3 else 1.0  # noqa: E731
        done = run_transfers(
            [(0.0, 100.0)] * 3, capacity=100.0, efficiency=eff
        )
        # all three finish together: 300 bytes / 50 Bps = 6.0
        for d in done:
            assert d == pytest.approx(6.0)

    def test_many_flows_conserve_work(self):
        # Total bytes / capacity is a lower bound on the last completion.
        specs = [(i * 0.1, 100.0 * (i + 1)) for i in range(10)]
        done = run_transfers(specs, capacity=123.0)
        total = sum(n for _, n in specs)
        assert max(done) >= total / 123.0 - 1e-6

    def test_negative_size_rejected(self):
        with pytest.raises(SimProcessError):
            run_transfers([(0.0, -5.0)])


class TestFluidMultiResource:
    def test_flow_rate_is_min_share_across_resources(self):
        """Incast: two senders, one receiver NIC is the bottleneck."""
        eng = Engine(trace=forced_trace())
        fs = FlowSystem()
        tx = [FluidResource(f"tx{i}", 100.0) for i in range(2)]
        rx = FluidResource("rx", 100.0)
        done = [None, None]

        def sender(i):
            p = current_process()
            done[i] = fs.transfer(p, (tx[i], rx), 500.0, label=f"s{i}")

        eng.spawn(sender, 0, name="s0")
        eng.spawn(sender, 1, name="s1")
        eng.run()
        # Each sender has a private 100 B/s tx but shares rx: 50 B/s each.
        assert done[0] == pytest.approx(10.0)
        assert done[1] == pytest.approx(10.0)

    def test_rate_cap_clamps_flow(self):
        eng = Engine(trace=forced_trace())
        fs = FlowSystem()
        res = FluidResource("r", 1000.0)
        done = {}

        def proc():
            p = current_process()
            done["t"] = fs.transfer(p, (res,), 100.0, rate_cap=10.0)

        eng.spawn(proc, name="p")
        eng.run()
        assert done["t"] == pytest.approx(10.0)

    def test_flow_system_empties_after_run(self):
        eng = Engine(trace=forced_trace())
        fs = FlowSystem()
        res = FluidResource("r", 10.0)

        def proc():
            fs.transfer(current_process(), (res,), 100.0)

        eng.spawn(proc, name="p")
        eng.run()
        assert fs.active_count == 0
        assert len(res.flows) == 0


class TestFifoResource:
    def test_serial_operations_queue(self):
        eng = Engine(trace=forced_trace())
        res = FifoResource("disk", channels=1)
        done = []

        def proc(delay):
            p = current_process()
            p.compute(delay)
            res.use(p, 10.0)
            done.append((p.name, p.clock))

        eng.spawn(proc, 0.0, name="a")
        eng.spawn(proc, 1.0, name="b")
        eng.run()
        times = dict(done)
        assert times["a"] == pytest.approx(10.0)
        assert times["b"] == pytest.approx(20.0)  # queued behind a

    def test_channels_allow_parallelism(self):
        eng = Engine(trace=forced_trace())
        res = FifoResource("disk", channels=2)
        done = []

        def proc():
            p = current_process()
            res.use(p, 10.0)
            done.append(p.clock)

        for i in range(2):
            eng.spawn(proc, name=f"p{i}")
        eng.run()
        assert done == [pytest.approx(10.0)] * 2

    def test_acquire_returns_window(self):
        res = FifoResource("r")
        s1, e1 = res.acquire(0.0, 5.0)
        s2, e2 = res.acquire(1.0, 5.0)
        assert (s1, e1) == (0.0, 5.0)
        assert (s2, e2) == (5.0, 10.0)


class TestContentionFastPaths:
    """Regressions for the uncontended fast paths added to this module."""

    def test_fifo_contended_order_is_arrival_order(self):
        # Five single-channel users arriving at staggered virtual times must
        # be served strictly in arrival order (FIFO), with no overlap — the
        # single-channel idx=0 fast path must not reorder the queue.
        eng = Engine(trace=forced_trace())
        res = FifoResource("dev", channels=1)
        windows = []

        def proc(i):
            p = current_process()
            p.compute(i * 1.0)  # arrive at t=i
            start_clock = p.clock
            res.use(p, 10.0)
            windows.append((i, start_clock, p.clock))

        for i in range(5):
            eng.spawn(proc, i, name=f"p{i}")
        eng.run()
        windows.sort()
        ends = [w[2] for w in windows]
        # strict FIFO: process i ends at (i+1)*10 despite arriving at t=i
        assert ends == [pytest.approx((i + 1) * 10.0) for i in range(5)]

    def test_fifo_same_arrival_served_in_pid_order(self):
        # Equal arrival times tie-break on pid (spawn order), matching the
        # engine's deterministic (clock, pid) schedule.
        eng = Engine(trace=forced_trace())
        res = FifoResource("dev", channels=1)
        ends = {}

        def proc(i):
            p = current_process()
            res.use(p, 5.0)
            ends[i] = p.clock

        for i in range(3):
            eng.spawn(proc, i, name=f"p{i}")
        eng.run()
        assert [ends[i] for i in range(3)] == [
            pytest.approx(5.0), pytest.approx(10.0), pytest.approx(15.0)]

    def test_uncontended_transfer_matches_contended_formula(self):
        # A solo flow (restricted recompute) prices identically to the same
        # flow passing through the full recompute with a zero-byte companion.
        solo = run_transfers([(0.0, 1000.0)], capacity=100.0)
        with_noop = run_transfers([(0.0, 1000.0), (3.0, 0.0)], capacity=100.0)
        assert solo[0] == with_noop[0] == pytest.approx(10.0)

    def test_remove_skips_recompute_when_system_drains(self):
        # Back-to-back solo transfers: the system empties between them and
        # the second still prices at full bandwidth.
        eng = Engine(trace=forced_trace())
        fs = FlowSystem()
        res = FluidResource("r", 100.0)
        done = []

        def proc():
            p = current_process()
            done.append(fs.transfer(p, (res,), 500.0))
            done.append(fs.transfer(p, (res,), 500.0))

        eng.spawn(proc, name="p")
        eng.run()
        assert done == [pytest.approx(5.0), pytest.approx(10.0)]
        assert fs.active_count == 0


def in_one_process(body, *, capacity=100.0, efficiency=None):
    """Run ``body(proc, fs, res)`` in a lone process; return what it returns."""
    eng = Engine(trace=forced_trace())
    fs = FlowSystem()
    res = FluidResource("r", capacity, efficiency=efficiency)
    p = eng.spawn(lambda: body(current_process(), fs, res), name="p")
    eng.run()
    return p.result


class TestRejectedTransfers:
    """A transfer the flow system refuses must leave it as it found it."""

    def test_bad_rate_cap_leaves_no_ghost_flow(self):
        def body(p, fs, res):
            for cap in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(SimulationError, match="rate_cap"):
                    fs.transfer(p, (res,), 10.0, rate_cap=cap)
                assert fs.active_count == 0 and not res.flows
            return fs.transfer(p, (res,), 500.0)  # the next, innocent one

        assert in_one_process(body) == pytest.approx(5.0)

    def test_bad_efficiency_backs_the_arrival_out(self):
        # Fine alone, out of (0, 1] for two: the second arrival is refused,
        # in a step the token holder runs (it is not the minimum when it
        # arrives), and the flow already in flight must not notice.
        eng = Engine(trace=forced_trace())
        fs = FlowSystem()
        res = FluidResource("r", 100.0,
                            efficiency=lambda n: 1.0 if n == 1 else 1.5)
        done = {}

        def first():
            done["first"] = fs.transfer(current_process(), (res,), 1000.0)

        def second():
            p = current_process()
            p.compute(2.0)
            with pytest.raises(SimulationError, match="efficiency"):
                fs.transfer(p, (res,), 10.0)
            done["refused_at"] = p.clock
            assert fs.active_count == 1 and len(res.flows) == 1
            p.compute(20.0)
            done["second"] = fs.transfer(p, (res,), 100.0)

        eng.spawn(first, name="first")
        eng.spawn(second, name="second")
        eng.run()
        assert done == {"first": 10.0, "refused_at": 2.0, "second": 23.0}
        assert fs.active_count == 0

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("entry", ["constructor", "set_capacity"])
    def test_capacity_must_be_finite_and_positive(self, entry, capacity):
        res = FluidResource("disk", 100.0)
        make = {
            "constructor": lambda: FluidResource("disk", capacity),
            "set_capacity": lambda: FlowSystem().set_capacity(
                res, capacity, 0.0),
        }[entry]
        with pytest.raises(SimulationError, match="'disk'.*finite and > 0"):
            make()
        assert res.capacity == 100.0

    def test_a_nan_bandwidth_machine_fails_at_cluster(self):
        fab = dataclasses.replace(TESTING.fabrics[0], bandwidth=math.nan)
        machine = TESTING_MACHINE.with_(cluster=dataclasses.replace(
            TESTING, fabrics=(fab, *TESTING.fabrics[1:])))
        with pytest.raises(SimulationError, match=f"'{fab.name}:tx"):
            Cluster(machine)

    @pytest.mark.parametrize("nbytes", [math.nan, math.inf, -math.inf, -5.0])
    def test_non_finite_sizes_are_not_free(self, nbytes):
        def body(p, fs, res):
            dev = StorageDevice("dev", fs, read_bw=100.0, write_bw=100.0,
                                latency=0.0)
            for move in (lambda: fs.transfer(p, (res,), nbytes),
                         lambda: dev.read(p, nbytes),
                         lambda: dev.write(p, nbytes)):
                with pytest.raises(SimulationError) as ei:
                    move()
                assert repr(nbytes) in str(ei.value)
            return p.clock, fs.active_count

        assert in_one_process(body) == (0.0, 0)


# -- production flow system vs. the reference one ---------------------------

def _curve(n):
    return 1.0 if n <= 2 else max(0.5, 1.0 - 0.1 * (n - 2))


def run_program(engine_cls, flow_cls, resources, workers, stall):
    """Run one generated program; return ``{(worker, transfer): hex time}``.

    ``resources``: ``(capacity, curved)`` each.  ``workers``: ``(start,
    [(resource mask, nbytes, rate_cap, gap), ...])`` each.  ``stall``:
    ``(at, resource index, factor, duration)`` — the fault injector's
    ``disk_stall``: capacity down by ``factor``, back up after ``duration``.
    """
    eng = engine_cls(trace=forced_trace())
    fs = flow_cls()
    res = [FluidResource(f"r{i}", cap, efficiency=_curve if curved else None)
           for i, (cap, curved) in enumerate(resources)]
    done = {}

    def worker(i, start, transfers):
        p = current_process()
        p.compute(start)
        for j, (mask, nbytes, cap, gap) in enumerate(transfers):
            used = [r for k, r in enumerate(res) if mask >> k & 1] or res[:1]
            t = fs.transfer(p, used, nbytes, rate_cap=cap, label=f"w{i}.{j}")
            assert t == p.clock
            done[i, j] = t.hex()
            p.compute(gap)

    def injector(at, index, factor, duration):
        p = current_process()
        pool = res[index % len(res)]
        p.park_until(at, reason="fault:timer")
        fs.set_capacity(pool, pool.capacity / factor, p.clock)
        p.park_until(at + duration, reason="fault:timer")
        fs.set_capacity(pool, pool.capacity * factor, p.clock)

    for i, (start, transfers) in enumerate(workers):
        eng.spawn(worker, i, start, transfers, name=f"w{i}")
    if stall is not None:
        eng.spawn(injector, *stall, name="fault:injector")
    eng.run()
    assert fs.active_count == 0 and not any(r.flows for r in res)
    return done


def assert_all_four_agree(resources, workers, stall):
    want = run_program(ReferenceEngine, ReferenceFlowSystem,
                       resources, workers, stall)
    assert len(want) == sum(len(t) for _, t in workers)
    for engine_cls, flow_cls in ((Engine, FlowSystem),
                                 (ReferenceEngine, FlowSystem),
                                 (Engine, ReferenceFlowSystem)):
        got = run_program(engine_cls, flow_cls, resources, workers, stall)
        assert got == want, (engine_cls.__name__, flow_cls.__name__)
    return want


_sizes = st.floats(0.0, 6.0).map(lambda e: 10.0 ** e)  # six decades
_transfer = st.tuples(
    st.integers(0, 7), _sizes,
    st.none() | st.floats(0.5, 500.0), st.floats(0.0, 0.5))
_worker = st.tuples(st.floats(0.0, 5.0) | st.just(0.0),
                    st.lists(_transfer, min_size=1, max_size=4))


@given(
    resources=st.lists(st.tuples(st.floats(10.0, 1000.0), st.booleans()),
                       min_size=1, max_size=3),
    workers=st.lists(_worker, min_size=2, max_size=12),
    stall=st.none() | st.tuples(st.floats(0.0, 20.0), st.integers(0, 2),
                                st.floats(1.5, 50.0), st.floats(0.0, 20.0)),
)
@settings(max_examples=60, deadline=None)
def test_completion_times_match_the_reference_flow_system(
        resources, workers, stall):
    assert_all_four_agree(resources, workers, stall)


def test_disk_stall_that_reorders_two_finishes_gives_reference_times():
    # w0 would finish at 10, w1 (other pool) at 12; stalling w0's pool from
    # t=2 to t=8 pushes w0 behind w1, so the queued minimum changes hands
    # twice without either owner running in between.
    want = assert_all_four_agree(
        resources=[(100.0, False), (100.0, False)],
        workers=[(0.0, [(0b01, 1000.0, None, 0.0)]),
                 (0.0, [(0b10, 1200.0, None, 0.0)])],
        stall=(2.0, 0, 10.0, 6.0))
    assert {k: float.fromhex(v) for k, v in want.items()} == {
        (0, 0): pytest.approx(15.4), (1, 0): pytest.approx(12.0)}


# -- what the run queue sees ---------------------------------------------------

class TestQueueOneOwner:
    def _stream(self, eng, fs, res, nprocs=16, chunks=40):
        def stream(i):
            p = current_process()
            p.compute(i * 1e-3)
            for j in range(chunks):
                fs.transfer(p, (res,), 64.0 + i + j, label=f"s{i}.{j}")

        for i in range(nprocs):
            eng.spawn(stream, i, name=f"s{i}")
        return nprocs * chunks

    def test_at_most_three_pushes_per_transfer(self, monkeypatch):
        pushes = []
        real_push = Engine._push
        monkeypatch.setattr(
            Engine, "_push",
            lambda self, proc: (pushes.append(proc), real_push(self, proc)))
        eng = Engine(trace=forced_trace())
        fs = FlowSystem()
        transfers = self._stream(eng, fs, FluidResource("ssd", 1000.0))
        eng.run()
        assert fs.active_count == 0
        # Past each process's start: the owner's own park, plus at most one
        # owner queued per event (arrival, finish).  Re-queueing every
        # revised owner, as the reference flow system does, is ~26.
        assert len(pushes) - len(eng.processes) <= 3 * transfers

    def test_invariant_holds_after_every_recompute(self, monkeypatch):
        eng = Engine(trace=forced_trace())
        fs = FlowSystem()
        checked = []
        real_recompute = FlowSystem._recompute

        def recompute_and_check(self, *args):
            real_recompute(self, *args)
            parked = [f for f in self.flows
                      if f.owner.state is ProcState.RUNNABLE]
            live = {proc: clock for clock, _pid, seq, proc in eng._heap
                    if seq == proc._hseq and proc.state is ProcState.RUNNABLE}
            for f in parked:
                assert f.owner.clock == f.finish
                assert f.queued == (f.owner in live)
                if f.queued:
                    assert live[f.owner] == f.owner.clock
            if parked:
                first = min(parked, key=lambda f: (f.finish, f.owner.pid))
                assert first.queued
            checked.append(len(parked))

        monkeypatch.setattr(FlowSystem, "_recompute", recompute_and_check)
        self._stream(eng, fs, FluidResource("ssd", 1000.0))
        eng.run()
        # all sixteen at once: an arrival's registration runs while its own
        # owner is parked too
        assert max(checked) == 16

    def test_wedged_flow_owner_is_named_with_its_flow_and_call_site(self):
        # Lose a parked owner's run-queue entry behind its back: the run
        # must end in a diagnosis, not return with the transfer unfinished.
        eng = Engine(trace=forced_trace())
        fs = FlowSystem()
        res = FluidResource("ssd", 10.0)
        copied = Future("copied")

        def copier():
            fs.transfer(current_process(), (res,), 1000.0, label="big")
            copied.set(current_process(), True)

        def behind():
            copied.wait(current_process())

        def saboteur(victim):
            current_process().sleep(1.0)
            assert victim.state is ProcState.RUNNABLE
            victim._hseq += 1

        victim = eng.spawn(copier, name="copier")
        eng.spawn(behind, name="behind")
        eng.spawn(saboteur, victim, name="saboteur")
        with pytest.raises(DeadlockError) as ei:
            eng.run()
        lines = str(ei.value).splitlines()
        wedged = next(line for line in lines if "copier" in line)
        assert "waiting on flow:big" in wedged
        assert " at test_sim_resources.py:" in wedged  # the transfer call
        assert any("behind" in line and "copied" in line for line in lines)

