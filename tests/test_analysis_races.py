"""Happens-before race checker: hand-built traces and live-engine runs.

Hand-built :class:`TraceEvent` streams pin the checker's algebra (the
FastTrack condition, range overlap, atomics, dedup); the live-engine tests
pin the instrumentation: a planted unsynchronized conflict is reported,
and the same conflict ordered through each sync primitive is not.
"""

from __future__ import annotations

import pytest

from repro.analysis import check_trace
from repro.cluster import Cluster
from repro.errors import TraceSchemaError
from repro.fs import BytesContent, LocalFS, NFSFileSystem
from repro.sim import Engine, Mailbox, SimBarrier, Trace, TraceEvent
from repro.sim.sync import Future, SimLock
from repro.sim.trace import validate_events
from tests.conftest import TESTING_MACHINE


def mem(t, proc, op, loc, pid, vc, **detail):
    detail = {"loc": loc, "pid": pid, "vc": vc, **detail}
    return TraceEvent(t, proc, f"mem.{op}", detail)


# ---------------------------------------------------------------------------
# hand-built traces
# ---------------------------------------------------------------------------


def test_unordered_writes_race():
    report = check_trace([
        mem(1.0, "a", "write", "x", 1, {1: 1}),
        mem(2.0, "b", "write", "x", 2, {2: 1}),
    ])
    assert not report.clean
    (race,) = report.races
    assert race.loc == "x"
    assert {race.first.pid, race.second.pid} == {1, 2}
    assert "no happens-before edge" in race.describe()


def test_write_read_race_and_read_read_ok():
    report = check_trace([
        mem(1.0, "a", "write", "x", 1, {1: 1}),
        mem(2.0, "b", "read", "x", 2, {2: 1}),
    ])
    assert len(report.races) == 1
    report = check_trace([
        mem(1.0, "a", "read", "x", 1, {1: 1}),
        mem(2.0, "b", "read", "x", 2, {2: 1}),
    ])
    assert report.clean


def test_happens_before_edge_suppresses_race():
    # b's clock has seen a's epoch (vc[1] >= 1): release/acquire ordered
    report = check_trace([
        mem(1.0, "a", "write", "x", 1, {1: 1}),
        mem(2.0, "b", "write", "x", 2, {1: 1, 2: 1}),
    ])
    assert report.clean
    # ... but seeing an OLDER epoch of pid 1 is not enough
    report = check_trace([
        mem(1.0, "a", "write", "x", 1, {1: 5}),
        mem(2.0, "b", "write", "x", 2, {1: 4, 2: 1}),
    ])
    assert not report.clean


def test_same_process_program_order_never_races():
    report = check_trace([
        mem(1.0, "a", "write", "x", 1, {1: 1}),
        mem(2.0, "a", "write", "x", 1, {1: 1}),
    ])
    assert report.clean


def test_disjoint_ranges_do_not_conflict():
    a = mem(1.0, "a", "write", "arr", 1, {1: 1}, start=0, stop=4)
    b = mem(2.0, "b", "write", "arr", 2, {2: 1}, start=4, stop=8)
    assert check_trace([a, b]).clean
    c = mem(2.0, "b", "write", "arr", 2, {2: 1}, start=3, stop=5)
    assert not check_trace([a, c]).clean


def test_unranged_access_covers_whole_location():
    a = mem(1.0, "a", "write", "arr", 1, {1: 1})
    b = mem(2.0, "b", "write", "arr", 2, {2: 1}, start=7, stop=8)
    assert not check_trace([a, b]).clean


def test_atomic_pairs_are_exempt_but_mixed_is_not():
    a = mem(1.0, "a", "write", "ctr", 1, {1: 1}, atomic=True)
    b = mem(2.0, "b", "write", "ctr", 2, {2: 1}, atomic=True)
    assert check_trace([a, b]).clean
    plain = mem(2.0, "b", "write", "ctr", 2, {2: 1})
    assert not check_trace([a, plain]).clean


def test_races_dedup_per_location_and_pid_pair():
    events = [
        mem(float(i), "a" if i % 2 == 0 else "b", "write", "x",
            1 if i % 2 == 0 else 2, {(1 if i % 2 == 0 else 2): i + 1})
        for i in range(10)
    ]
    report = check_trace(events)
    assert len(report.races) == 1     # one per (loc, pid pair, op pair)
    assert report.accesses == 10


def test_max_races_cap():
    events = []
    for i in range(30):
        events.append(mem(float(i), f"w{i}", "write", f"loc{i % 25}",
                          100 + i, {100 + i: 1}))
        events.append(mem(float(i) + 0.5, f"v{i}", "write", f"loc{i % 25}",
                          200 + i, {200 + i: 1}))
    report = check_trace(events, max_races=5)
    assert len(report.races) == 5


def test_non_mem_events_are_ignored():
    report = check_trace([
        TraceEvent(0.5, "a", "mpi.send", {"dst": 1}),
        mem(1.0, "a", "write", "x", 1, {1: 1}),
    ])
    assert report.clean and report.accesses == 1


def test_schema_validation_on_external_streams():
    with pytest.raises(TraceSchemaError):
        check_trace([TraceEvent(-1.0, "a", "mem.write", {})])
    with pytest.raises(TraceSchemaError):
        check_trace([
            mem(2.0, "a", "write", "x", 1, {1: 1}),
            mem(1.0, "a", "write", "x", 1, {1: 2}),   # time goes backwards
        ])
    with pytest.raises(TraceSchemaError):
        validate_events([object()])


def test_mem_event_without_vc_is_an_error():
    from repro.errors import AnalysisError

    with pytest.raises(AnalysisError):
        check_trace([TraceEvent(1.0, "a", "mem.write", {"loc": "x"})])


# ---------------------------------------------------------------------------
# live engine: planted race vs properly synchronized variants
# ---------------------------------------------------------------------------


def run_pair(body_a, body_b):
    """Run two processes under an hb trace; return the race report."""
    trace = Trace(hb=True)
    engine = Engine(trace=trace)
    engine.spawn(body_a, name="a")
    engine.spawn(body_b, name="b")
    engine.run()
    return check_trace(trace)


def me():
    from repro.sim import current_process

    return current_process()


def touch(trace, op, loc):
    trace.access(me(), op, loc)


def test_live_planted_race_is_reported():
    trace = Trace(hb=True)
    engine = Engine(trace=trace)

    def writer_a():
        touch(trace, "write", "shared")

    def writer_b():
        touch(trace, "write", "shared")

    engine.spawn(writer_a, name="a")
    engine.spawn(writer_b, name="b")
    engine.run()
    report = check_trace(trace)
    assert len(report.races) == 1
    assert report.races[0].loc == "shared"


@pytest.mark.parametrize("fs_cls", [NFSFileSystem, LocalFS])
def test_live_unordered_file_write_and_read_race(fs_cls):
    # an append covers the whole file (no offsets), so it meets any read
    trace = Trace(hb=True)
    cluster = Cluster(TESTING_MACHINE.with_nodes(1), trace=trace)
    fs = fs_cls(cluster)
    fs.create("shared.txt", BytesContent(b"x" * 100))

    def writer():
        fs.write(me(), "shared.txt", 100)

    def reader():
        fs.read(me(), "shared.txt", 0, 100)

    cluster.spawn(writer, node_id=0, name="w")
    cluster.spawn(reader, node_id=0, name="r")
    cluster.run()
    report = check_trace(trace)
    assert len(report.races) == 1
    assert report.races[0].loc.startswith(f"{fs.scheme}:shared.txt")


def test_live_mailbox_edge_orders_accesses():
    trace = Trace(hb=True)
    engine = Engine(trace=trace)
    box = Mailbox("box")

    def producer():
        touch(trace, "write", "shared")
        box.post(me(), "ready")

    def consumer():
        box.recv(me())
        touch(trace, "read", "shared")

    engine.spawn(producer, name="p")
    engine.spawn(consumer, name="c")
    engine.run()
    assert check_trace(trace).clean


def test_live_barrier_edge_orders_accesses_without_false_ordering():
    trace = Trace(hb=True)
    engine = Engine(trace=trace)
    barrier = SimBarrier(3, name="bar")

    # pre-barrier writes to distinct slots, post-barrier reads of every
    # slot: ordered through the barrier, hence clean ...
    def worker(slot):
        def body():
            touch(trace, "write", f"slot{slot}")
            barrier.wait(me())
            for s in range(3):
                touch(trace, "read", f"slot{s}")
        return body

    for i in range(3):
        engine.spawn(worker(i), name=f"w{i}")
    engine.run()
    assert check_trace(trace).clean

    # ... while two POST-barrier writers to one location stay unordered
    # (the barrier must not invent edges between its waiters' later work)
    trace2 = Trace(hb=True)
    engine2 = Engine(trace=trace2)
    barrier2 = SimBarrier(2, name="bar2")

    def post_writer():
        barrier2.wait(me())
        touch(trace2, "write", "after")

    engine2.spawn(post_writer, name="x")
    engine2.spawn(post_writer, name="y")
    engine2.run()
    assert len(check_trace(trace2).races) == 1


def test_live_lock_edge_orders_accesses():
    trace = Trace(hb=True)
    engine = Engine(trace=trace)
    lock = SimLock("l")

    def guarded():
        lock.acquire(me())
        touch(trace, "write", "guarded")
        lock.release(me())

    engine.spawn(guarded, name="a")
    engine.spawn(guarded, name="b")
    engine.run()
    assert check_trace(trace).clean


def test_live_future_edge_orders_accesses():
    trace = Trace(hb=True)
    engine = Engine(trace=trace)
    fut = Future("f")

    def producer():
        touch(trace, "write", "result")
        fut.set(me(), 42)

    def consumer():
        assert fut.wait(me()) == 42
        touch(trace, "read", "result")

    engine.spawn(producer, name="p")
    engine.spawn(consumer, name="c")
    engine.run()
    assert check_trace(trace).clean


def test_live_spawn_edge_orders_parent_child():
    trace = Trace(hb=True)
    engine = Engine(trace=trace)

    def parent():
        touch(trace, "write", "handoff")

        def child():
            touch(trace, "read", "handoff")

        engine.spawn(child, name="child")

    engine.spawn(parent, name="parent")
    engine.run()
    assert check_trace(trace).clean


def test_hb_off_records_no_accesses():
    trace = Trace()          # enabled, but hb off
    engine = Engine(trace=trace)

    def body():
        from repro.sim import current_process

        proc = current_process()
        assert proc.vc is None
        trace.access(proc, "write", "x")

    engine.spawn(body, name="a")
    engine.run()
    assert [e for e in trace.events if e.kind.startswith("mem.")] == []


def test_hb_requires_enabled():
    with pytest.raises(TraceSchemaError):
        Trace(enabled=False, hb=True)
