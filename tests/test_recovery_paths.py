"""Recovery and boundary paths that only trigger under adversity."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.fs import LocalFS
from repro.fs.content import BytesContent
from repro.fs.records import read_split_records
from repro.sim import current_process
from repro.spark import SparkContext
from repro.spark import scheduler as sched
from tests.conftest import TESTING_MACHINE, forced_trace


class TestMidJobFetchFailure:
    def test_lost_map_outputs_mid_stage_recovered(self):
        """A reduce stage finds map outputs gone *while running*: the job
        retries, re-runs the holes, and still produces the right answer."""
        sc = SparkContext(
            Cluster(TESTING_MACHINE, trace=forced_trace()),
            executors_per_node=2, app_startup=0.1)
        stage_runs = []
        orig = sched.DAGScheduler._run_stage

        def spy(self, stage, partitions, fn):
            stage_runs.append((stage.is_result, tuple(partitions)))
            return orig(self, stage, partitions, fn)

        sabotage = {"armed": True}

        def app(sc):
            counts = sc.parallelize([(i % 3, 1) for i in range(90)], 4)\
                .reduce_by_key(lambda a, b: a + b, 4)
            shuffle_id = counts.shuffle_dep.shuffle_id

            def poison(kv):
                # the first reduce-side record processed loses a map output
                # and hits the resulting fetch failure, emulating an
                # executor dying right after its map finished
                if sabotage["armed"]:
                    sabotage["armed"] = False
                    sc.env.tracker.unregister_executor(executor_id=0)
                    raise sched.FetchFailedError(shuffle_id)
                return kv

            sched.DAGScheduler._run_stage = spy.__get__(sc._scheduler)
            try:
                return dict(counts.map(poison).collect())
            finally:
                sched.DAGScheduler._run_stage = orig

        result = sc.run(app).value
        assert result == {0: 30, 1: 30, 2: 30}
        # the map stage ran at least twice (initial + hole re-run)
        map_runs = [r for r in stage_runs if not r[0]]
        assert len(map_runs) >= 2

    def test_job_aborts_after_retry_budget(self):
        from repro.errors import JobAbortedError, SimProcessError

        sc = SparkContext(
            Cluster(TESTING_MACHINE, trace=forced_trace()),
            executors_per_node=2, app_startup=0.1)

        def app(sc):
            counts = sc.parallelize([(1, 1)] * 10, 2)\
                .reduce_by_key(lambda a, b: a + b, 2)
            shuffle_id = counts.shuffle_dep.shuffle_id

            def always_poison(kv):
                for eid in range(4):
                    sc.env.tracker.unregister_executor(eid)
                raise sched.FetchFailedError(shuffle_id)

            return counts.map(always_poison).collect()

        with pytest.raises(SimProcessError) as ei:
            sc.run(app)
        assert isinstance(ei.value.__cause__, JobAbortedError)


class TestOversizedRecords:
    def test_record_longer_than_lookahead_window(self):
        """A record spanning multiple lookahead probes is still stitched
        together exactly once."""
        big = b"B" * 5000
        payload = b"head\n" + big + b"\ntail\n"
        cl = Cluster(TESTING_MACHINE, trace=forced_trace())
        fs = LocalFS(cl)
        fs.create_replicated("big.txt", BytesContent(payload))
        out = {}

        def reader():
            p = current_process()
            # split boundary falls inside the big record; tiny lookahead
            a = p.run_steps(
                read_split_records(fs, p, "big.txt", 0, 7, lookahead=64))
            b = p.run_steps(read_split_records(fs, p, "big.txt", 7,
                                               len(payload), lookahead=64))
            out["a"], out["b"] = a, b

        cl.spawn(reader, node_id=0, name="r")
        cl.run()
        assert list(out["a"]) == ["head", big.decode()]
        assert list(out["b"]) == ["tail"]

    def test_split_entirely_inside_one_record(self):
        big = b"X" * 2000
        payload = b"first\n" + big + b"\nlast\n"
        cl = Cluster(TESTING_MACHINE, trace=forced_trace())
        fs = LocalFS(cl)
        fs.create_replicated("f.txt", BytesContent(payload))
        collected = []

        def reader():
            p = current_process()
            # three splits; the middle one starts and ends inside `big`
            for a, b in ((0, 10), (10, 1000), (1000, len(payload))):
                collected.extend(p.run_steps(
                    read_split_records(fs, p, "f.txt", a, b, lookahead=128)))

        cl.spawn(reader, node_id=0, name="r")
        cl.run()
        assert collected == ["first", big.decode(), "last"]
