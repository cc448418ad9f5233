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
            a = read_split_records(fs, p, "big.txt", 0, 7, lookahead=64)
            b = read_split_records(fs, p, "big.txt", 7, len(payload),
                                   lookahead=64)
            out["a"], out["b"] = a, b

        cl.spawn(reader, node_id=0, name="r")
        cl.run()
        assert out["a"] == [b"head", big]
        assert out["b"] == [b"tail"]

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
                collected.extend(
                    read_split_records(fs, p, "f.txt", a, b, lookahead=128))

        cl.spawn(reader, node_id=0, name="r")
        cl.run()
        assert collected == [b"first", big, b"last"]


class TestRDDCheckpoint:
    def make_sc(self):
        return SparkContext(
            Cluster(TESTING_MACHINE, trace=forced_trace()),
            executors_per_node=2, app_startup=0.1)

    def test_checkpoint_survives_total_executor_loss(self):
        """Unlike cache, a checkpointed RDD never recomputes — even when
        every executor that computed it is gone."""
        sc = self.make_sc()

        def app(sc):
            acc = sc.accumulator(0)

            def spy(x):
                acc.add(1)
                return x * x

            rdd = sc.parallelize(range(100), 4).map(spy).checkpoint()
            assert rdd.sum() == sum(x * x for x in range(100))
            first = acc.value
            for eid in range(len(sc.env.executors) - 1):
                sc.kill_executor(eid)  # keep one alive to run tasks
            assert rdd.sum() == sum(x * x for x in range(100))
            return first, acc.value

        first, total = sc.run(app).value
        assert first == 100
        assert total == 100  # zero recomputation after the massacre

    def test_checkpoint_read_is_timed(self):
        def timed(checkpointed):
            sc = self.make_sc()

            def app(sc):
                import repro.sim as sim

                rdd = sc.parallelize(range(1000), 4).map(lambda x: x)
                if checkpointed:
                    rdd = rdd.checkpoint()
                rdd.count()
                t0 = sim.current_process().clock
                rdd.count()
                return sim.current_process().clock - t0

            return sc.run(app).value

        # the second count reads the checkpoint: cheaper than a full
        # recompute would not necessarily hold, but it must cost > 0 I/O
        assert timed(True) > 0

    def test_checkpoint_beats_recompute_for_expensive_lineage(self):
        def timed(checkpointed):
            sc = self.make_sc()

            def app(sc):
                import repro.sim as sim

                rdd = sc.parallelize(range(2000), 4).map(
                    lambda x: x, cost=1e-3)
                if checkpointed:
                    rdd = rdd.checkpoint()
                rdd.count()
                sc.kill_executor(0)  # drop any cached/block state
                t0 = sim.current_process().clock
                rdd.count()
                return sim.current_process().clock - t0

            return sc.run(app).value

        assert timed(True) < timed(False)
