"""Spark runtime mechanics: caching, locality, faults, transports, costs."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.cluster.spec import ClusterSpec, NodeSpec
from repro.errors import JobAbortedError, SimProcessError
from repro.fs import HDFS, BytesContent, LineContent, LocalFS
from repro.sim.trace import Trace
from repro.spark import SparkContext, StorageLevel
from repro.units import MiB
from tests.conftest import TESTING_MACHINE


def make_sc(nodes=2, executors_per_node=2, trace=None, **kw):
    cl = Cluster(TESTING_MACHINE.with_nodes(nodes), trace=trace)
    kw.setdefault("app_startup", 0.1)
    return SparkContext(cl, executors_per_node=executors_per_node, **kw)


def counted(sc, kind):
    """The run's count of ``kind`` over every label."""
    return sum(n for (k, *_), n in sc.cluster.trace.counters.items()
               if k == kind)


class TestCaching:
    def test_persist_avoids_recomputation_cost(self):
        """Second action over a persisted RDD is much cheaper (Fig 6's
        mechanism: 'the materialized RDDs are persisted into memory')."""

        def timed_app(persist):
            def app(sc):
                import repro.sim as sim

                rdd = sc.parallelize(range(2000), 4).map(
                    lambda x: x * 2, cost=1e-3)  # expensive map
                if persist:
                    rdd = rdd.persist(StorageLevel.MEMORY_ONLY)
                rdd.count()  # materialise
                t0 = sim.current_process().clock
                rdd.count()  # re-use (or recompute)
                return sim.current_process().clock - t0

            return make_sc().run(app).value

        assert timed_app(True) < timed_app(False) / 2

    def test_cache_actually_hit(self):
        """The expensive map runs once per partition when persisted."""
        def app(sc):
            acc = sc.accumulator(0)

            def spy(x):
                acc.add(1)
                return x

            rdd = sc.parallelize(range(100), 4).map(spy).cache()
            rdd.count()
            rdd.count()
            return acc.value

        assert make_sc().run(app).value == 100  # not 200

    def test_memory_pressure_evicts_lru(self):
        def app(sc):
            # tiny executor memory: force eviction
            rdds = []
            for i in range(8):
                r = sc.parallelize([bytes(1 * MiB)] * 2, 1).cache()
                r.count()
                rdds.append(r)
            return sum(ex.block_manager.blocks_in_memory
                       for ex in sc.env.executors)

        sc = make_sc(executor_memory=4 * MiB, trace=Trace())
        in_mem = sc.run(app).value
        assert counted(sc, "spark.storage.evict") > 0
        # MEMORY_ONLY drops an evicted block rather than spilling it
        assert counted(sc, "spark.storage.spill") == 0
        assert in_mem < 8

    def test_memory_and_disk_spills_instead_of_dropping(self):
        def app(sc):
            for _ in range(8):
                r = sc.parallelize([bytes(1 * MiB)] * 2, 1).persist(
                    StorageLevel.MEMORY_AND_DISK)
                r.count()
            bms = [ex.block_manager for ex in sc.env.executors]
            return sum(bm.blocks_on_disk for bm in bms)

        sc = make_sc(executor_memory=4 * MiB, trace=Trace())
        assert sc.run(app).value > 0
        assert counted(sc, "spark.storage.spill") > 0

    def test_unpersist_releases_blocks(self):
        def app(sc):
            r = sc.parallelize(range(10), 2).cache()
            r.count()
            held = sum(ex.block_manager.blocks_in_memory
                       for ex in sc.env.executors)
            r.unpersist()
            held_after = sum(ex.block_manager.blocks_in_memory
                             for ex in sc.env.executors)
            return held, held_after

        held, after = make_sc().run(app).value
        assert held == 2
        assert after == 0


class TestFaultTolerance:
    def test_lost_executor_cached_blocks_recomputed(self):
        """Section VI-D: lose cached partitions -> lineage recomputes them."""

        def app(sc):
            acc = sc.accumulator(0)

            def spy(x):
                acc.add(1)
                return x

            rdd = sc.parallelize(range(100), 4).map(spy).cache()
            assert rdd.count() == 100
            first_runs = acc.value
            sc.kill_executor(0)
            assert rdd.count() == 100  # still correct
            return first_runs, acc.value

        first, total = make_sc().run(app).value
        assert first == 100
        assert 100 < total <= 200  # some partitions recomputed, not all

    def test_lost_shuffle_output_reruns_map_stage(self):
        def app(sc):
            pairs = sc.parallelize([(i % 3, 1) for i in range(60)], 4)
            counts = pairs.reduce_by_key(lambda a, b: a + b, 3)
            assert dict(counts.collect()) == {0: 20, 1: 20, 2: 20}
            sc.kill_executor(0)  # drops its registered map outputs
            return dict(counts.collect())

        assert make_sc().run(app).value == {0: 20, 1: 20, 2: 20}

    def test_all_executors_dead_aborts(self):
        def app(sc):
            for i in range(len(sc.env.executors)):
                sc.kill_executor(i)
            return sc.parallelize([1], 1).count()

        with pytest.raises(SimProcessError) as ei:
            make_sc().run(app)
        assert isinstance(ei.value.__cause__, JobAbortedError)

    def test_user_exception_propagates(self):
        def app(sc):
            return sc.parallelize([1, 0], 2).map(lambda x: 1 // x).collect()

        with pytest.raises(SimProcessError) as ei:
            make_sc().run(app)
        assert isinstance(ei.value.__cause__, ZeroDivisionError)


class TestLocality:
    def _remote_bytes(self, executor_nodes, replication):
        """HDFS read job; returns bytes that crossed the network."""
        cl = Cluster(TESTING_MACHINE.with_nodes(4))
        h = HDFS(cl, block_size=200 * 1024, replication=replication)
        h.create("big.txt", LineContent(lambda i: "x" * 99, 20_000))
        moved = {"n": 0.0}
        orig = cl.network.transmit_steps

        def spy(proc, fabric, src, dst, nbytes, **kw):
            if fabric == "ipoib" and src != dst:
                moved["n"] += nbytes
            return orig(proc, fabric, src, dst, nbytes, **kw)

        cl.network.transmit_steps = spy
        sc = SparkContext(cl, executors_per_node=2, app_startup=0.1,
                          executor_nodes=executor_nodes)
        sc.run(lambda sc: sc.text_file("hdfs://big.txt").count())
        return moved["n"]

    def test_executors_on_all_nodes_read_locally(self):
        assert self._remote_bytes(executor_nodes=None, replication=3) == 0

    def test_restricted_executors_pull_remote_blocks(self):
        """Paper Section V-B2: executors on a subset of nodes miss locality."""
        assert self._remote_bytes(executor_nodes=[0], replication=1) > 0

    def test_replication_equal_to_nodes_fixes_locality(self):
        """...and the paper's fix: replication == node count."""
        assert self._remote_bytes(executor_nodes=[0, 1], replication=4) == 0


class TestEmptyInput:
    """A zero-byte file is one empty partition, not a crash."""

    @pytest.mark.parametrize("scheme", ["hdfs", "local"])
    @pytest.mark.parametrize("min_partitions", [None, 4])
    def test_empty_text_file_collects_nothing(self, scheme, min_partitions):
        cl = Cluster(TESTING_MACHINE.with_nodes(2))
        if scheme == "hdfs":
            HDFS(cl).create("empty.txt", BytesContent(b""))
        else:
            LocalFS(cl).create_replicated("empty.txt", BytesContent(b""))
        sc = SparkContext(cl, executors_per_node=2, app_startup=0.1)

        def app(sc):
            rdd = sc.text_file(f"{scheme}://empty.txt", min_partitions)
            return rdd.num_partitions, rdd.collect(), rdd.count()

        assert sc.run(app).value == (1, [], 0)


class TestShuffleTransport:
    def _shuffle_time(self, transport, nodes=2):
        cl = Cluster(TESTING_MACHINE.with_nodes(nodes))
        sc = SparkContext(cl, executors_per_node=2, app_startup=0.1,
                          shuffle_transport=transport)

        def app(sc):
            import repro.sim as sim

            pairs = sc.parallelize(
                [(i % 64, bytes(8192)) for i in range(4096)], 8)
            t0 = sim.current_process().clock
            pairs.group_by_key(8).count()
            return sim.current_process().clock - t0

        return sc.run(app).value

    def test_rdma_shuffle_faster_when_shuffle_heavy(self):
        assert self._shuffle_time("rdma") < self._shuffle_time("socket")

    def test_unknown_transport_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_sc(shuffle_transport="pigeon")


class TestSharedVariables:
    def test_broadcast_value_visible_in_tasks(self):
        def app(sc):
            table = sc.broadcast({1: "one", 2: "two"})
            return sc.parallelize([1, 2, 1], 3).map(
                lambda x: table.value[x]).collect()

        assert make_sc().run(app).value == ["one", "two", "one"]

    def test_accumulator_merges_once_per_task(self):
        def app(sc):
            acc = sc.accumulator(0)
            sc.parallelize(range(10), 5).foreach(lambda x: acc.add(1))
            return acc.value

        assert make_sc().run(app).value == 10

    def test_custom_accumulator_op(self):
        def app(sc):
            acc = sc.accumulator(set(), add=lambda a, b: a | (
                b if isinstance(b, set) else {b}))
            sc.parallelize(range(5), 2).foreach(lambda x: acc.add(x))
            return acc.value

        assert make_sc().run(app).value == {0, 1, 2, 3, 4}


class TestSchedulingCosts:
    def test_more_partitions_cost_more_driver_time(self):
        """Serial task dispatch through the driver: 64 tiny tasks take
        visibly longer than 4 (Fig 3's overhead shape)."""

        def timed(nparts):
            def app(sc):
                import repro.sim as sim

                rdd = sc.parallelize(range(nparts), nparts)
                t0 = sim.current_process().clock
                rdd.count()
                return sim.current_process().clock - t0

            return make_sc().run(app).value

        assert timed(64) > timed(4) * 1.5

    def test_stage_skipping_on_repeated_action(self):
        """Second action over a shuffled RDD reuses the map outputs."""

        def app(sc):
            import repro.sim as sim

            counts = sc.parallelize([(i % 7, 1) for i in range(2000)], 8)\
                .reduce_by_key(lambda a, b: a + b, 4)
            counts.count()
            t0 = sim.current_process().clock
            counts.count()
            t1 = sim.current_process().clock - t0
            return t1

        def app_fresh(sc):
            import repro.sim as sim

            counts = sc.parallelize([(i % 7, 1) for i in range(2000)], 8)\
                .reduce_by_key(lambda a, b: a + b, 4)
            t0 = sim.current_process().clock
            counts.count()
            return sim.current_process().clock - t0

        reused = make_sc().run(app).value
        fresh = make_sc().run(app_fresh).value
        assert reused < fresh

    def test_startup_excluded_from_app_elapsed(self):
        sc = make_sc()
        res = sc.run(lambda sc: sc.parallelize([1], 1).count())
        assert res.elapsed > res.app_elapsed

    def test_context_not_reusable(self):
        from repro.errors import SparkError

        sc = make_sc()
        sc.run(lambda sc: 1)
        with pytest.raises(SparkError):
            sc.run(lambda sc: 2)


class TestThreadlessExecutors:
    """Executors are all steps and the driver wakes once per stage:
    counted, not timed."""

    def test_only_the_driver_has_a_thread_and_it_wakes_once_per_stage(
            self, monkeypatch, thread_starts):
        from repro.spark.scheduler import DAGScheduler

        cl = Cluster(TESTING_MACHINE.with_nodes(2), trace=Trace())
        counts = cl.trace.counters
        driver = ("sim.park", "spark:driver")
        stages = {"n": 0, "parks": 0}
        real_stage = DAGScheduler._run_stage

        def run_stage(sched, *args):
            before = counts[driver]
            try:
                return real_stage(sched, *args)
            finally:
                stages["n"] += 1
                stages["parks"] += counts[driver] - before

        monkeypatch.setattr(DAGScheduler, "_run_stage", run_stage)
        hdfs = HDFS(cl, block_size=4096)
        hdfs.create("in", LineContent(lambda i: f"{i} {i % 7}", 2000))
        sc = SparkContext(cl, executors_per_node=2, app_startup=0.1)

        def app(sc):
            # a split read, a spilling cache, a shuffle both ways, a
            # result reply and a timed write on the executors
            pairs = sc.text_file("hdfs://in").map(
                lambda line: tuple(map(int, line.split()))).persist(
                StorageLevel.MEMORY_AND_DISK)
            sums = pairs.map(lambda kv: (kv[1], kv[0])).reduce_by_key(
                lambda a, b: a + b)
            out = sorted(sums.collect())
            pairs.count()
            sums.save_as_text_file("hdfs://out")
            return out

        value = sc.run(app).value
        assert value == sorted(
            {k: sum(i for i in range(2000) if i % 7 == k)
             for k in range(7)}.items())
        executors = [p for p in cl.engine.processes
                     if p.name.startswith("spark:executor")]
        assert len(executors) == 4
        assert all(p._thread is None for p in executors)
        assert thread_starts == ["sim:spark:driver"]
        assert {k for k in counts if k[0] == "sim.park"} == {driver}
        assert stages["n"] == 4
        assert stages["parks"] <= stages["n"]
        # outside the stages only the shutdown, one step body, may park
        assert counts[driver] - stages["parks"] <= 1
        assert hdfs.size("out/part-00000") > 0

    def test_a_closure_that_waits_fails_its_job(self):
        """A user closure runs on the executor's steps, so calling a
        blocking sim name from one raises instead of parking."""
        import repro.sim as sim
        from repro.errors import SimulationError

        def waits(x):
            sim.current_process().checkpoint()
            return x

        with pytest.raises(SimProcessError) as ei:
            make_sc().run(lambda sc: sc.parallelize(range(4), 2)
                          .map(waits).collect())
        assert isinstance(ei.value.__cause__, SimulationError)
        assert "a step must not park" in str(ei.value.__cause__)
