"""White-box tests: Spark stage construction, task matching, HDFS repair."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.errors import SimProcessError
from repro.fs import HDFS, BytesContent
from repro.sim import current_process
from repro.spark import SparkContext
from repro.spark.rdd import NarrowDependency, ShuffleDependency
from repro.units import MiB
from tests.conftest import TESTING_MACHINE


def make_sc(**kw):
    kw.setdefault("app_startup", 0.1)
    return SparkContext(Cluster(TESTING_MACHINE), executors_per_node=2, **kw)


class TestStageConstruction:
    def _stages(self, build):
        """Run stage construction inside an app and return the structure."""
        sc = make_sc()

        def app(sc):
            rdd = build(sc)
            result = sc._scheduler.build_stages(rdd)
            order = sc._scheduler._linearise(result)
            return [(st.is_result, st.rdd.id) for st in order]

        return sc.run(app).value

    def test_narrow_chain_is_one_stage(self):
        stages = self._stages(
            lambda sc: sc.parallelize(range(10), 2)
            .map(lambda x: x).flat_map(lambda x: [x]))
        assert len(stages) == 1
        assert stages[0][0] is True  # result stage only

    def test_each_shuffle_cuts_a_stage(self):
        stages = self._stages(
            lambda sc: sc.parallelize([(1, 1)], 2)
            .reduce_by_key(lambda a, b: a + b, 2)
            .map_values(lambda v: v)
            .group_by_key(2))
        assert len(stages) == 3  # two shuffle-map stages + result
        assert [s[0] for s in stages] == [False, False, True]

    def test_join_of_copartitioned_adds_no_stage(self):
        def build(sc):
            left = sc.parallelize([(1, 1)], 2).partition_by(2)
            ranks = left.map_values(lambda v: v)
            return left.join(ranks)

        stages = self._stages(build)
        # one shuffle (the partition_by), then an all-narrow result stage
        assert len(stages) == 2

    def test_join_of_unpartitioned_shuffles_both_sides(self):
        def build(sc):
            left = sc.parallelize([(1, 1)], 2)
            right = sc.parallelize([(1, 2)], 2)
            return left.join(right, 2)

        stages = self._stages(build)
        assert len(stages) == 3  # two shuffle-map stages + result

    def test_dependency_kinds_visible(self):
        sc = make_sc()

        def app(sc):
            left = sc.parallelize([(1, 1)], 2).partition_by(2)
            joined = left.join(left.map_values(lambda v: v))
            return [type(d).__name__ for d in joined.deps]

        assert sc.run(app).value == ["NarrowDependency", "NarrowDependency"]


class TestTaskPayload:
    def test_parallelize_payload_counted_through_narrow_chain(self):
        sc = make_sc()

        def app(sc):
            rdd = sc.parallelize([bytes(1 * MiB)], 1).map(lambda x: x)
            return sc._scheduler._task_payload_bytes(rdd, 0)

        assert sc.run(app).value >= 1 * MiB

    def test_shuffled_rdd_ships_no_data(self):
        sc = make_sc()

        def app(sc):
            rdd = sc.parallelize([(1, bytes(1 * MiB))], 1).group_by_key(1)
            return sc._scheduler._task_payload_bytes(rdd, 0)

        assert sc.run(app).value == 0


class TestHDFSRepair:
    def test_repair_restores_replication(self):
        cl = Cluster(TESTING_MACHINE.with_nodes(3))
        h = HDFS(cl, replication=2, block_size=1 * MiB)
        h.create("f", BytesContent(bytes(512)), scale=4 * 1024 * 4)
        h.kill_datanode(0)
        assert h.under_replicated("f")
        created = {}

        def fixer():
            created["n"] = h.repair(current_process(), "f")

        cl.spawn(fixer, node_id=1, name="fix")
        cl.run()
        assert created["n"] > 0
        assert h.under_replicated("f") == []

    def test_repair_is_timed(self):
        cl = Cluster(TESTING_MACHINE.with_nodes(3))
        h = HDFS(cl, replication=2, block_size=1 * MiB)
        h.create("f", BytesContent(bytes(1024)), scale=8 * 1024)  # 8 MiB
        h.kill_datanode(0)
        out = {}

        def fixer():
            p = current_process()
            h.repair(p, "f")
            out["t"] = p.clock

        cl.spawn(fixer, node_id=1, name="fix")
        cl.run()
        assert out["t"] > 0.005  # real read + transmit + write time

    def test_repair_impossible_when_no_source(self):
        from repro.errors import BlockUnavailableError

        cl = Cluster(TESTING_MACHINE)
        h = HDFS(cl, replication=1)
        h.create("f", BytesContent(b"x"))
        dead = h.blocks("f")[0].replicas[0]
        h.kill_datanode(dead)

        def fixer():
            h.repair(current_process(), "f")

        cl.spawn(fixer, node_id=1 - dead, name="fix")
        with pytest.raises(SimProcessError) as ei:
            cl.run()
        assert isinstance(ei.value.__cause__, BlockUnavailableError)

    def test_reads_after_repair_use_new_replica(self):
        cl = Cluster(TESTING_MACHINE.with_nodes(3))
        h = HDFS(cl, replication=1, block_size=1 * MiB)
        payload = bytes(range(256))
        h.create("f", BytesContent(payload))
        src = h.blocks("f")[0].replicas[0]
        out = {}

        def fix_then_kill_then_read():
            p = current_process()
            # raise replication, repair, then lose the original
            h.replication = 2
            h.repair(p, "f")
            h.kill_datanode(src)
            out["data"] = h.read(p, "f", 0, len(payload))

        cl.spawn(fix_then_kill_then_read, node_id=(src + 1) % 3, name="x")
        cl.run()
        assert out["data"] == payload
