"""Edge cases and error paths across the layers."""

from __future__ import annotations

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.errors import (
    ConfigurationError,
    HDFSError,
    MapReduceError,
    MPICommError,
    SimProcessError,
    SparkError,
)
from repro.fs import HDFS, BytesContent, LocalFS
from repro.mpi import mpi_run
from repro.sim import current_process
from repro.spark import SparkContext
from repro.spark.partitioner import HashPartitioner
from repro.spark.shuffle import estimate_nbytes
from tests.conftest import TESTING_MACHINE


class TestPartitioners:
    @given(keys=st.lists(st.one_of(st.integers(), st.text(), st.booleans()),
                         max_size=50),
           n=st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_hash_partitioner_is_total_and_stable(self, keys, n):
        p = HashPartitioner(n)
        for k in keys:
            v = p.partition(k)
            assert 0 <= v < n
            assert p.partition(k) == v

    def test_partitioner_equality_semantics(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)

    def test_bad_partition_count(self):
        with pytest.raises(SparkError):
            HashPartitioner(0)


class TestEstimateNbytes:
    def test_empty(self):
        assert estimate_nbytes([]) == 0

    def test_small_batches_exact_sum(self):
        records = [(1, 2)] * 5
        assert estimate_nbytes(records) == 5 * estimate_nbytes([(1, 2)])

    @given(n=st.integers(21, 2000))
    @settings(max_examples=20, deadline=None)
    def test_sampling_close_to_exact_for_uniform_records(self, n):
        records = [("key", 1.0)] * n
        exact = n * estimate_nbytes([("key", 1.0)])
        assert estimate_nbytes(records) == pytest.approx(exact, rel=0.05)


class TestFsEdges:
    def test_zero_length_file(self):
        cl = Cluster(TESTING_MACHINE)
        fs = LocalFS(cl)
        fs.create("empty", BytesContent(b""), node_id=0)
        out = {}

        def reader():
            out["data"] = fs.read(current_process(), "empty", 0, 100)

        cl.spawn(reader, node_id=0, name="r")
        cl.run()
        assert out["data"] == b""

    def test_read_past_eof_clamps(self):
        cl = Cluster(TESTING_MACHINE)
        fs = LocalFS(cl)
        fs.create("f", BytesContent(b"abc"), node_id=0)
        out = {}

        def reader():
            out["data"] = fs.read(current_process(), "f", 2, 100)

        cl.spawn(reader, node_id=0, name="r")
        cl.run()
        assert out["data"] == b"c"

    def test_hdfs_zero_byte_file_has_one_block(self):
        cl = Cluster(TESTING_MACHINE)
        h = HDFS(cl)
        h.create("z", BytesContent(b""))
        assert len(h.blocks("z")) == 1
        assert h.size("z") == 0

    def test_hdfs_write_with_all_nodes_dead(self):
        cl = Cluster(TESTING_MACHINE)
        h = HDFS(cl, replication=2)
        h.kill_datanode(0)
        h.kill_datanode(1)

        def writer():
            h.write(current_process(), "x", 100)

        cl.spawn(writer, node_id=0, name="w")
        with pytest.raises(SimProcessError) as ei:
            cl.run()
        assert isinstance(ei.value.__cause__, HDFSError)

    def test_bad_block_size_rejected(self):
        with pytest.raises(ConfigurationError):
            HDFS(Cluster(TESTING_MACHINE), block_size=0)


class TestMPIEdges:
    def test_send_to_invalid_rank(self):
        def job(comm):
            comm.send(1, dest=99)

        with pytest.raises(SimProcessError) as ei:
            mpi_run(Cluster(TESTING_MACHINE), job, 2, procs_per_node=1,
                    charge_launch=False)
        assert isinstance(ei.value.__cause__, MPICommError)

    def test_bcast_invalid_root(self):
        def job(comm):
            comm.bcast(1, root=5)

        with pytest.raises(SimProcessError) as ei:
            mpi_run(Cluster(TESTING_MACHINE), job, 2, procs_per_node=1,
                    charge_launch=False)
        assert isinstance(ei.value.__cause__, MPICommError)

    def test_self_send_recv(self):
        """Rank sending to itself works (loopback + queued message)."""

        def job(comm):
            comm.send("me", dest=comm.rank)
            return comm.recv(source=comm.rank)

        res = mpi_run(Cluster(TESTING_MACHINE), job, 2, procs_per_node=1,
                      charge_launch=False)
        assert res.returns == ["me", "me"]

    def test_zero_size_allreduce(self):
        def job(comm):
            return comm.allreduce(np.empty(0))

        res = mpi_run(Cluster(TESTING_MACHINE), job, 4, procs_per_node=2,
                      charge_launch=False)
        assert all(len(r) == 0 for r in res.returns)


class TestSparkEdges:
    def run_app(self, app, **kw):
        sc = SparkContext(Cluster(TESTING_MACHINE), executors_per_node=2,
                          app_startup=0.1, **kw)
        return sc.run(app).value

    def test_empty_rdd_operations(self):
        def app(sc):
            rdd = sc.parallelize([], 3)
            return (rdd.count(), rdd.collect(),
                    dict(rdd.map(lambda x: (x, 1))
                         .reduce_by_key(lambda a, b: a + b, 2).collect()))

        assert self.run_app(app) == (0, [], {})

    def test_single_record_many_partitions(self):
        def app(sc):
            return sc.parallelize([42], 8).collect()

        assert self.run_app(app) == [42]

    def test_more_partitions_than_executors(self):
        def app(sc):
            return sc.parallelize(range(100), 64).sum()

        assert self.run_app(app) == 4950

    def test_record_scale_changes_time_not_values(self):
        def app(sc):
            import repro.sim as sim

            rdd = sc.parallelize([(i % 3, 1) for i in range(3000)], 4)
            t0 = sim.current_process().clock
            out = dict(rdd.reduce_by_key(lambda a, b: a + b, 2).collect())
            return out, sim.current_process().clock - t0

        v1, t1 = self.run_app(app)
        v2, t2 = self.run_app(app, record_scale=500)
        assert v1 == v2 == {0: 1000, 1: 1000, 2: 1000}
        assert t2 > 2 * t1

    def test_shuffle_of_non_pairs_rejected(self):
        def app(sc):
            return sc.parallelize([1, 2, 3], 2).reduce_by_key(
                lambda a, b: a + b, 2).collect()

        with pytest.raises(SimProcessError) as ei:
            self.run_app(app)
        assert isinstance(ei.value.__cause__, SparkError)


def _noop(*_args):
    return None


def _staged(**spec):
    """A 2-node, 2-procs-per-node session with one small local file."""
    from repro.platform import Dataset, ScenarioSpec

    return ScenarioSpec(nodes=2, procs_per_node=2, datasets=(
        Dataset("x.txt", BytesContent(b"1 2\n3 4\n"), on=("local",)),),
        **spec).session()


def _kmeans(session):
    from repro.apps.kmeans.spark_kmeans import spark_kmeans

    return spark_kmeans(session.cluster, np.zeros((4, 2)), 2, 2,
                        iterations=1, num_partitions=0)


def _split_size(session):
    from repro.mapreduce import JobConf

    return session.mapreduce(JobConf(
        name="zero", input_url="local://x.txt", mapper=lambda line: [],
        reducer=lambda k, vs: [], split_size=0))


def _hdfs(_session):
    from repro.platform import HDFSSpec

    return _staged(hdfs=HDFSSpec(replication=0)).hdfs


def _pairs(session):
    return session.spark().parallelize([(1, 2), (3, 4)], 2)


#: entry point -> (a call passing an explicit 0 count, the typed error)
ZERO_COUNTS = {
    "mpi(nprocs)": (lambda s: s.mpi(_noop, 0), ConfigurationError),
    "mpi(procs_per_node)": (lambda s: s.mpi(_noop, procs_per_node=0),
                            ConfigurationError),
    "shmem(npes)": (lambda s: s.shmem(_noop, 0), ConfigurationError),
    "shmem(pes_per_node)": (lambda s: s.shmem(_noop, pes_per_node=0),
                            ConfigurationError),
    "openmp(num_threads)": (lambda s: s.openmp(_noop, 0), ConfigurationError),
    "HDFSSpec(replication)": (_hdfs, ConfigurationError),
    "SparkContext(default_parallelism)": (
        lambda s: s.spark(default_parallelism=0), ConfigurationError),
    "parallelize": (lambda s: s.spark().parallelize([1, 2], 0), SparkError),
    "text_file": (lambda s: s.spark().text_file("local://x.txt", 0),
                  SparkError),
    "reduce_by_key": (lambda s: _pairs(s).reduce_by_key(operator.add, 0),
                      SparkError),
    "join": (lambda s: _pairs(s).join(_pairs(s), 0), SparkError),
    "spark_kmeans(num_partitions)": (_kmeans, SparkError),
    "JobConf(split_size)": (_split_size, MapReduceError),
}


@pytest.mark.parametrize("entry", sorted(ZERO_COUNTS))
def test_an_explicit_zero_count_is_refused_not_defaulted(entry):
    call, error = ZERO_COUNTS[entry]
    with pytest.raises((error, SimProcessError)) as ei:
        call(_staged())
    exc = ei.value
    if isinstance(exc, SimProcessError):  # raised inside a simulated process
        exc = exc.__cause__
    assert type(exc) is error, repr(exc)
