"""Extensions: MapReduce-over-MPI and the k-means cross-paradigm benchmark."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.kmeans import (
    kmeans_points,
    mpi_kmeans,
    reference_kmeans,
    spark_kmeans,
)
from repro.cluster import COMET_MACHINE, Cluster
from repro.fs import HDFS, LineContent, LocalFS
from repro.mapreduce import JobConf, run_job
from repro.mpi import mpi_run
from repro.mpi.mapreduce import mapreduce, run_mpi_mapreduce


def comet(nodes=2):
    return Cluster(COMET_MACHINE.with_nodes(nodes))


def wordcount_mapper(line):
    return [(w, 1) for w in line.split()]


def sum_reducer(k, vs):
    return [(k, sum(vs))]


class TestMPIMapReduce:
    def test_collective_mapreduce_wordcount(self):
        lines = [f"a b c{i % 3}" for i in range(60)]

        def job(comm):
            chunk = -(-len(lines) // comm.size)
            mine = lines[comm.rank * chunk:(comm.rank + 1) * chunk]
            local = mapreduce(comm, mine, wordcount_mapper, sum_reducer)
            gathered = comm.gather(local, root=0)
            if comm.rank == 0:
                return dict(kv for part in gathered for kv in part)
            return None

        res = mpi_run(comet(), job, 4, procs_per_node=2, charge_launch=False)
        assert res.returns[0]["a"] == 60
        assert res.returns[0]["c0"] == 20

    def test_keys_partitioned_across_ranks(self):
        """Each key is reduced on exactly one rank (hash partitioning)."""
        lines = [f"k{i % 10} x" for i in range(100)]

        def job(comm):
            chunk = -(-len(lines) // comm.size)
            mine = lines[comm.rank * chunk:(comm.rank + 1) * chunk]
            local = mapreduce(comm, mine, wordcount_mapper, sum_reducer)
            return sorted(k for k, _ in local)

        res = mpi_run(comet(), job, 4, procs_per_node=2, charge_launch=False)
        all_keys = [k for part in res.returns for k in part]
        assert len(all_keys) == len(set(all_keys))  # no key on two ranks
        assert sorted(set(all_keys)) == sorted(
            {f"k{i}" for i in range(10)} | {"x"})

    def test_combiner_reduces_exchange(self):
        lines = ["w w w w"] * 50

        def job(use_combiner):
            def body(comm):
                chunk = -(-len(lines) // comm.size)
                mine = lines[comm.rank * chunk:(comm.rank + 1) * chunk]
                return mapreduce(
                    comm, mine, wordcount_mapper, sum_reducer,
                    combiner=sum_reducer if use_combiner else None)

            res = mpi_run(comet(), body, 4, procs_per_node=2,
                          charge_launch=False)
            out = dict(kv for part in res.returns for kv in part)
            return out, res.elapsed

        with_c, t_c = job(True)
        without, t_n = job(False)
        assert with_c == without == {"w": 200}
        assert t_c <= t_n  # fewer exchanged records

    def test_driver_matches_hadoop_output(self):
        """The head-to-head the related work lacked: same input, same
        answer, MPI engine far faster (no JVM/job overheads)."""
        content = LineContent(lambda i: f"alpha beta g{i % 5}", 400)

        cl = comet()
        LocalFS(cl).create_replicated("in.txt", content)
        mpi_out, mpi_t = run_mpi_mapreduce(
            cl, cl.filesystems["local"], "in.txt",
            wordcount_mapper, sum_reducer, nprocs=4, procs_per_node=2,
            combiner=sum_reducer)

        cl = comet()
        HDFS(cl, replication=2, block_size=4096).create("in.txt", content)
        hadoop = run_job(cl, JobConf(
            name="wc", input_url="hdfs://in.txt",
            mapper=wordcount_mapper, reducer=sum_reducer,
            combiner=sum_reducer, num_reduces=4))

        assert dict(mpi_out) == dict(hadoop.output)
        assert hadoop.elapsed > 20 * mpi_t  # Plimpton et al.: "more than 100x"


class TestKMeans:
    POINTS = kmeans_points(600, dim=3, k=4, seed=11)

    def test_mpi_matches_reference(self):
        expected = reference_kmeans(self.POINTS, 4, iterations=6)
        _, got = mpi_kmeans(comet(), self.POINTS, 4, 8, 4, iterations=6)
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_spark_matches_reference(self):
        expected = reference_kmeans(self.POINTS, 4, iterations=6)
        _, got = spark_kmeans(comet(), self.POINTS, 4, 4, iterations=6)
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_mpi_and_spark_agree_exactly(self):
        _, a = mpi_kmeans(comet(), self.POINTS, 4, 8, 4, iterations=4)
        _, b = spark_kmeans(comet(), self.POINTS, 4, 4, iterations=4)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_mpi_faster_per_iteration(self):
        """k-means is compute-light + latency-sensitive: the HPC profile
        wins (each Spark iteration pays a driver-scheduled job)."""
        t_mpi, _ = mpi_kmeans(comet(), self.POINTS, 4, 8, 4, iterations=6)
        t_spark, _ = spark_kmeans(comet(), self.POINTS, 4, 4, iterations=6)
        assert t_spark > 5 * t_mpi

    def test_generator_is_deterministic_and_clusterable(self):
        a = kmeans_points(100, k=3, seed=5)
        b = kmeans_points(100, k=3, seed=5)
        np.testing.assert_array_equal(a, b)
        cent = reference_kmeans(a, 3, iterations=20)
        # centroids end up near the unit circle blob centres
        radii = np.linalg.norm(cent[:, :2], axis=1)
        assert np.all(radii > 0.5)
