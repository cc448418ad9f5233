"""The paper's benchmark applications and the k-means extension:
correctness + qualitative shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.answerscount import (
    hadoop_answers_count,
    mpi_answers_count,
    openmp_answers_count,
    spark_answers_count,
)
from repro.apps.fileread import mpi_parallel_read, spark_parallel_read
from repro.apps.kmeans import (
    kmeans_points,
    mpi_kmeans,
    reference_kmeans,
    spark_kmeans,
)
from repro.apps.pagerank import (
    mpi_pagerank,
    spark_pagerank_bigdatabench,
    spark_pagerank_hibench,
)
from repro.apps.reduce_bench import (
    mpi_reduce_latency,
    shmem_reduce_latency,
    spark_reduce_latency,
)
from repro.cluster import COMET_MACHINE, Cluster
from repro.errors import MPIIntOverflowError, SimProcessError
from repro.fs import HDFS, BytesContent, LocalFS
from repro.units import GiB, KiB, MiB
from repro.workloads.graphs import (
    reference_pagerank,
    uniform_digraph,
    with_ring,
)
from repro.workloads.stackexchange import (
    StackExchangeSpec,
    expected_average_answers,
    se_line,
    stackexchange_content,
)


def comet(nodes=2):
    return Cluster(COMET_MACHINE.with_nodes(nodes))


class TestReduceBench:
    SIZES = [4, 1 * KiB, 64 * KiB]

    def test_mpi_latency_increases_with_size(self):
        lat = mpi_reduce_latency(comet(), self.SIZES, nprocs=8, procs_per_node=4)
        assert lat[4] < lat[64 * KiB]

    def test_spark_latency_dominated_by_overhead(self):
        lat = spark_reduce_latency(comet(), [4, 1 * KiB], nprocs=8,
                                   procs_per_node=4)
        # driver orchestration dwarfs payload differences at small sizes
        assert lat[1 * KiB] < 3 * lat[4]

    def test_mpi_beats_spark_by_orders_of_magnitude(self):
        """Fig 3's headline."""
        mpi = mpi_reduce_latency(comet(), [1 * KiB], 8, 4)[1 * KiB]
        spark = spark_reduce_latency(comet(), [1 * KiB], 8, 4)[1 * KiB]
        assert spark > 100 * mpi

    def test_spark_rdma_marginal_for_reduce(self):
        """Fig 3: RDMA shuffle barely moves the needle on a reduce."""
        sock = spark_reduce_latency(comet(), [64 * KiB], 8, 4)[64 * KiB]
        rdma = spark_reduce_latency(comet(), [64 * KiB], 8, 4,
                                    shuffle_transport="rdma")[64 * KiB]
        assert abs(sock - rdma) < 0.5 * sock

    def test_shmem_latency_close_to_mpi(self):
        mpi = mpi_reduce_latency(comet(), [4 * KiB], 8, 4)[4 * KiB]
        shm = shmem_reduce_latency(comet(), [4 * KiB], 8, 4)[4 * KiB]
        assert shm < 50 * mpi  # same order of magnitude, far below Spark


class TestFileRead:
    def _setup(self, nodes=2, physical=2 * MiB, scale=1000):
        cl = comet(nodes)
        from repro.fs.content import LineContent

        content = LineContent(lambda i: f"payload-{i:08d}-" + "z" * 80,
                              physical // 100)
        local = LocalFS(cl)
        local.create_replicated("data.bin", content, scale=scale)
        hdfs = HDFS(cl, replication=nodes)
        hdfs.create("data.bin", content, scale=scale)
        return cl, content

    def test_mpi_fastest_spark_local_then_hdfs(self):
        """Table II's ordering: MPI < Spark-local < Spark-HDFS."""
        cl, _ = self._setup()
        t_mpi, n_mpi = mpi_parallel_read(cl, cl.filesystems["local"],
                                         "data.bin", 16, 8)
        cl, _ = self._setup()
        t_local, n_local = spark_parallel_read(cl, "local://data.bin", 8,
                                               min_partitions=16)
        cl, _ = self._setup()
        t_hdfs, n_hdfs = spark_parallel_read(cl, "hdfs://data.bin", 8)
        assert n_mpi == n_local == n_hdfs > 0
        assert t_mpi < t_local < t_hdfs

    def test_hdfs_overhead_modest(self):
        """Paper: ~25% overhead for HDFS vs local files (order thereof)."""
        cl, _ = self._setup()
        t_local, _ = spark_parallel_read(cl, "local://data.bin", 8,
                                         min_partitions=16)
        cl, _ = self._setup()
        t_hdfs, _ = spark_parallel_read(cl, "hdfs://data.bin", 8)
        assert 1.0 < t_hdfs / t_local < 2.0


class TestAnswersCount:
    SPEC = StackExchangeSpec(n_posts=4000, answers_per_question=4)

    def _cluster(self, nodes=2, scale=1):
        cl = comet(nodes)
        content = stackexchange_content(self.SPEC)
        LocalFS(cl).create_replicated("posts.txt", content, scale=scale)
        HDFS(cl, replication=nodes, block_size=128 * KiB).create(
            "posts.txt", content, scale=scale)
        return cl

    def test_openmp_matches_reference(self):
        cl = self._cluster()
        _, avg = openmp_answers_count(cl, cl.filesystems["local"],
                                      "posts.txt", 8)
        assert avg == pytest.approx(expected_average_answers(self.SPEC))

    def test_mpi_matches_reference(self):
        cl = self._cluster()
        _, avg = mpi_answers_count(cl, cl.filesystems["local"],
                                   "posts.txt", 16, 8)
        # chunk-boundary records may be dropped by the C-style splitter
        assert avg == pytest.approx(expected_average_answers(self.SPEC),
                                    rel=0.02)

    def test_spark_matches_reference(self):
        cl = self._cluster()
        _, avg = spark_answers_count(cl, "hdfs://posts.txt", 8)
        assert avg == pytest.approx(expected_average_answers(self.SPEC))

    def test_hadoop_matches_reference(self):
        cl = self._cluster()
        _, avg = hadoop_answers_count(cl, "hdfs://posts.txt")
        assert avg == pytest.approx(expected_average_answers(self.SPEC))

    def test_a_malformed_byte_reads_the_same_in_every_split_reader(self):
        """One decode rule: a post body with an invalid utf-8 byte and a
        multibyte character counts the same under OpenMP, Spark and
        Hadoop (the bad byte reads as U+FFFD, the row still parses)."""
        spec = StackExchangeSpec(n_posts=400, answers_per_question=4)
        rows = [se_line(spec, i).encode() for i in range(spec.n_posts)]
        rows[3] += b"\xff"
        rows[10] = rows[10][:-2] + "é".encode()
        content = BytesContent(b"\n".join(rows) + b"\n")

        def cluster():
            cl = comet()
            LocalFS(cl).create_replicated("posts.txt", content)
            HDFS(cl, replication=2, block_size=16 * KiB).create(
                "posts.txt", content)
            return cl

        cl = cluster()
        _, omp = openmp_answers_count(cl, cl.filesystems["local"],
                                      "posts.txt", 4)
        _, spark = spark_answers_count(cluster(), "hdfs://posts.txt", 4)
        _, hadoop = hadoop_answers_count(cluster(), "hdfs://posts.txt")
        assert omp == spark == hadoop == expected_average_answers(spec)

    def test_mpi_int_overflow_below_41_procs_at_80gib(self):
        """Fig 4: no MPI data points below 48 processes."""
        spec = StackExchangeSpec(n_posts=2000)
        cl = comet(2)
        LocalFS(cl).create_replicated(
            "huge.txt", stackexchange_content(spec),
            scale=int(80 * GiB) // stackexchange_content(spec).size)
        with pytest.raises(SimProcessError) as ei:
            mpi_answers_count(cl, cl.filesystems["local"], "huge.txt", 16, 8)
        assert isinstance(ei.value.__cause__, MPIIntOverflowError)

    def test_openmp_does_not_scale_8_to_16(self):
        """Fig 4: the OpenMP bars barely move from 8 to 16 cores — the job
        is bound by the node's single SSD, not by threads."""
        cl = self._cluster(scale=2000)
        t8, _ = openmp_answers_count(cl, cl.filesystems["local"],
                                     "posts.txt", 8)
        cl = self._cluster(scale=2000)
        t16, _ = openmp_answers_count(cl, cl.filesystems["local"],
                                      "posts.txt", 16)
        assert t16 == pytest.approx(t8, rel=0.15)

    def test_hadoop_slower_than_spark(self):
        """Fig 4: 'noticeable difference between the Hadoop and Spark
        execution times'."""
        cl = self._cluster()
        t_spark, _ = spark_answers_count(cl, "hdfs://posts.txt", 8)
        cl = self._cluster()
        t_hadoop, _ = hadoop_answers_count(cl, "hdfs://posts.txt")
        assert t_hadoop > 2 * t_spark


class TestPageRank:
    N = 300
    EDGES = with_ring(uniform_digraph(300, 3, seed=5), 300)

    def expected(self, iters=5):
        return reference_pagerank(self.EDGES, self.N, iterations=iters)

    def spark_cluster(self, edges=None, nodes=2):
        from repro.workloads.graphs import edge_list_content

        cl = comet(nodes)
        HDFS(cl, replication=nodes).create(
            "edges.txt", edge_list_content(edges or self.EDGES))
        return cl

    def test_mpi_matches_reference(self):
        t, ranks = mpi_pagerank(comet(), self.EDGES, self.N, 8, 4,
                                iterations=5)
        np.testing.assert_allclose(ranks, self.expected(), rtol=1e-9)
        assert t > 0

    def test_mpi_single_rank_matches_reference(self):
        # one rank exchanges with nobody: the dense-bincount branch, which
        # the multi-rank runs (sparse per-destination blocks) never take
        t, ranks = mpi_pagerank(comet(1), self.EDGES, self.N, 1, 1,
                                iterations=5)
        np.testing.assert_allclose(ranks, self.expected(), rtol=1e-9)
        assert t > 0

    def test_mpi_accepts_edge_arrays(self):
        from repro.workloads.graphs import edge_arrays

        _, ranks = mpi_pagerank(comet(), edge_arrays(self.EDGES), self.N,
                                8, 4, iterations=5)
        np.testing.assert_allclose(ranks, self.expected(), rtol=1e-9)

    def test_spark_bigdatabench_matches_reference(self):
        _, ranks = spark_pagerank_bigdatabench(
            self.spark_cluster(), "hdfs://edges.txt", self.N, 4,
            iterations=5, collect_ranks=True)
        expected = self.expected()
        got = np.array([ranks[v] for v in range(self.N)])
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_spark_hibench_matches_reference(self):
        _, ranks = spark_pagerank_hibench(
            self.spark_cluster(), "hdfs://edges.txt", self.N, 4,
            iterations=5, collect_ranks=True)
        expected = self.expected()
        got = np.array([ranks[v] for v in range(self.N)])
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_bigdatabench_faster_than_hibench(self):
        """Fig 5's persist+partition tuning buys a large factor."""
        t_bdb, _ = spark_pagerank_bigdatabench(
            self.spark_cluster(), "hdfs://edges.txt", self.N, 4, iterations=5)
        t_hib, _ = spark_pagerank_hibench(
            self.spark_cluster(), "hdfs://edges.txt", self.N, 4, iterations=5)
        assert t_bdb < t_hib

    def test_rdma_helps_hibench_more_than_bigdatabench(self):
        """Fig 6 vs Fig 7: RDMA's benefit scales with shuffle volume.

        Uses record_scale to time the small physical graph as a big one,
        which is how the full figures run.
        """
        edges = with_ring(uniform_digraph(600, 6, seed=3), 600)

        def gain(fn):
            t_sock, _ = fn(self.spark_cluster(edges), "hdfs://edges.txt",
                           600, 4, iterations=4, shuffle_transport="socket",
                           record_scale=500)
            t_rdma, _ = fn(self.spark_cluster(edges), "hdfs://edges.txt",
                           600, 4, iterations=4, shuffle_transport="rdma",
                           record_scale=500)
            return t_sock - t_rdma

        assert gain(spark_pagerank_hibench) > gain(spark_pagerank_bigdatabench)


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
