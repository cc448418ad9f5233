"""The platform layer: scenario specs, sessions, adapters."""

from __future__ import annotations

import pytest

from repro.apps import mpi_pagerank
from repro.cluster import COMET_MACHINE, Cluster
from repro.errors import ConfigurationError
from repro.fs import LineContent
from repro.mapreduce import JobConf
from repro.platform import (
    Dataset,
    HDFSSpec,
    ScenarioSpec,
    Session,
    session_app,
)
from repro.tools import profile_session
from repro.workloads.graphs import GraphSpec, with_ring

CORPUS = LineContent(lambda i: f"alpha beta line-{i}", 200)


class TestScenarioSpec:
    def test_defaults_and_nprocs(self):
        spec = ScenarioSpec()
        assert spec.nodes == 2
        assert spec.procs_per_node == 8
        assert spec.nprocs == 16
        assert spec.datasets == ()

    def test_with_returns_modified_copy(self):
        spec = ScenarioSpec(nodes=2)
        bigger = spec.with_(nodes=4)
        assert bigger.nodes == 4
        assert bigger.procs_per_node == spec.procs_per_node
        assert spec.nodes == 2  # original untouched (frozen)

    def test_session_provisions_fresh_cluster_each_time(self):
        spec = ScenarioSpec(nodes=3)
        s1, s2 = spec.session(), spec.session()
        assert s1.cluster is not s2.cluster
        assert len(s1.cluster.nodes) == 3


class TestSessionFilesystems:
    def test_bare_scenario_mounts_nothing(self):
        session = ScenarioSpec().session()
        assert session.cluster.filesystems == {}

    def test_lazy_mounts_are_cached_on_the_cluster(self):
        session = ScenarioSpec().session()
        local = session.local
        assert session.local is local
        assert session.cluster.filesystems["local"] is local

    def test_hdfs_defaults_to_full_replication(self):
        session = ScenarioSpec(nodes=3).session()
        assert session.hdfs.replication == 3

    def test_hdfs_spec_overrides(self):
        spec = ScenarioSpec(nodes=3,
                            hdfs=HDFSSpec(replication=2, block_size=4096))
        hdfs = spec.session().hdfs
        assert hdfs.replication == 2
        assert hdfs.block_size == 4096

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec().session().fs("gpfs")

    def test_datasets_staged_on_declared_filesystems(self):
        spec = ScenarioSpec(nodes=2, datasets=(
            Dataset("corpus.txt", CORPUS, scale=3),))
        session = spec.session()
        assert session.local.size("corpus.txt") == CORPUS.size * 3
        assert session.hdfs.size("corpus.txt") == CORPUS.size * 3

    def test_dataset_on_hdfs_only(self):
        spec = ScenarioSpec(datasets=(
            Dataset("edges.txt", CORPUS, on=("hdfs",)),))
        session = spec.session()
        assert "local" not in session.cluster.filesystems
        assert session.hdfs.size("edges.txt") == CORPUS.size


class TestSessionRuntimes:
    def test_mpi_sized_to_scenario(self):
        session = ScenarioSpec(nodes=2, procs_per_node=4).session()
        res = session.mpi(lambda comm: comm.allreduce(1))
        assert res.returns == [8] * 8  # nodes * procs_per_node ranks

    def test_mpi_nprocs_override(self):
        session = ScenarioSpec(nodes=2, procs_per_node=4).session()
        res = session.mpi(lambda comm: comm.rank, 4, procs_per_node=2)
        assert res.returns == [0, 1, 2, 3]

    def test_openmp_defaults_to_procs_per_node(self):
        session = ScenarioSpec(procs_per_node=4).session()
        res = session.openmp(lambda omp: omp.thread_num)
        assert sorted(res.returns) == [0, 1, 2, 3]

    def test_shmem_sized_to_scenario(self):
        session = ScenarioSpec(nodes=2, procs_per_node=2).session()
        res = session.shmem(lambda pe: pe.n_pes)
        assert res.returns == [4] * 4

    def test_spark_wordcount(self):
        session = ScenarioSpec(nodes=2, procs_per_node=2, datasets=(
            Dataset("corpus.txt", CORPUS, on=("hdfs",)),)).session()
        sc = session.spark()
        count = sc.run(
            lambda sc: sc.text_file("hdfs://corpus.txt").count()).value
        assert count == 200

    def test_mapreduce_wordcount(self):
        session = ScenarioSpec(nodes=2, procs_per_node=2, datasets=(
            Dataset("in.txt", CORPUS, on=("hdfs",)),)).session()
        conf = JobConf(
            name="wc",
            input_url="hdfs://in.txt",
            mapper=lambda line: [(line.split()[0], 1)],
            reducer=lambda k, vs: [(k, sum(vs))],
            num_reduces=2,
        )
        result = session.mapreduce(conf)
        assert dict(result.output) == {"alpha": 200}


class TestAdapters:
    def test_session_app_attaches_run_in(self):
        calls = {}

        def my_app(cluster, x, *, y=0):
            calls["cluster"] = cluster
            return x + y

        session_app(my_app)
        session = ScenarioSpec().session()
        assert my_app.run_in(session, 1, y=2) == 3
        assert calls["cluster"] is session.cluster

    def test_registry_apps_carry_the_adapter(self):
        assert callable(mpi_pagerank.run_in)

    def test_adapter_runs_a_real_app(self):
        graph = GraphSpec(n_vertices=200, out_degree=3)
        edges = with_ring(graph.generate(), graph.n_vertices)
        session = ScenarioSpec(nodes=1, procs_per_node=2).session()
        t, ranks = mpi_pagerank.run_in(session, edges, graph.n_vertices,
                                       2, 2, iterations=2)
        assert t > 0
        assert len(ranks) == graph.n_vertices

    def test_comet_constructor(self):
        cluster = Cluster(COMET_MACHINE.with_nodes(5))
        assert cluster.machine.name == "comet"
        assert len(cluster.nodes) == 5


class TestTracingSessions:
    def test_trace_disabled_by_default(self):
        session = ScenarioSpec().session()
        assert session.trace is None
        with pytest.raises(ConfigurationError):
            profile_session(session)

    def test_profile_session_reads_the_trace(self):
        session = ScenarioSpec(nodes=2, procs_per_node=2, trace=True).session()
        session.mpi(lambda comm: comm.allreduce(comm.rank))
        profile = profile_session(session, wall_s=0.5)
        assert profile.total_network_bytes() > 0
        assert "wall" in profile.render()
