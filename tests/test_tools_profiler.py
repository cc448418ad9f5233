"""Profiler tool: framework-agnostic traffic/I/O accounting from traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import COMET_MACHINE, Cluster
from repro.fs import HDFS, LineContent, LocalFS
from repro.mpi import mpi_run
from repro.sim import Trace, current_process
from repro.spark import SparkContext
from repro.tools import profile_trace
from repro.units import KiB, MiB


def traced_cluster(nodes=2):
    trace = Trace()
    return Cluster(COMET_MACHINE.with_nodes(nodes), trace=trace), trace


class TestNetworkAccounting:
    def test_mpi_p2p_shows_in_matrix(self):
        cl, trace = traced_cluster()

        def job(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1 * MiB, np.uint8), dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)

        mpi_run(cl, job, 2, procs_per_node=1, charge_launch=False)
        report = profile_trace(trace, 2)
        m = report.comm_matrix["ib-fdr-rdma"]
        assert m[0, 1] >= 1 * MiB
        assert m[1, 0] == 0

    def test_alltoall_matrix_is_dense_offdiagonal(self):
        cl, trace = traced_cluster(4)

        def job(comm):
            comm.alltoall([np.zeros(64 * KiB, np.uint8)
                           for _ in range(comm.size)])

        mpi_run(cl, job, 4, procs_per_node=1, charge_launch=False)
        m = profile_trace(trace, 4).comm_matrix["ib-fdr-rdma"]
        for s in range(4):
            for d in range(4):
                if s != d:
                    assert m[s, d] >= 64 * KiB
        assert np.all(np.diag(m) == 0)  # same-node traffic is loopback

    def test_spark_shuffle_fabric_follows_transport(self):
        def shuffle_bytes(transport):
            cl, trace = traced_cluster(2)
            sc = SparkContext(cl, executors_per_node=2, app_startup=0.1,
                              shuffle_transport=transport)

            def app(sc):
                return sc.parallelize([(i % 8, bytes(4096))
                                       for i in range(2000)], 4)\
                    .group_by_key(4).count()

            sc.run(app)
            report = profile_trace(trace, 2)
            return (report.fabric_bytes("ipoib"),
                    report.fabric_bytes("ib-fdr-rdma"))

        ipoib_sock, rdma_sock = shuffle_bytes("socket")
        ipoib_rdma, rdma_rdma = shuffle_bytes("rdma")
        moved = rdma_rdma - rdma_sock
        assert moved > 0                        # shuffle payloads moved to verbs
        assert ipoib_sock - ipoib_rdma == pytest.approx(moved, rel=0.01)
        # control traffic (task dispatch, results) stays on sockets (Lu et al.)
        assert ipoib_rdma > 0
        assert rdma_sock == 0                   # default Spark never touches verbs

    def test_hotspot_identifies_busiest_link(self):
        cl, trace = traced_cluster(3)

        def sender():
            p = current_process()
            cl.network.transmit(p, "ipoib", 2, 0, 5 * MiB)
            cl.network.transmit(p, "ipoib", 1, 0, 1 * MiB)

        cl.spawn(sender, node_id=2, name="s")
        cl.run()
        src, dst, nbytes = profile_trace(trace, 3).hotspot("ipoib")
        assert (src, dst) == (2, 0)
        assert nbytes == 5 * MiB


class TestDiskAccounting:
    def test_local_reads_attributed_to_node_devices(self):
        cl, trace = traced_cluster()
        fs = LocalFS(cl)
        fs.create_replicated("f.bin", LineContent(lambda i: "x" * 99, 1000))

        def reader():
            fs.read(current_process(), "f.bin", 0, 50_000)

        cl.spawn(reader, node_id=1, name="r")
        cl.run()
        report = profile_trace(trace, 2)
        assert report.disk_bytes["ssd[1]"][0] == 50_000
        assert "ssd[0]" not in report.disk_bytes

    def test_hdfs_write_replication_visible(self):
        cl, trace = traced_cluster(2)
        h = HDFS(cl, replication=2, block_size=1 * MiB)

        def writer():
            h.write(current_process(), "out.bin", 2 * MiB)

        cl.spawn(writer, node_id=0, name="w")
        cl.run()
        report = profile_trace(trace, 2)
        # local replica written to ssd[0]; the second replica crossed ipoib
        assert report.disk_bytes["ssd[0]"][1] == 2 * MiB
        assert report.fabric_bytes("ipoib") == 2 * MiB

    def test_render_mentions_everything(self):
        cl, trace = traced_cluster()

        def worker():
            p = current_process()
            cl.network.transmit(p, "ipoib", 0, 1, 128 * KiB)
            cl.nodes[0].ssd.write(p, 64 * KiB)

        cl.spawn(worker, node_id=0, name="w")
        cl.run()
        text = profile_trace(trace, 2).render()
        assert "fabric ipoib" in text
        assert "ssd[0]" in text
        assert "written" in text

    def test_disabled_trace_yields_empty_report(self):
        cl = Cluster(COMET_MACHINE.with_nodes(2))  # tracing off by default

        def job(comm):
            comm.allreduce(np.ones(1 * MiB // 8))

        mpi_run(cl, job, 2, procs_per_node=1, charge_launch=False)
        report = profile_trace(cl.trace, 2)
        assert report.total_network_bytes() == 0
