"""Unit tests for the cluster hardware layer (specs, network, storage)."""

from __future__ import annotations

import pytest

from repro.cluster import COMET, Cluster
from repro.cluster.network import BULK_THRESHOLD
from repro.cluster.spec import ETH_10G, IB_FDR_RDMA, IPOIB, ClusterSpec
from repro.cluster.storage import ssd_read_efficiency
from repro.errors import ConfigurationError, SimProcessError
from repro.sim import current_process
from repro.units import GiB, MiB
from tests.conftest import TESTING_MACHINE, forced_trace


class TestSpecs:
    def test_comet_matches_table1(self):
        node = COMET.node
        assert node.cores == 24            # 2 sockets x 12 cores
        assert node.clock_hz == 2.5e9      # 2.5 GHz
        assert node.flops == 960e9         # 960 GFlop/s
        assert node.mem_bytes == 128 * GiB
        assert node.ssd_bytes == 320e9     # 320 GB local scratch

    def test_with_nodes_copies(self):
        c2 = COMET.with_nodes(2)
        assert c2.num_nodes == 2
        assert COMET.num_nodes == 8
        assert c2.node == COMET.node

    def test_fabric_lookup(self):
        assert COMET.fabric("ipoib") is IPOIB
        with pytest.raises(ConfigurationError):
            COMET.fabric("carrier-pigeon")

    def test_rdma_is_faster_than_sockets_everywhere(self):
        for other in (IPOIB, ETH_10G):
            assert IB_FDR_RDMA.latency < other.latency
            assert IB_FDR_RDMA.bandwidth > other.bandwidth
            assert IB_FDR_RDMA.sw_overhead(1 * MiB) < other.sw_overhead(1 * MiB)

    def test_invalid_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(name="bad", num_nodes=0)


class TestPlacement:
    def test_block_placement(self):
        cl = Cluster(TESTING_MACHINE, trace=forced_trace())
        assert cl.placement(4, 2) == [0, 0, 1, 1]

    def test_placement_too_big_rejected(self):
        cl = Cluster(TESTING_MACHINE, trace=forced_trace())
        with pytest.raises(ConfigurationError):
            cl.placement(100, 2)

    def test_spawn_requires_valid_node(self):
        cl = Cluster(TESTING_MACHINE, trace=forced_trace())
        with pytest.raises(ConfigurationError):
            cl.spawn(lambda: None, node_id=99, name="x")


class TestNetwork:
    def _transfer_time(self, fabric: str, nbytes: int) -> float:
        cl = Cluster(TESTING_MACHINE, trace=forced_trace())
        out = {}

        def sender():
            p = current_process()
            out["t"] = cl.network.transmit(p, fabric, 0, 1, nbytes)

        cl.spawn(sender, node_id=0, name="s")
        cl.run()
        return out["t"]

    def test_bulk_transfer_time_scales_with_size(self):
        t1 = self._transfer_time("ipoib", 10 * MiB)
        t2 = self._transfer_time("ipoib", 20 * MiB)
        assert t2 > t1 * 1.8

    def test_rdma_beats_ipoib_for_bulk(self):
        n = 64 * MiB
        assert self._transfer_time("ib-fdr-rdma", n) < self._transfer_time("ipoib", n)

    def test_small_message_dominated_by_latency(self):
        t = self._transfer_time("ib-fdr-rdma", 8)
        fab = IB_FDR_RDMA
        assert t == pytest.approx(fab.latency + fab.per_msg_cpu + 8 / fab.bandwidth,
                                  rel=1e-6)

    def test_loopback_cheaper_than_network(self):
        cl = Cluster(TESTING_MACHINE, trace=forced_trace())
        out = {}

        def sender():
            p = current_process()
            t0 = p.clock
            cl.network.transmit(p, "ipoib", 0, 0, 1 * MiB)
            out["local"] = p.clock - t0
            t0 = p.clock
            cl.network.transmit(p, "ipoib", 0, 1, 1 * MiB)
            out["remote"] = p.clock - t0

        cl.spawn(sender, node_id=0, name="s")
        cl.run()
        assert out["local"] < out["remote"]

    def test_incast_shares_receiver_nic(self):
        """Two bulk senders to the same destination take ~2x the solo time."""
        nbytes = 32 * MiB
        solo = self._transfer_time("ipoib", nbytes)

        cl = Cluster(TESTING_MACHINE, trace=forced_trace())
        done = []

        def sender():
            p = current_process()
            done.append(cl.network.transmit(p, "ipoib", 0, 1, nbytes))

        cl.spawn(sender, node_id=0, name="s0")
        cl.spawn(sender, node_id=0, name="s1")
        cl.run()
        # The per-sender CPU copy overhead is not shared, but the wire is:
        # the makespan grows by one extra wire-time over the solo transfer.
        wire = nbytes / IPOIB.bandwidth
        assert max(done) == pytest.approx(solo + wire, rel=0.02)

    def test_invalid_node_raises(self):
        cl = Cluster(TESTING_MACHINE, trace=forced_trace())

        def sender():
            cl.network.transmit(current_process(), "ipoib", 0, 99, 10)

        cl.spawn(sender, node_id=0, name="s")
        with pytest.raises(SimProcessError) as ei:
            cl.run()
        assert isinstance(ei.value.__cause__, ConfigurationError)

    def test_msg_arrival_does_not_block(self):
        cl = Cluster(TESTING_MACHINE, trace=forced_trace())
        out = {}

        def sender():
            p = current_process()
            arrival = cl.network.msg_arrival(p, "ipoib", 0, 1, 100)
            out["sender_clock"] = p.clock
            out["arrival"] = arrival

        cl.spawn(sender, node_id=0, name="s")
        cl.run()
        assert out["arrival"] > out["sender_clock"]

    def test_bulk_threshold_sane(self):
        # below MPI's eager cutoff x2: every rendezvous-sized transfer
        # goes through the contended fluid path
        assert BULK_THRESHOLD == 16 * 1024


class TestStorage:
    def test_ssd_read_faster_than_write(self):
        cl = Cluster(TESTING_MACHINE, trace=forced_trace())
        out = {}

        def proc():
            p = current_process()
            t0 = p.clock
            cl.nodes[0].ssd.read(p, 100 * MiB)
            out["read"] = p.clock - t0
            t0 = p.clock
            cl.nodes[0].ssd.write(p, 100 * MiB)
            out["write"] = p.clock - t0

        cl.spawn(proc, node_id=0, name="p")
        cl.run()
        assert out["read"] < out["write"]

    def test_parallel_readers_contend(self):
        nbytes = 100 * MiB

        def run(nreaders):
            cl = Cluster(TESTING_MACHINE, trace=forced_trace())
            done = []

            def reader():
                p = current_process()
                done.append(cl.nodes[0].ssd.read(p, nbytes))

            for i in range(nreaders):
                cl.spawn(reader, node_id=0, name=f"r{i}")
            cl.run()
            return max(done)

        t1, t8 = run(1), run(8)
        # 8 readers move 8x the bytes through one device; with the
        # efficiency curve the makespan is a bit worse than 8x.
        assert t8 > 8.0 * t1

    def test_ssd_efficiency_curve_shape(self):
        assert ssd_read_efficiency(1) == 1.0
        assert ssd_read_efficiency(4) == 1.0
        assert ssd_read_efficiency(8) < 1.0
        assert ssd_read_efficiency(100) == pytest.approx(0.75)

    def test_nfs_is_shared_across_nodes(self):
        cl = Cluster(TESTING_MACHINE, trace=forced_trace())
        done = []

        def reader():
            p = current_process()
            done.append(cl.nfs_device.read(p, 100 * MiB))

        cl.spawn(reader, node_id=0, name="r0")
        cl.spawn(reader, node_id=1, name="r1")
        cl.run()
        solo = (100 * MiB) / cl.spec.nfs_bandwidth
        assert max(done) > 1.9 * solo

    def test_node_memory_stream_contention(self):
        cl = Cluster(TESTING_MACHINE, trace=forced_trace())
        done = []

        def streamer():
            p = current_process()
            done.append(cl.nodes[0].stream_bytes(p, 1 * GiB))

        for i in range(4):
            cl.spawn(streamer, node_id=0, name=f"s{i}")
        cl.run()
        solo = (1 * GiB) / cl.spec.node.mem_bw
        assert max(done) == pytest.approx(4 * solo, rel=0.01)


class TestTraceGating:
    """A disabled trace must record nothing and change no virtual timing.

    The cluster layer gates event construction on ``trace.enabled`` so
    production runs skip even the kwargs marshalling; these tests pin that a
    disabled trace stays empty and that gating is timing-transparent.
    """

    def _workload(self, trace):
        cl = Cluster(TESTING_MACHINE, trace=trace)
        out = {}

        def proc():
            p = current_process()
            cl.nodes[0].ssd.read(p, 1 * MiB)
            cl.nodes[0].ssd.write(p, 1 * MiB)
            cl.network.transmit(p, "ipoib", 0, 0, 1024)      # loopback
            cl.network.transmit(p, "ipoib", 0, 1, 1 * MiB)   # bulk path
            cl.network.msg_arrival(p, "ipoib", 0, 1, 256)    # eager message
            out["t"] = p.clock

        cl.spawn(proc, node_id=0, name="p")
        cl.run()
        return out["t"]

    def test_disabled_trace_records_nothing(self):
        from repro.sim.trace import Trace

        tr = Trace(enabled=False)
        self._workload(tr)
        assert tr.events == []

    def test_gating_is_timing_transparent(self):
        from repro.sim.trace import Trace

        on = Trace(enabled=True)
        t_on = self._workload(on)
        t_off = self._workload(Trace(enabled=False))
        assert t_on == t_off
        assert sorted({ev.kind for ev in on.events}) == [
            "disk.read", "disk.write", "net.loopback", "net.msg",
            "net.transmit",
        ]
