"""Point-to-point semantics of the MPI-like runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.errors import DeadlockError, MPICommError, SimProcessError
from repro.mpi import mpi_run
from repro.sim.engine import current_process
from repro.units import KiB, MiB
from tests.conftest import TESTING_MACHINE, forced_trace


def cluster(nodes=2):
    return Cluster(TESTING_MACHINE.with_nodes(nodes), trace=forced_trace())


def run(fn, nprocs=2, nodes=2, **kw):
    return mpi_run(cluster(nodes), fn, nprocs, charge_launch=False, **kw)


class TestBasics:
    def test_rank_and_size(self):
        def main(comm):
            return (comm.rank, comm.size)

        res = run(main, nprocs=4, nodes=2)
        assert res.returns == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_launch_cost_charged_when_enabled(self):
        def main(comm):
            return comm.wtime()

        r_cold = mpi_run(cluster(), main, 2)
        r_warm = mpi_run(cluster(), main, 2, charge_launch=False)
        assert min(r_cold.returns) > max(r_warm.returns)

    def test_single_rank_job(self):
        def main(comm):
            comm.barrier()
            return comm.allreduce(5)

        res = run(main, nprocs=1, nodes=1)
        assert res.returns == [5]


class TestSendRecv:
    def test_eager_roundtrip_object(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        res = run(main)
        assert res.returns[1] == {"a": 7, "b": 3.14}

    def test_large_message_rendezvous(self):
        data = np.arange(1 * MiB // 8, dtype=np.float64)

        def main(comm):
            if comm.rank == 0:
                comm.send(data, dest=1)
                return None
            got = comm.recv(source=0)
            return float(got.sum())

        res = run(main)
        assert res.returns[1] == pytest.approx(float(data.sum()))

    def test_received_array_is_a_copy(self):
        def main(comm):
            if comm.rank == 0:
                buf = np.ones(4)
                comm.send(buf, dest=1)
                buf[:] = -1  # sender reuses its buffer
                return None
            got = comm.recv(source=0)
            return got.tolist()

        res = run(main)
        assert res.returns[1] == [1.0, 1.0, 1.0, 1.0]

    def test_message_order_preserved(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, dest=1, tag=5)
                return None
            return [comm.recv(source=0, tag=5) for _ in range(10)]

        res = run(main)
        assert res.returns[1] == list(range(10))

    def test_tag_selectivity(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("one", dest=1, tag=1)
                comm.send("two", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        res = run(main)
        assert res.returns[1] == ("one", "two")

    def test_any_source_any_tag(self):
        def main(comm):
            if comm.rank == 2:
                vals = sorted(comm.recv() for _ in range(2))
                return vals
            comm.send(comm.rank * 10, dest=2, tag=comm.rank)
            return None

        res = run(main, nprocs=3, nodes=2)
        assert res.returns[2] == [0, 10]

    def test_recv_status_reports_source(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=9)
                return None
            _, src, tag = comm.recv_status()
            return (src, tag)

        res = run(main)
        assert res.returns[1] == (0, 9)

    def test_negative_user_tag_rejected(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=-3)
            return None

        with pytest.raises(SimProcessError) as ei:
            run(main)
        assert isinstance(ei.value.__cause__, MPICommError)

    def test_mutual_large_sends_deadlock(self):
        """The classic MPI pitfall (Section VI-A): both ranks issue big
        blocking sends first — real MPI hangs in rendezvous, and so do we."""
        big = np.zeros(64 * KiB, dtype=np.uint8)

        def main(comm):
            other = 1 - comm.rank
            comm.send(big, dest=other)
            return comm.recv(source=other)

        with pytest.raises(DeadlockError):
            run(main)

    def test_mutual_eager_sends_complete(self):
        def main(comm):
            other = 1 - comm.rank
            comm.send(comm.rank, dest=other)
            return comm.recv(source=other)

        res = run(main)
        assert res.returns == [1, 0]

    def test_sendrecv_avoids_deadlock(self):
        big = np.zeros(64 * KiB, dtype=np.uint8)

        def main(comm):
            other = 1 - comm.rank
            got = comm.sendrecv(big + comm.rank, dest=other, source=other)
            return int(got[0])

        res = run(main)
        assert res.returns == [1, 0]


class TestSendSendDetector:
    """The early send/send-cycle diagnostic in the rendezvous path."""

    def test_mutual_large_sends_diagnosed_with_detail(self):
        big = np.zeros(64 * KiB, dtype=np.uint8)

        def main(comm):
            other = 1 - comm.rank
            comm.send(big, dest=other)
            return comm.recv(source=other)

        with pytest.raises(DeadlockError) as ei:
            run(main)
        msg = str(ei.value)
        assert "send/send cycle" in msg
        assert "rank 0" in msg and "rank 1" in msg
        assert "test_mpi_p2p.py" in msg          # blames the send call site
        assert "sendrecv" in msg                 # suggests the fix

    def test_sendrecv_pair_never_trips_the_detector(self):
        """Regression pin: sendrecv's receiver-driven accounting must stay
        invisible to the send/send detector — its transfers post no
        clear-to-send futures for the detector to match on."""
        big = np.zeros(64 * KiB, dtype=np.uint8)

        def main(comm):
            other = 1 - comm.rank
            got = comm.sendrecv(big + comm.rank, dest=other, source=other)
            return int(got[0])

        res = run(main)
        assert res.returns == [1, 0]

    def test_sendrecv_ring_with_large_payloads(self):
        big = np.zeros(64 * KiB, dtype=np.uint8)

        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            got = comm.sendrecv(big + comm.rank, dest=right, source=left)
            return int(got[0])

        res = run(main, nprocs=4, nodes=2, procs_per_node=2)
        assert res.returns == [3, 0, 1, 2]

    def test_paired_large_send_recv_not_flagged(self):
        """One side sends, the other receives: the detector must stay
        quiet for a correctly ordered rendezvous."""
        big = np.zeros(64 * KiB, dtype=np.uint8)

        def main(comm):
            if comm.rank == 0:
                comm.send(big, dest=1)
                return comm.recv(source=1)
            got = comm.recv(source=0)
            comm.send(big, dest=0)
            return got

        res = run(main)
        assert res.returns[0].nbytes == 64 * KiB


class TestNonBlocking:
    def test_isend_irecv_roundtrip(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.isend(np.full(32 * KiB, 3, np.uint8), dest=1)
                req.wait()
                return None
            req = comm.irecv(source=0)
            got = req.wait()
            return int(got[0])

        res = run(main)
        assert res.returns[1] == 3

    def test_isend_allows_mutual_exchange(self):
        big = np.zeros(64 * KiB, dtype=np.uint8)

        def main(comm):
            other = 1 - comm.rank
            req = comm.isend(big, dest=other)
            got = comm.recv(source=other)
            req.wait()
            return got.nbytes

        res = run(main)
        assert res.returns == [64 * KiB, 64 * KiB]

    def test_request_test_eventually_true(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.isend(1, dest=1)
                assert req.test()  # eager: complete immediately
                return None
            return comm.recv(source=0)

        res = run(main)
        assert res.returns[1] == 1

    def test_request_test_tracks_a_rendezvous_send(self):
        big = np.zeros(64 * KiB, dtype=np.uint8)

        def main(comm):
            if comm.rank == 0:
                req = comm.isend(big, dest=1)
                pending = req.test()    # no receive posted yet: no CTS
                req.wait()
                return pending, req.test()
            current_process().compute(1.0)
            return comm.recv(source=0).nbytes

        res = run(main)
        assert res.returns == [(False, True), 64 * KiB]


class TestTiming:
    def test_remote_send_costs_more_than_local(self):
        """Ranks 0,1 share node 0; rank 2 is on node 1."""

        def main(comm):
            if comm.rank == 0:
                t0 = comm.wtime()
                comm.send(np.zeros(128 * KiB, np.uint8), dest=1)
                local = comm.wtime() - t0
                t0 = comm.wtime()
                comm.send(np.zeros(128 * KiB, np.uint8), dest=2)
                remote = comm.wtime() - t0
                return (local, remote)
            if comm.rank in (1, 2):
                comm.recv(source=0)
            return None

        res = run(main, nprocs=3, nodes=2, procs_per_node=2)
        local, remote = res.returns[0]
        assert remote > local

    def test_rdma_fabric_faster_than_ipoib(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1 * MiB, np.uint8), dest=1)
                return comm.wtime()
            comm.recv(source=0)
            return comm.wtime()

        t_rdma = run(main).returns[1]
        ipoib = Cluster(TESTING_MACHINE.with_(hpc_fabric="ipoib"),
                        trace=forced_trace())
        t_ipoib = mpi_run(ipoib, main, 2, charge_launch=False).returns[1]
        assert t_rdma < t_ipoib
