"""MPI-IO (incl. the INT_MAX limitation) and one-sided RMA windows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import check_trace
from repro.cluster import Cluster, MachineSpec
from repro.cluster.spec import ClusterSpec, NodeSpec
from repro.errors import MPIIntOverflowError, SimProcessError
from repro.fs import BytesContent, LocalFS
from repro.mpi import MPIFile, Window, mpi_run
from repro.mpi.io import chunk_for_rank
from repro.sim.trace import Trace
from repro.units import GiB, INT_MAX, MiB
from tests.conftest import TESTING_MACHINE, forced_trace


def make_env(nodes=2):
    cl = Cluster(TESTING_MACHINE.with_nodes(nodes), trace=forced_trace())
    fs = LocalFS(cl)
    return cl, fs


class TestMPIFile:
    def test_collective_read_roundtrip(self):
        cl, fs = make_env()
        payload = bytes(range(256)) * 4
        fs.create_replicated("in.bin", BytesContent(payload))

        def main(comm):
            f = MPIFile.open(comm, fs, "in.bin")
            off, cnt = chunk_for_rank(f.size(), comm.rank, comm.size)
            data = f.read_at_all(off, cnt)
            f.close()
            return data

        res = mpi_run(cl, main, 4, charge_launch=False)
        assert b"".join(res.returns) == payload

    def test_chunk_for_rank_covers_file(self):
        chunks = [chunk_for_rank(1003, r, 7) for r in range(7)]
        assert chunks[0][0] == 0
        assert sum(c for _, c in chunks) == 1003
        for (o1, c1), (o2, _) in zip(chunks, chunks[1:]):
            assert o1 + c1 == o2

    def test_int_overflow_on_big_chunk(self):
        """Section V-C: an 80 GB file over few ranks exceeds the C int."""
        cl, fs = make_env()
        fs.create_replicated("huge.bin", BytesContent(bytes(1 * MiB)),
                             scale=80_000)  # 80 GB logical

        def main(comm):
            f = MPIFile.open(comm, fs, "huge.bin")
            off, cnt = chunk_for_rank(f.size(), comm.rank, comm.size)
            return f.read_at_all(off, cnt)

        with pytest.raises(SimProcessError) as ei:
            mpi_run(cl, main, 8, charge_launch=False)
        assert isinstance(ei.value.__cause__, MPIIntOverflowError)

    def test_40_plus_procs_needed_for_80gb(self):
        """The arithmetic behind the paper's '>40 processes' claim.

        80 GiB / 40 = exactly 2 GiB, one byte over INT_MAX — so the paper's
        "80 GB" must be 80 GiB for the claim to hold, and it then does.
        """
        size = 80 * GiB
        _, cnt40 = chunk_for_rank(size, 0, 40)
        _, cnt41 = chunk_for_rank(size, 0, 41)
        assert cnt40 > INT_MAX
        assert cnt41 <= INT_MAX

    def test_independent_read(self):
        cl, fs = make_env()
        fs.create_replicated("x.bin", BytesContent(b"hello world!"))

        def main(comm):
            f = MPIFile.open(comm, fs, "x.bin")
            if comm.rank == 0:
                return f.read_at(6, 5)
            return None

        res = mpi_run(cl, main, 2, charge_launch=False)
        assert res.returns[0] == b"world"

    def test_collective_write(self):
        cl, fs = make_env()
        fs.create_replicated("out.bin", BytesContent(b""))

        def main(comm):
            f = MPIFile.open(comm, fs, "out.bin")
            f.write_at_all(comm.rank * 100, 100)
            f.close()
            return comm.wtime()

        res = mpi_run(cl, main, 4, charge_launch=False)
        assert min(res.returns) > 0

    def test_closed_file_rejected(self):
        cl, fs = make_env()
        fs.create_replicated("c.bin", BytesContent(b"abc"))

        def main(comm):
            f = MPIFile.open(comm, fs, "c.bin")
            f.close()
            f.read_at(0, 1)

        with pytest.raises(SimProcessError):
            mpi_run(cl, main, 2, charge_launch=False)


class TestRMA:
    def run(self, fn, nprocs=4, nodes=2):
        spec = ClusterSpec(name="t", num_nodes=nodes, node=NodeSpec(cores=32))
        cl = Cluster(MachineSpec("t", "wide test nodes", cluster=spec),
                     trace=forced_trace())
        return mpi_run(cl, fn, nprocs, charge_launch=False)

    #: how rank 0's put into rank 1's window is ordered before rank 2's
    #: get from it -> the races the checker reports
    ORDERINGS = {"nothing": 1, "a fence": 0, "the target's lock": 0}

    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_window_accesses_reach_the_race_checker(self, ordering):
        def main(comm):
            win = Window.create(comm, np.zeros(4))
            locked = ordering == "the target's lock"
            if locked and comm.rank != 1:
                win.lock(1)
            if comm.rank == 0:
                win.put(np.ones(2), target_rank=1, target_offset=1)
            if ordering == "a fence":
                win.fence()
            if comm.rank == 2:
                win.get(target_rank=1, offset=2, count=2)
            if locked and comm.rank != 1:
                win.unlock(1)

        spec = ClusterSpec(name="t", num_nodes=2, node=NodeSpec(cores=32))
        cl = Cluster(MachineSpec("t", "wide test nodes", cluster=spec),
                     trace=Trace(hb=True))
        mpi_run(cl, main, 3, charge_launch=False)
        report = check_trace(cl.trace)
        assert report.accesses == 2
        assert len(report.races) == self.ORDERINGS[ordering]
        assert {r.loc for r in report.races} <= {"mpi.win0.0@rank1"}

    def test_put_then_fence_then_read(self):
        def main(comm):
            buf = np.zeros(comm.size)
            win = Window.create(comm, buf)
            win.fence()
            # everyone puts its rank into slot [rank] of rank 0's window
            win.put(np.array([float(comm.rank + 1)]), target_rank=0,
                    target_offset=comm.rank)
            win.fence()
            return buf.tolist() if comm.rank == 0 else None

        res = self.run(main)
        assert res.returns[0] == [1.0, 2.0, 3.0, 4.0]

    def test_get_reads_remote_window(self):
        def main(comm):
            buf = np.full(3, float(comm.rank * 10))
            win = Window.create(comm, buf)
            win.fence()
            got = win.get(target_rank=(comm.rank + 1) % comm.size)
            win.fence()
            return got.tolist()

        res = self.run(main, nprocs=3)
        assert res.returns[0] == [10.0, 10.0, 10.0]
        assert res.returns[2] == [0.0, 0.0, 0.0]

    def test_put_overflow_rejected(self):
        def main(comm):
            win = Window.create(comm, np.zeros(2))
            win.put(np.zeros(5), target_rank=0)

        with pytest.raises(SimProcessError):
            self.run(main, nprocs=2)

    def test_lock_serialises_access(self):
        """Passive-target updates under lock never interleave."""

        def main(comm):
            buf = np.zeros(1)
            win = Window.create(comm, buf)
            win.fence()
            for _ in range(3):
                win.lock(0)
                cur = win.get(target_rank=0)
                win.put(cur + 1.0, target_rank=0)
                win.unlock(0)
            win.fence()
            return float(win.buffer(0)[0]) if comm.rank == 0 else None

        res = self.run(main, nprocs=4)
        assert res.returns[0] == 12.0  # 4 ranks x 3 increments

    def test_mpi4py_style_rma_example(self):
        """The guide's RMA pattern: rank 0 exposes, everyone gets 42s."""

        def main(comm):
            n = 10
            buf = np.zeros(n, dtype=np.float32)
            if comm.rank == 0:
                buf.fill(42)
            win = Window.create(comm, buf if comm.rank == 0 else np.empty(0, np.float32))
            comm.barrier()
            if comm.rank != 0:
                win.lock(0)
                got = win.get(target_rank=0)
                win.unlock(0)
                return bool(np.all(got == 42))
            return True

        res = self.run(main, nprocs=3)
        assert all(res.returns)

    @pytest.mark.parametrize("n", [3, 70_000])
    def test_get_returns_a_private_array(self, n):
        """Scribbling over what ``get`` returned never reaches the window;
        ``put`` copies out of the caller's buffer."""

        def main(comm):
            buf = np.full(n, float(comm.rank + 1))
            win = Window.create(comm, buf)
            win.fence()
            target = (comm.rank + 1) % comm.size
            got = win.get(target_rank=target, offset=1, count=n - 1)
            shared = np.shares_memory(got, win.buffer(target))
            got[:] = -1.0
            win.fence()
            if comm.rank == 0:
                data = np.full(2, 9.0)
                win.put(data, target_rank=1)
                data[:] = -1.0
            win.fence()
            return shared, got.flags.writeable, buf

        res = self.run(main, nprocs=3)
        for me, (shared, writeable, buf) in enumerate(res.returns):
            assert not shared and writeable
            want = np.full(n, float(me + 1))
            if me == 1:
                want[:2] = 9.0
            assert (buf == want).all()
