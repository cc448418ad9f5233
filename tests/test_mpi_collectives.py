"""Collectives and scans: correctness against NumPy references + cost-shape
checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, MachineSpec
from repro.cluster.spec import ClusterSpec, NodeSpec
from repro.mpi import MAX, MIN, PROD, SUM, mpi_run
from tests.conftest import forced_trace


def big_cluster(nodes=4):
    # plenty of cores so any nprocs fits
    spec = ClusterSpec(name="t", num_nodes=nodes, node=NodeSpec(cores=64))
    return Cluster(MachineSpec("t", "wide test nodes", cluster=spec),
                   trace=forced_trace())


def run(fn, nprocs, nodes=2, **kw):
    return mpi_run(big_cluster(nodes), fn, nprocs, charge_launch=False, **kw)


class TestBarrier:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_barrier_synchronises(self, p):
        def main(comm):
            # stagger arrival; everyone must leave >= the latest arrival
            comm.env  # touch to keep lambda-free style
            import repro.sim as sim

            proc = sim.current_process()
            proc.compute(float(comm.rank))
            comm.barrier()
            return comm.wtime()

        res = run(main, p)
        assert min(res.returns) >= p - 1

    def test_barrier_cost_grows_logarithmically(self):
        def main(comm):
            t0 = comm.wtime()
            comm.barrier()
            return comm.wtime() - t0

        t2 = max(run(main, 2).returns)
        t16 = max(run(main, 16, nodes=4).returns)
        # dissemination: ~log2(p) rounds; 16 ranks is ~4x the rounds of 2
        assert t16 > t2
        assert t16 < 16 * t2  # far from linear


class TestBcast:
    @pytest.mark.parametrize("p,root", [(2, 0), (4, 2), (5, 4), (8, 3), (9, 0)])
    def test_bcast_delivers_everywhere(self, p, root):
        def main(comm):
            obj = {"v": 42} if comm.rank == root else None
            return comm.bcast(obj, root=root)

        res = run(main, p, nodes=4)
        assert res.returns == [{"v": 42}] * p

    def test_bcast_array(self):
        def main(comm):
            data = np.arange(100.0) if comm.rank == 0 else None
            got = comm.bcast(data)
            return float(got.sum())

        res = run(main, 4)
        assert res.returns == [pytest.approx(4950.0)] * 4


class TestReduce:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8, 11])
    def test_reduce_sum_scalar(self, p):
        def main(comm):
            return comm.reduce(comm.rank + 1, op=SUM, root=0)

        res = run(main, p, nodes=4)
        assert res.returns[0] == p * (p + 1) // 2
        assert all(v is None for v in res.returns[1:])

    def test_reduce_array_elementwise(self):
        """The paper's reduce microbenchmark semantics: result[i] is the sum
        of element i across all ranks (Section V-B1)."""
        n = 1000

        def main(comm):
            local = np.full(n, float(comm.rank))
            return comm.reduce(local, op=SUM, root=0)

        res = run(main, 8, nodes=4)
        expected = np.full(n, sum(range(8)), dtype=float)
        np.testing.assert_allclose(res.returns[0], expected)

    @pytest.mark.parametrize("op,expected", [
        (SUM, 10), (PROD, 24), (MIN, 1), (MAX, 4),
    ])
    def test_reduce_ops(self, op, expected):
        def main(comm):
            return comm.reduce(comm.rank + 1, op=op, root=0)

        assert run(main, 4).returns[0] == expected

    def test_reduce_nonzero_root(self):
        def main(comm):
            return comm.reduce(1, root=2)

        res = run(main, 5, nodes=3)
        assert res.returns[2] == 5


class TestAllreduce:
    @given(p=st.integers(1, 13))
    @settings(max_examples=13, deadline=None)
    def test_allreduce_sum_any_p(self, p):
        def main(comm):
            return comm.allreduce(comm.rank + 1)

        res = run(main, p, nodes=4)
        assert res.returns == [p * (p + 1) // 2] * p

    def test_allreduce_arrays(self):
        def main(comm):
            return comm.allreduce(np.array([1.0, float(comm.rank)]))

        res = run(main, 6, nodes=3)
        for arr in res.returns:
            np.testing.assert_allclose(arr, [6.0, 15.0])

    def test_allreduce_min(self):
        def main(comm):
            return comm.allreduce(10 - comm.rank, op=MIN)

        assert run(main, 4).returns == [7] * 4


class TestGatherScatter:
    @pytest.mark.parametrize("p", [2, 4, 7])
    def test_gather_rank_order(self, p):
        def main(comm):
            return comm.gather(comm.rank ** 2, root=0)

        res = run(main, p, nodes=4)
        assert res.returns[0] == [r * r for r in range(p)]

    def test_scatter_distributes(self):
        def main(comm):
            objs = [f"item{i}" for i in range(comm.size)] if comm.rank == 1 else None
            return comm.scatter(objs, root=1)

        res = run(main, 4)
        assert res.returns == ["item0", "item1", "item2", "item3"]

    def test_scatter_wrong_length_raises(self):
        from repro.errors import SimProcessError

        def main(comm):
            objs = [1] if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        with pytest.raises(SimProcessError) as ei:
            run(main, 3)
        assert isinstance(ei.value.__cause__, ValueError)


class TestAllgatherAlltoall:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_allgather(self, p):
        def main(comm):
            return comm.allgather(comm.rank * 2)

        res = run(main, p, nodes=4)
        assert res.returns == [[r * 2 for r in range(p)]] * p

    @pytest.mark.parametrize("p", [2, 3, 4, 6])
    def test_alltoall_transpose(self, p):
        def main(comm):
            objs = [(comm.rank, dest) for dest in range(comm.size)]
            return comm.alltoall(objs)

        res = run(main, p, nodes=3)
        for me, got in enumerate(res.returns):
            assert got == [(src, me) for src in range(p)]

    def test_reduce_scatter_block(self):
        def main(comm):
            objs = [np.full(2, float(comm.rank + dest)) for dest in range(comm.size)]
            return comm.reduce_scatter_block(objs)

        res = run(main, 4)
        for me, got in enumerate(res.returns):
            np.testing.assert_allclose(got, np.full(2, sum(s + me for s in range(4))))


class TestSplit:
    def test_split_into_halves(self):
        def main(comm):
            color = comm.rank % 2
            sub = comm.split(color)
            total = sub.allreduce(comm.rank)
            return (sub.size, total)

        res = run(main, 6, nodes=3)
        for rank, (size, total) in enumerate(res.returns):
            assert size == 3
            assert total == (0 + 2 + 4 if rank % 2 == 0 else 1 + 3 + 5)

    def test_split_undefined_color(self):
        def main(comm):
            sub = comm.split(0 if comm.rank == 0 else None)
            return sub if sub is None else sub.size

        res = run(main, 3, nodes=2)
        assert res.returns == [1, None, None]

    def test_split_key_reorders(self):
        def main(comm):
            sub = comm.split(0, key=-comm.rank)
            return sub.rank

        res = run(main, 4)
        assert res.returns == [3, 2, 1, 0]

    def test_consecutive_splits_are_isolated(self):
        def main(comm):
            a = comm.split(comm.rank % 2)
            b = comm.split(comm.rank // 2)
            return (a.allreduce(1), b.allreduce(10))

        res = run(main, 4)
        assert res.returns == [(2, 20)] * 4


class TestMPIScan:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_inclusive_scan(self, p):
        def job(comm):
            return comm.scan(comm.rank + 1)

        res = run(job, p, procs_per_node=4)
        assert res.returns == [sum(range(1, r + 2)) for r in range(p)]

    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_exclusive_scan(self, p):
        def job(comm):
            return comm.exscan(comm.rank + 1)

        res = run(job, p, procs_per_node=4)
        expected = [None] + [sum(range(1, r + 1)) for r in range(1, p)]
        assert res.returns == expected

    def test_scan_arrays(self):
        def job(comm):
            return comm.scan(np.array([1.0, float(comm.rank)]))

        res = run(job, 4, procs_per_node=2)
        np.testing.assert_allclose(res.returns[3], [4.0, 6.0])

    @given(vals=st.lists(st.integers(-100, 100), min_size=1, max_size=9))
    @settings(max_examples=10, deadline=None)
    def test_scan_matches_itertools(self, vals):
        import itertools

        p = len(vals)

        def job(comm):
            return comm.scan(vals[comm.rank])

        res = run(job, p, procs_per_node=5)
        assert res.returns == list(itertools.accumulate(vals))

    def test_scan_prefix_used_for_offsets(self):
        """The classic use: turning per-rank counts into write offsets."""

        def job(comm):
            my_count = (comm.rank + 1) * 10
            end = comm.scan(my_count)
            return end - my_count  # my exclusive offset

        res = run(job, 4, procs_per_node=2)
        assert res.returns == [0, 10, 30, 60]


class TestCollectiveCostShapes:
    def test_reduce_time_grows_sublinearly_with_p(self):
        """Binomial tree: 16 ranks should cost ~4 rounds, not 16."""
        def main(comm):
            data = np.zeros(1024)
            t0 = comm.wtime()
            comm.reduce(data, root=0)
            comm.barrier()
            return comm.wtime() - t0

        t2 = max(run(main, 2, nodes=4).returns)
        t16 = max(run(main, 16, nodes=4).returns)
        rounds2 = math.log2(2)
        rounds16 = math.log2(16)
        assert t16 / t2 < 2.5 * (rounds16 / rounds2)

    def test_larger_arrays_cost_more(self):
        def main(comm, n):
            data = np.zeros(n)
            t0 = comm.wtime()
            comm.reduce(data, root=0)
            return comm.wtime() - t0

        t_small = max(mpi_run(big_cluster(), lambda c: main(c, 1024), 8,
                              charge_launch=False).returns)
        t_big = max(mpi_run(big_cluster(), lambda c: main(c, 1024 * 256), 8,
                            charge_launch=False).returns)
        assert t_big > t_small * 5


# ---------------------------------------------------------------------------
# payload ownership: the runtime may move its own temporaries and combine
# into buffers it received, but a caller never sees that
# ---------------------------------------------------------------------------

#: 8 KiB eager threshold: float64 lengths up to 1024 go eager, beyond that
#: rendezvous — both protocols carry the moved and the copied buffers
LENGTHS = st.one_of(st.integers(1, 64),
                    st.sampled_from([1024, 1025, 5000, 70_000]))
DTYPES = st.sampled_from([np.int32, np.int64, np.float32, np.float64])
#: commutative ops whose results on small integers are exact in every dtype,
#: so the NumPy reference matches bit for bit whatever the tree shape
OPS = st.sampled_from([
    (SUM, np.add), (PROD, np.multiply), (MIN, np.minimum), (MAX, np.maximum),
    (lambda a, b: a + b, np.add),  # user-defined: never combined in place
])


def rank_input(rank, n, dtype, k=0):
    """Small integers (1..3), distinct per rank, element and block ``k``."""
    return ((np.arange(n) + 2 * rank + 5 * k) % 3 + 1).astype(dtype)


def arrays_in(obj):
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for x in obj for a in arrays_in(x)]
    return []


def run_owned(p, call, make_input):
    """Run ``call(comm, x)`` on ``p`` ranks; assert the ownership contract.

    Returns the per-rank results.  Checked for every collective alike:
    inputs come back untouched, and every array a rank gets back is
    writeable and shares memory with no rank's input and no other result.
    """
    def main(comm):
        x = make_input(comm.rank)
        keep = [a.copy() for a in arrays_in(x)]
        return x, keep, call(comm, x)

    res = run(main, p, nodes=4)
    inputs, results = [], []
    for x, keep, out in res.returns:
        for now, before in zip(arrays_in(x), keep):
            assert now.tobytes() == before.tobytes(), "runtime wrote a user buffer"
        inputs += arrays_in(x)
        results += arrays_in(out)
    for i, r in enumerate(results):
        assert r.flags.writeable
        assert not any(np.shares_memory(r, x) for x in inputs)
        assert not any(np.shares_memory(r, o) for o in results[i + 1:])
    return [out for _x, _keep, out in res.returns]


def same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestPayloadOwnership:
    @given(p=st.integers(1, 9), root=st.integers(0, 8), n=LENGTHS,
           dtype=DTYPES, op=OPS)
    @settings(max_examples=60, deadline=None)
    def test_reduce(self, p, root, n, dtype, op):
        root %= p
        outs = run_owned(p, lambda comm, x: comm.reduce(x, op=op[0], root=root),
                         lambda r: rank_input(r, n, dtype))
        want = op[1].reduce([rank_input(r, n, dtype) for r in range(p)])
        same_bits(outs[root], want.astype(dtype))
        assert all(o is None for r, o in enumerate(outs) if r != root)

    @given(p=st.integers(1, 9), n=LENGTHS, dtype=DTYPES, op=OPS)
    @settings(max_examples=60, deadline=None)
    def test_allreduce(self, p, n, dtype, op):
        outs = run_owned(p, lambda comm, x: comm.allreduce(x, op=op[0]),
                         lambda r: rank_input(r, n, dtype))
        want = op[1].reduce([rank_input(r, n, dtype) for r in range(p)])
        for out in outs:
            same_bits(out, want.astype(dtype))

    @given(p=st.integers(1, 9), n=LENGTHS, dtype=DTYPES, op=OPS,
           exclusive=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_scan_and_exscan(self, p, n, dtype, op, exclusive):
        def call(comm, x):
            return (comm.exscan if exclusive else comm.scan)(x, op=op[0])

        outs = run_owned(p, call, lambda r: rank_input(r, n, dtype))
        prefix = op[1].accumulate([rank_input(r, n, dtype) for r in range(p)])
        for r, out in enumerate(outs):
            if exclusive and r == 0:
                assert out is None
            else:
                same_bits(out, prefix[r - 1 if exclusive else r].astype(dtype))

    @given(p=st.integers(1, 9), n=LENGTHS, dtype=DTYPES, op=OPS)
    @settings(max_examples=40, deadline=None)
    def test_reduce_scatter_block(self, p, n, dtype, op):
        n = min(n, 5000)  # p blocks per rank

        def blocks(r):
            return [rank_input(r, n, dtype, k) for k in range(p)]

        outs = run_owned(
            p, lambda comm, x: comm.reduce_scatter_block(x, op=op[0]), blocks)
        for k, out in enumerate(outs):
            want = op[1].reduce([blocks(r)[k] for r in range(p)])
            same_bits(out, want.astype(dtype))

    @given(p=st.integers(1, 9), root=st.integers(0, 8), n=LENGTHS, dtype=DTYPES,
           coll=st.sampled_from(["gather", "allgather", "scatter", "alltoall",
                                 "bcast"]))
    @settings(max_examples=60, deadline=None)
    def test_data_movement_collectives(self, p, root, n, dtype, coll):
        root %= p
        n = min(n, 5000)

        def blocks(r):
            return [rank_input(r, n, dtype, k) for k in range(p)]

        if coll == "gather":
            outs = run_owned(p, lambda comm, x: comm.gather(x, root=root),
                             lambda r: rank_input(r, n, dtype))
            want = [[rank_input(r, n, dtype) for r in range(p)]
                    if me == root else None for me in range(p)]
        elif coll == "allgather":
            outs = run_owned(p, lambda comm, x: comm.allgather(x),
                             lambda r: rank_input(r, n, dtype))
            want = [[rank_input(r, n, dtype) for r in range(p)]] * p
        elif coll == "scatter":
            outs = run_owned(
                p, lambda comm, x: comm.scatter(
                    x if comm.rank == root else None, root=root), blocks)
            want = [blocks(root)[me] for me in range(p)]
        elif coll == "alltoall":
            outs = run_owned(p, lambda comm, x: comm.alltoall(x), blocks)
            want = [[blocks(src)[me] for src in range(p)] for me in range(p)]
        else:
            def bcast(comm, x):
                out = comm.bcast(x if comm.rank == root else None, root=root)
                # MPI_Bcast is in place at the root: its own buffer comes
                # back as is, everyone else owns a copy
                return None if comm.rank == root else out

            outs = run_owned(p, bcast, lambda r: rank_input(r, n, dtype))
            want = [None if me == root else rank_input(root, n, dtype)
                    for me in range(p)]
        for out, w in zip(outs, want):
            assert len(arrays_in(out)) == len(arrays_in(w))
            for got, ref in zip(arrays_in(out), arrays_in(w)):
                same_bits(got, ref)

    @given(n=LENGTHS, dtype=DTYPES, nested=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_sender_reuse_never_reaches_the_receiver(self, n, dtype, nested):
        """Scribbling over the buffer right after ``send`` returns or
        ``isend(...).wait()`` completes is legal MPI, also when the buffer
        travels inside a list."""
        def wrap(a):
            return [a, 7] if nested else a

        def main(comm):
            if comm.rank == 0:
                a, b = rank_input(0, n, dtype), rank_input(1, n, dtype)
                comm.send(wrap(a), dest=1, tag=0)
                a[:] = 0
                comm.isend(wrap(b), dest=1, tag=1).wait()
                b[:] = 0
                return None
            return comm.recv(source=0, tag=0), comm.recv(source=0, tag=1)

        got = run(main, 2).returns[1]
        for r, payload in enumerate(got):
            (arr,) = arrays_in(payload)
            same_bits(arr, rank_input(r, n, dtype))
            assert arr.flags.writeable

    def test_frozen_arrays_inside_a_container_are_shared_not_copied(self):
        """The zero-copy convention ``mpi_pr.py`` relies on: a read-only
        array that owns its data passes through a container as is; a
        read-only *view* of a writeable buffer does not."""
        def main(comm):
            if comm.rank == 0:
                frozen = np.arange(4.0)
                frozen.setflags(write=False)
                base = np.arange(4.0)
                view = base[:]
                view.setflags(write=False)
                comm.send([frozen, view], dest=1)
                return frozen, base
            return comm.recv(source=0)

        (frozen, base), (got_frozen, got_view) = run(main, 2).returns
        assert got_frozen is frozen
        assert not np.shares_memory(got_view, base)

    @pytest.mark.parametrize("p,root", [(1, 0), (2, 1), (5, 3), (8, 0), (9, 4)])
    def test_user_op_sees_the_same_operands_in_the_same_order(self, p, root):
        """A non-commutative op pins both the tree shape and ``(acc, data)``
        operand order of reduce and scan against a model of the algorithm."""
        def op(a, b):
            return 3 * a - b

        def vals(r):
            return rank_input(r, 7, np.int64)

        outs = run_owned(p, lambda comm, x: (comm.reduce(x, op=op, root=root),
                                             comm.scan(x, op=op)), vals)
        acc = {v: vals((v + root) % p) for v in range(p)}  # binomial tree
        mask = 1
        while mask < p:
            for v in range(0, p, 2 * mask):
                if v + mask < p:
                    acc[v] = op(acc[v], acc[v + mask])
            mask <<= 1
        same_bits(outs[root][0], acc[0])
        run_ = [vals(r) for r in range(p)]  # Hillis-Steele doubling
        k = 1
        while k < p:
            run_ = [op(run_[r - k], run_[r]) if r >= k else run_[r]
                    for r in range(p)]
            k <<= 1
        for r in range(p):
            same_bits(outs[r][1], run_[r])

    def test_a_move_inside_sendrecv_is_caught(self, monkeypatch):
        """Negative control: recursive doubling keeps using the buffer it
        exchanges, so moving there is a data race — and the ownership
        properties above must be able to see one."""
        import sys

        from repro.mpi import p2p

        real = p2p.copy_payload

        def planted(obj):
            moving = sys._getframe(1).f_code.co_name == "_sendrecv_steps"
            return obj if moving else real(obj)

        def allreduce():
            run_owned(4, lambda comm, x: comm.allreduce(x),
                      lambda r: rank_input(r, 16, np.float64))

        allreduce()
        monkeypatch.setattr(p2p, "copy_payload", planted)
        with pytest.raises(AssertionError):
            allreduce()
