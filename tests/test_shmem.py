"""OpenSHMEM runtime: symmetric heap, one-sided ops, collectives, sync."""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, MachineSpec
from repro.cluster.spec import ClusterSpec, NodeSpec
from repro.errors import DeadlockError, ShmemError, SimProcessError
from repro.shmem import shmem_run
from tests.conftest import forced_trace


def cluster(nodes=2):
    spec = ClusterSpec(name="t", num_nodes=nodes, node=NodeSpec(cores=32))
    return Cluster(MachineSpec("t", "wide test nodes", cluster=spec),
                   trace=forced_trace())


def run(fn, npes=4, nodes=2, **kw):
    return shmem_run(cluster(nodes), fn, npes, **kw)


class TestHeap:
    def test_alloc_gives_private_zeroed_copies(self):
        def main(pe):
            a = pe.alloc(3)
            return pe.local(a).tolist()

        res = run(main)
        assert res.returns == [[0.0, 0.0, 0.0]] * 4

    def test_alloc_init(self):
        def main(pe):
            a = pe.alloc(2, init=float(pe.my_pe))
            return pe.local(a).tolist()

        res = run(main, npes=3)
        assert res.returns == [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]

    def test_mismatched_alloc_detected(self):
        def main(pe):
            pe.alloc(2 if pe.my_pe == 0 else 5)

        with pytest.raises(SimProcessError) as ei:
            run(main, npes=2)
        assert isinstance(ei.value.__cause__, ShmemError)

    def test_two_allocs_are_distinct(self):
        def main(pe):
            a = pe.alloc(1, init=1.0)
            b = pe.alloc(1, init=2.0)
            return (pe.local(a)[0], pe.local(b)[0])

        res = run(main, npes=2)
        assert res.returns == [(1.0, 2.0)] * 2


class TestPutGet:
    def test_put_writes_remote_copy(self):
        def main(pe):
            a = pe.alloc(4)
            pe.barrier_all()
            if pe.my_pe == 0:
                pe.put(a, np.array([9.0, 9.0]), pe=1, offset=1)
            pe.barrier_all()
            return pe.local(a).tolist()

        res = run(main, npes=2)
        assert res.returns[0] == [0.0, 0.0, 0.0, 0.0]
        assert res.returns[1] == [0.0, 9.0, 9.0, 0.0]

    def test_get_reads_neighbour(self):
        def main(pe):
            a = pe.alloc(2, init=float(pe.my_pe * 10))
            pe.barrier_all()
            got = pe.get(a, (pe.my_pe + 1) % pe.n_pes)
            pe.barrier_all()
            return got.tolist()

        res = run(main, npes=3)
        assert res.returns == [[10.0, 10.0], [20.0, 20.0], [0.0, 0.0]]

    def test_put_bounds_checked(self):
        def main(pe):
            a = pe.alloc(2)
            pe.put(a, np.zeros(5), pe=0)

        with pytest.raises(SimProcessError) as ei:
            run(main, npes=2)
        assert isinstance(ei.value.__cause__, ShmemError)

    def test_scalar_put(self):
        def main(pe):
            a = pe.alloc(1)
            pe.barrier_all()
            if pe.my_pe == 1:
                pe.put(a, 7.5, pe=0)
            pe.barrier_all()
            return float(pe.local(a)[0])

        res = run(main, npes=2)
        assert res.returns[0] == 7.5

    def test_remote_put_slower_than_local_node(self):
        """PEs 0,1 share node 0; PE 2 lives on node 1."""

        def main(pe):
            a = pe.alloc(1024, dtype=np.float64)
            pe.barrier_all()
            if pe.my_pe == 0:
                t0 = pe.wtime()
                pe.put(a, np.zeros(1024), pe=1)
                local = pe.wtime() - t0
                t0 = pe.wtime()
                pe.put(a, np.zeros(1024), pe=2)
                remote = pe.wtime() - t0
                pe.barrier_all()
                return (local, remote)
            pe.barrier_all()
            return None

        res = shmem_run(cluster(2), main, 3, pes_per_node=2)
        local, remote = res.returns[0]
        assert remote > local


class TestAtomics:
    def test_fetch_add_returns_old_and_accumulates(self):
        def main(pe):
            a = pe.alloc(1)
            pe.barrier_all()
            old = pe.atomic_fetch_add(a, 1.0, pe=0)
            pe.barrier_all()
            return (old, float(pe.local(a)[0]) if pe.my_pe == 0 else None)

        res = run(main, npes=4)
        olds = sorted(r[0] for r in res.returns)
        assert olds == [0.0, 1.0, 2.0, 3.0]
        assert res.returns[0][1] == 4.0

    def test_atomic_add_without_fetch(self):
        def main(pe):
            a = pe.alloc(1)
            pe.barrier_all()
            pe.atomic_add(a, 2.0, pe=0)
            pe.barrier_all()
            return float(pe.local(a)[0])

        res = run(main, npes=3)
        assert res.returns[0] == 6.0

    @staticmethod
    def _wake_after(write):
        """PE 0's wake from ``wait_until`` after PE 1's ``write`` to it,
        and PE 1's clock when ``write`` returned."""
        def main(pe):
            a = pe.alloc(2)
            if pe.my_pe == 0:
                pe.wait_until(a, lambda x: x[0] != 0)
            elif pe.my_pe == 1:
                write(pe, a)
            return pe.wtime()

        res = run(main, npes=4, pes_per_node=2)
        return res.returns[0], res.returns[1]

    @pytest.mark.parametrize("write,words,fetch", [
        (lambda pe, a: pe.atomic_fetch_add(a, 5.0, 0), 1, True),
        (lambda pe, a: pe.atomic_swap(a, 5.0, 0), 1, True),
        (lambda pe, a: pe.atomic_add(a, 5.0, 0), 1, False),
        (lambda pe, a: pe.atomic_compare_swap(a, 0.0, 5.0, 0), 2, True),
    ], ids=["fetch_add", "swap", "add", "compare_swap"])
    def test_update_is_visible_when_the_request_lands(self, write, words,
                                                      fetch):
        """An atomic's write wakes a waiter at the instant its request
        lands, as a ``put`` of the request's bytes does, not when a
        fetching atomic's reply gets back."""
        landing, _ = self._wake_after(
            lambda pe, a: pe.put(a, [5.0] * words, 0))
        wake, returned = self._wake_after(write)
        assert wake == landing
        assert (returned > wake) is fetch


class TestShmemSwapAtomics:
    def test_atomic_swap_returns_old(self):
        def main(pe):
            a = pe.alloc(1, init=5.0)
            pe.barrier_all()
            if pe.my_pe == 1:
                old = pe.atomic_swap(a, 9.0, pe=0)
                pe.barrier_all()
                return old
            pe.barrier_all()
            return float(pe.local(a)[0])

        res = run(main, 2, pes_per_node=1)
        assert res.returns == [9.0, 5.0]

    def test_compare_swap_success_and_failure(self):
        def main(pe):
            a = pe.alloc(1, init=3.0)
            pe.barrier_all()
            if pe.my_pe == 1:
                ok = pe.atomic_compare_swap(a, cond=3.0, value=7.0, pe=0)
                fail = pe.atomic_compare_swap(a, cond=3.0, value=99.0, pe=0)
                pe.barrier_all()
                return (ok, fail)
            pe.barrier_all()
            return float(pe.local(a)[0])

        res = run(main, 2, pes_per_node=1)
        assert res.returns[1] == (3.0, 7.0)  # first succeeded, second saw 7
        assert res.returns[0] == 7.0

    def test_cswap_builds_a_spinlock(self):
        """The canonical cswap idiom: PEs take turns via a 0/1 lock word."""

        def main(pe):
            lock = pe.alloc(1)      # 0 = free
            count = pe.alloc(1)
            pe.barrier_all()
            for _ in range(3):
                while pe.atomic_compare_swap(lock, 0.0, 1.0, pe=0) != 0.0:
                    pass
                v = pe.get(count, 0)
                pe.put(count, v + 1.0, pe=0)
                pe.atomic_swap(lock, 0.0, pe=0)  # release
            pe.barrier_all()
            return float(pe.local(count)[0]) if pe.my_pe == 0 else None

        res = run(main, 3, pes_per_node=2)
        assert res.returns[0] == 9.0


class TestSync:
    def test_wait_until_woken_by_put(self):
        def main(pe):
            flag = pe.alloc(1)
            pe.barrier_all()
            if pe.my_pe == 0:
                pe.wait_until(flag, lambda a: a[0] == 1.0)
                return pe.wtime()
            import repro.sim as sim

            sim.current_process().compute(2.0)
            pe.put(flag, 1.0, pe=0)
            return None

        res = run(main, npes=2)
        assert res.returns[0] >= 2.0

    def test_wait_until_never_satisfied_deadlocks(self):
        def main(pe):
            flag = pe.alloc(1)
            pe.barrier_all()
            if pe.my_pe == 0:
                pe.wait_until(flag, lambda a: a[0] == 99.0)
            return None

        with pytest.raises(DeadlockError) as ei:
            run(main, npes=2)
        # the dump names the user's call, not the runtime's park
        lines, first = inspect.getsourcelines(main)
        line = first + next(i for i, text in enumerate(lines)
                            if "wait_until" in text)
        assert f"at test_shmem.py:{line}" in str(ei.value)

    def test_distributed_lock_serialises(self):
        def main(pe):
            counter = pe.alloc(1)
            pe.barrier_all()
            pe.set_lock("L")
            v = pe.get(counter, 0)
            pe.put(counter, v + 1.0, pe=0)
            pe.clear_lock("L")
            pe.barrier_all()
            return float(pe.local(counter)[0]) if pe.my_pe == 0 else None

        res = run(main, npes=4)
        assert res.returns[0] == 4.0


class TestCollectives:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_barrier_all_aligns(self, p):
        def main(pe):
            import repro.sim as sim

            sim.current_process().compute(float(pe.my_pe))
            pe.barrier_all()
            return pe.wtime()

        res = run(main, npes=p, nodes=2)
        assert min(res.returns) >= p - 1

    @pytest.mark.parametrize("p,root", [(2, 0), (4, 3), (5, 2)])
    def test_broadcast(self, p, root):
        def main(pe):
            a = pe.alloc(3, init=float(pe.my_pe + 1))
            pe.broadcast(a, root=root)
            return pe.local(a).tolist()

        res = run(main, npes=p, nodes=2)
        assert res.returns == [[float(root + 1)] * 3] * p

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
    def test_sum_to_all(self, p):
        def main(pe):
            a = pe.alloc(2, init=float(pe.my_pe + 1))
            pe.sum_to_all(a)
            return pe.local(a).tolist()

        res = run(main, npes=p, nodes=2)
        expected = [float(p * (p + 1) // 2)] * 2
        assert res.returns == [expected] * p

    def test_collect_concatenates_in_pe_order(self):
        def main(pe):
            a = pe.alloc(2, init=float(pe.my_pe))
            return pe.collect(a).tolist()

        res = run(main, npes=3)
        assert res.returns == [[0.0, 0.0, 1.0, 1.0, 2.0, 2.0]] * 3


class TestPayloadOwnership:
    """The collectives consume remote memory through views; callers of
    ``get`` and ``collect`` still get arrays nobody else can see."""

    @given(p=st.integers(1, 9), root=st.integers(0, 8),
           n=st.one_of(st.integers(1, 64), st.sampled_from([1025, 70_000])),
           dtype=st.sampled_from([np.int64, np.float32, np.float64]))
    @settings(max_examples=40, deadline=None)
    def test_collectives_match_numpy_and_leak_no_views(self, p, root, n, dtype):
        root %= p

        def init(r):
            return ((np.arange(n) + 2 * r) % 3 + 1).astype(dtype)

        def main(pe):
            s, b, c = (pe.alloc(n, dtype=dtype, init=init(pe.my_pe))
                       for _ in range(3))
            pe.sum_to_all(s)
            pe.broadcast(b, root=root)
            got = pe.collect(c)
            return [pe.local(a) for a in (s, b, c)], got

        res = run(main, npes=p, nodes=2)
        total = np.add.reduce([init(r) for r in range(p)]).astype(dtype)
        everyone = np.concatenate([init(r) for r in range(p)])
        heap = [a for local, _ in res.returns for a in local]
        for me, ((s, b, c), got) in enumerate(res.returns):
            for arr, want in ((s, total), (b, init(root)), (c, init(me)),
                              (got, everyone)):
                assert arr.dtype == want.dtype
                assert arr.tobytes() == want.tobytes()
            assert got.flags.writeable
            assert not any(np.shares_memory(got, a) for a in heap)

    @pytest.mark.parametrize("n", [3, 70_000])
    def test_get_returns_a_private_array(self, n):
        def main(pe):
            a = pe.alloc(n, init=float(pe.my_pe + 1))
            pe.barrier_all()
            target = (pe.my_pe + 1) % pe.n_pes
            got = pe.get(a, target, offset=1, count=n - 1)
            shared = np.shares_memory(got, a.local(target))
            got[:] = -1.0  # must stay ours
            pe.barrier_all()
            return shared, got.flags.writeable, pe.local(a).copy()

        for me, (shared, writeable, mine) in enumerate(run(main, npes=3).returns):
            assert not shared and writeable
            assert (mine == me + 1).all()


def test_fig3_with_openshmem_series_fingerprint_is_pinned():
    """``include_shmem`` defaults to False, so no golden executes the
    OpenSHMEM series; this pin (computed at 49c912e, before the payload
    ownership rule landed) is what holds its simulated numbers still."""
    from repro.core.experiment import get_experiment
    from repro.core.figures import fig3
    from repro.platform import fingerprint_result

    quick = get_experiment("fig3").quick_params
    result = fig3(**quick, include_shmem=True)
    assert result.series[-1].name == "OpenSHMEM"
    assert fingerprint_result(result) == "4f683c1b79a2fd8c"
