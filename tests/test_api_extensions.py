"""Newer API surface: MPI scan/exscan, OpenMP sections, SHMEM swap atomics,
Spark top/takeOrdered/stats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import COMET_MACHINE, Cluster
from repro.mpi import mpi_run
from repro.openmp import omp_run
from repro.shmem import shmem_run
from repro.spark import SparkContext
from tests.conftest import TESTING_MACHINE


def comet(nodes=2):
    return Cluster(COMET_MACHINE.with_nodes(nodes))


class TestMPIScan:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_inclusive_scan(self, p):
        def job(comm):
            return comm.scan(comm.rank + 1)

        res = mpi_run(comet(), job, p, procs_per_node=4, charge_launch=False)
        assert res.returns == [sum(range(1, r + 2)) for r in range(p)]

    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_exclusive_scan(self, p):
        def job(comm):
            return comm.exscan(comm.rank + 1)

        res = mpi_run(comet(), job, p, procs_per_node=4, charge_launch=False)
        expected = [None] + [sum(range(1, r + 1)) for r in range(1, p)]
        assert res.returns == expected

    def test_scan_arrays(self):
        def job(comm):
            return comm.scan(np.array([1.0, float(comm.rank)]))

        res = mpi_run(comet(), job, 4, procs_per_node=2, charge_launch=False)
        np.testing.assert_allclose(res.returns[3], [4.0, 6.0])

    @given(vals=st.lists(st.integers(-100, 100), min_size=1, max_size=9))
    @settings(max_examples=10, deadline=None)
    def test_scan_matches_itertools(self, vals):
        import itertools

        p = len(vals)

        def job(comm):
            return comm.scan(vals[comm.rank])

        res = mpi_run(comet(), job, p, procs_per_node=5,
                      charge_launch=False)
        assert res.returns == list(itertools.accumulate(vals))

    def test_scan_prefix_used_for_offsets(self):
        """The classic use: turning per-rank counts into write offsets."""

        def job(comm):
            my_count = (comm.rank + 1) * 10
            end = comm.scan(my_count)
            return end - my_count  # my exclusive offset

        res = mpi_run(comet(), job, 4, procs_per_node=2, charge_launch=False)
        assert res.returns == [0, 10, 30, 60]


class TestOpenMPSections:
    def test_each_section_runs_once(self):
        calls = []

        def region(omp):
            return omp.sections(
                lambda: calls.append("a") or "ra",
                lambda: calls.append("b") or "rb",
                lambda: calls.append("c") or "rc",
            )

        res = omp_run(Cluster(TESTING_MACHINE), region, 2)
        assert sorted(calls) == ["a", "b", "c"]
        for r in res.returns:
            assert r == ["ra", "rb", "rc"]

    def test_sections_parallelised(self):
        def region(omp):
            omp.sections(
                lambda: omp.compute(1.0),
                lambda: omp.compute(1.0),
                lambda: omp.compute(1.0),
                lambda: omp.compute(1.0),
            )
            return omp.wtime()

        res = omp_run(Cluster(TESTING_MACHINE), region, 4)
        assert max(res.returns) < 2.0  # 4 x 1s over 4 threads

    def test_consecutive_sections_blocks(self):
        def region(omp):
            first = omp.sections(lambda: 1, lambda: 2)
            second = omp.sections(lambda: 3)
            return (first, second)

        res = omp_run(Cluster(TESTING_MACHINE), region, 2)
        assert res.returns == [([1, 2], [3])] * 2


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

        res = shmem_run(comet(), main, 2, pes_per_node=1)
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

        res = shmem_run(comet(), main, 2, pes_per_node=1)
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

        res = shmem_run(comet(), main, 3, pes_per_node=2)
        assert res.returns[0] == 9.0


class TestSparkOrderedAndStats:
    def run_app(self, app):
        sc = SparkContext(Cluster(TESTING_MACHINE), executors_per_node=2,
                          app_startup=0.1)
        return sc.run(app).value

    def test_top_and_take_ordered(self):
        def app(sc):
            rdd = sc.parallelize([5, 1, 9, 3, 7, 2], 3)
            return rdd.top(2), rdd.take_ordered(3)

        assert self.run_app(app) == ([9, 7], [1, 2, 3])

    def test_top_with_key(self):
        def app(sc):
            rdd = sc.parallelize(["aa", "b", "cccc"], 2)
            return rdd.top(1, key=len)

        assert self.run_app(app) == ["cccc"]

    def test_stats_matches_numpy(self):
        data = [float(x * x % 17) for x in range(200)]

        def app(sc):
            return sc.parallelize(data, 5).stats()

        s = self.run_app(app)
        assert s.count == 200
        assert s.mean == pytest.approx(np.mean(data))
        assert s.stdev == pytest.approx(np.std(data))
        assert s.minimum == min(data)
        assert s.maximum == max(data)

    def test_stats_empty_raises(self):
        from repro.errors import SimProcessError

        with pytest.raises(SimProcessError):
            self.run_app(lambda sc: sc.parallelize([], 2).stats())
