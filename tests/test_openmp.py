"""OpenMP runtime: schedules, sync constructs, sections, reductions, tasks,
timing."""

from __future__ import annotations

import pytest

from repro.cluster import COMET_MACHINE, Cluster
from repro.errors import ConfigurationError, SimProcessError
from repro.openmp import omp_run
from repro.openmp.loops import Schedule, split_static
from repro.units import GiB
from tests.conftest import TESTING_MACHINE, forced_trace


def cluster():
    return Cluster(TESTING_MACHINE, trace=forced_trace())  # 4-core nodes


def comet():
    return Cluster(COMET_MACHINE.with_nodes(1),
                   trace=forced_trace())  # 24-core node


class TestRegion:
    def test_threads_get_distinct_ids(self):
        res = omp_run(cluster(), lambda omp: omp.thread_num, 4)
        assert res.returns == [0, 1, 2, 3]

    def test_num_threads(self):
        res = omp_run(cluster(), lambda omp: omp.num_threads, 3)
        assert res.returns == [3, 3, 3]

    def test_too_many_threads_rejected(self):
        with pytest.raises(ConfigurationError):
            omp_run(cluster(), lambda omp: None, 99)

    def test_region_has_fork_cost(self):
        res = omp_run(cluster(), lambda omp: omp.wtime(), 2)
        assert min(res.returns) > 0

    def test_join_barrier_aligns_exit(self):
        def region(omp):
            omp.compute(float(omp.thread_num))
            return omp.wtime()

        res = omp_run(cluster(), region, 4)
        # threads return at different times but the region ends at the max
        assert res.elapsed >= max(res.returns)


class TestStaticSchedule:
    def test_blocks_partition_iterations(self):
        for n, t in [(10, 3), (7, 7), (5, 4), (0, 2), (100, 1)]:
            seen = []
            for tid in range(t):
                for r in split_static(n, t, tid, None):
                    seen.extend(r)
            assert sorted(seen) == list(range(n))

    def test_chunked_round_robin(self):
        assert split_static(10, 2, 0, 2) == [range(0, 2), range(4, 6), range(8, 10)]
        assert split_static(10, 2, 1, 2) == [range(2, 4), range(6, 8)]

    def test_for_range_static_in_region(self):
        def region(omp):
            return sorted(omp.for_range(20))

        res = omp_run(cluster(), region, 4)
        flat = [i for sub in res.returns for i in sub]
        assert sorted(flat) == list(range(20))
        assert all(sub == sorted(sub) for sub in res.returns)


class TestDynamicSchedule:
    def test_dynamic_covers_iterations(self):
        def region(omp):
            return list(omp.for_range(30, schedule="dynamic", chunk=4))

        res = omp_run(cluster(), region, 3)
        flat = sorted(i for sub in res.returns for i in sub)
        assert flat == list(range(30))

    def test_dynamic_balances_skewed_work(self):
        """One expensive iteration: dynamic keeps other threads busy."""

        def region(omp, schedule):
            for i in omp.for_range(16, schedule=schedule, chunk=1):
                omp.compute(10.0 if i == 0 else 1.0)
            omp.barrier()
            return omp.wtime()

        t_static = omp_run(cluster(), region, 4, args=("static",)).elapsed
        t_dynamic = omp_run(cluster(), region, 4, args=("dynamic",)).elapsed
        # static gives thread 0 the 10s iteration plus 3 more seconds;
        # dynamic gives the long iteration to one thread and spreads the rest
        assert t_dynamic < t_static

    def test_guided_chunks_shrink(self):
        from repro.openmp.loops import ChunkDispenser

        d = ChunkDispenser(100, 2, Schedule.GUIDED, 1)
        sizes = []
        while (c := d.grab()) is not None:
            sizes.append(len(c))
        assert sum(sizes) == 100
        assert sizes[0] > sizes[-1]

    def test_mismatched_loops_detected(self):
        def region(omp):
            n = 10 if omp.thread_num == 0 else 20
            return list(omp.for_range(n, schedule="dynamic"))

        with pytest.raises(SimProcessError):
            omp_run(cluster(), region, 2)


class TestSync:
    def test_critical_serialises_virtual_time(self):
        def region(omp):
            with omp.critical():
                t0 = omp.wtime()
                omp.compute(1.0)
            return t0

        res = omp_run(cluster(), region, 4)
        starts = sorted(res.returns)
        for a, b in zip(starts, starts[1:]):
            assert b >= a + 1.0 - 1e-9

    def test_critical_sections_by_name_are_independent(self):
        def region(omp):
            name = "a" if omp.thread_num % 2 == 0 else "b"
            with omp.critical(name):
                omp.compute(1.0)
            return omp.wtime()

        res = omp_run(cluster(), region, 4)
        # two independent locks => makespan ~2s + overheads, not ~4s
        assert max(res.returns) < 3.0

    def test_single_executes_once(self):
        counter = []

        def region(omp):
            if omp.single():
                counter.append(omp.thread_num)
            omp.barrier()
            return len(counter)

        res = omp_run(cluster(), region, 4)
        assert len(counter) == 1
        assert res.returns == [1, 1, 1, 1]

    def test_master_is_thread_zero(self):
        res = omp_run(cluster(), lambda omp: omp.master(), 3)
        assert res.returns == [True, False, False]

    def test_barrier_aligns_clocks(self):
        def region(omp):
            omp.compute(float(omp.thread_num))
            omp.barrier()
            return omp.wtime()

        res = omp_run(cluster(), region, 4)
        assert max(res.returns) - min(res.returns) < 1e-9


class TestReduction:
    def test_sum_reduction(self):
        def region(omp):
            return omp.reduce(omp.thread_num + 1)

        res = omp_run(cluster(), region, 4)
        assert res.returns == [10, 10, 10, 10]

    def test_custom_op(self):
        def region(omp):
            return omp.reduce(omp.thread_num + 1, op=lambda a, b: a * b)

        res = omp_run(cluster(), region, 4)
        assert res.returns == [24] * 4

    def test_two_reductions_in_sequence(self):
        def region(omp):
            a = omp.reduce(1)
            b = omp.reduce(omp.thread_num)
            return (a, b)

        res = omp_run(cluster(), region, 3)
        assert res.returns == [(3, 3)] * 3


class TestOpenMPSections:
    def test_each_section_runs_once(self):
        calls = []

        def region(omp):
            return omp.sections(
                lambda: calls.append("a") or "ra",
                lambda: calls.append("b") or "rb",
                lambda: calls.append("c") or "rc",
            )

        res = omp_run(cluster(), region, 2)
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

        res = omp_run(cluster(), region, 4)
        assert max(res.returns) < 2.0  # 4 x 1s over 4 threads

    def test_consecutive_sections_blocks(self):
        def region(omp):
            first = omp.sections(lambda: 1, lambda: 2)
            second = omp.sections(lambda: 3)
            return (first, second)

        res = omp_run(cluster(), region, 2)
        assert res.returns == [([1, 2], [3])] * 2


class TestTasks:
    def test_tasks_all_execute(self):
        done = []

        def region(omp):
            if omp.master():
                for i in range(10):
                    omp.task(done.append, i)
            omp.taskwait()
            omp.barrier()
            return len(done)

        res = omp_run(cluster(), region, 4)
        assert sorted(done) == list(range(10))
        assert res.returns == [10] * 4

    def test_tasks_run_in_parallel(self):
        def heavy(omp):
            omp.compute(1.0)

        def region(omp):
            if omp.master():
                for _ in range(4):
                    omp.task(heavy, omp)
            omp.barrier()
            return omp.wtime()

        res = omp_run(cluster(), region, 4)
        # 4 x 1s tasks over 4 threads => ~1s, not 4s
        assert res.elapsed < 2.5


class TestMemoryBandwidth:
    def test_stream_scaling_is_sublinear(self):
        """16 threads scanning memory are < 2x faster than 8 (shared bus) —
        the effect behind OpenMP's Fig 4 behaviour."""

        def region(omp, total):
            omp.stream_bytes(total / omp.num_threads)
            omp.barrier()
            return omp.wtime()

        total = 64 * GiB
        t8 = omp_run(comet(), region, 8, args=(total,)).elapsed
        t16 = omp_run(comet(), region, 16, args=(total,)).elapsed
        assert t16 == pytest.approx(t8, rel=0.05)  # fully bandwidth-bound
