"""Cross-cutting property-based tests over the runtimes.

These complement the per-module suites with randomized end-to-end checks:
any collective payload, any split geometry, any graph — the invariants must
hold.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import COMET_MACHINE, Cluster, MachineSpec
from repro.cluster.spec import ClusterSpec, NodeSpec
from repro.mpi import MAX, MIN, SUM, mpi_run
from repro.shmem import shmem_run
from repro.spark import SparkContext
from repro.workloads.stackexchange import StackExchangeSpec, se_line, parse_post


def big_cluster(nodes=3):
    spec = ClusterSpec(name="t", num_nodes=nodes, node=NodeSpec(cores=64))
    return Cluster(MachineSpec("t", "wide test nodes", cluster=spec))


payloads = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.lists(st.integers(-100, 100), max_size=10),
)


class TestMPIProperties:
    @given(obj=payloads, p=st.integers(2, 9), root=st.integers(0, 8))
    @settings(max_examples=15, deadline=None)
    def test_bcast_delivers_any_payload_from_any_root(self, obj, p, root):
        root = root % p

        def job(comm):
            data = obj if comm.rank == root else None
            return comm.bcast(data, root=root)

        res = mpi_run(big_cluster(), job, p, procs_per_node=3,
                      charge_launch=False)
        assert res.returns == [obj] * p

    @given(p=st.integers(1, 9), op_idx=st.integers(0, 2),
           seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_allreduce_equals_numpy_for_random_arrays(self, p, op_idx, seed):
        op, np_op = [(SUM, np.sum), (MIN, np.min), (MAX, np.max)][op_idx]
        rng = np.random.default_rng(seed)
        arrays = rng.integers(-50, 50, size=(p, 6)).astype(float)

        def job(comm):
            return comm.allreduce(arrays[comm.rank].copy(), op=op)

        res = mpi_run(big_cluster(), job, p, procs_per_node=3,
                      charge_launch=False)
        expected = np_op(arrays, axis=0)
        for got in res.returns:
            np.testing.assert_allclose(got, expected)

    @given(p=st.integers(2, 8), seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_alltoall_is_a_transpose(self, p, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 1000, size=(p, p)).tolist()

        def job(comm):
            return comm.alltoall(list(matrix[comm.rank]))

        res = mpi_run(big_cluster(), job, p, procs_per_node=3,
                      charge_launch=False)
        for me, got in enumerate(res.returns):
            assert got == [matrix[src][me] for src in range(p)]


class TestShmemProperties:
    @given(p=st.integers(1, 8), seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_sum_to_all_equals_numpy(self, p, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-20, 20, size=(p, 4)).astype(float)

        def main(pe):
            sym = pe.alloc(4, init=values[pe.my_pe])
            pe.sum_to_all(sym)
            return pe.local(sym).copy()

        res = shmem_run(big_cluster(), main, p, pes_per_node=3)
        for got in res.returns:
            np.testing.assert_allclose(got, values.sum(axis=0))


class TestSparkProperties:
    @given(data=st.lists(st.integers(-100, 100), max_size=60),
           nparts=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_collect_preserves_order_and_content(self, data, nparts):
        sc = SparkContext(Cluster(COMET_MACHINE.with_nodes(2)), executors_per_node=2,
                          app_startup=0.1)
        got = sc.run(lambda sc: sc.parallelize(data, nparts).collect()).value
        assert got == data

    @given(data=st.lists(st.tuples(st.integers(0, 6), st.integers(-5, 5)),
                         max_size=50),
           nparts=st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_group_by_key_partitions_values(self, data, nparts):
        sc = SparkContext(Cluster(COMET_MACHINE.with_nodes(2)), executors_per_node=2,
                          app_startup=0.1)

        def app(sc):
            return sc.parallelize(data, nparts).group_by_key(3).collect()

        grouped = dict((k, sorted(v)) for k, v in sc.run(app).value)
        ref: dict = {}
        for k, v in data:
            ref.setdefault(k, []).append(v)
        assert grouped == {k: sorted(v) for k, v in ref.items()}


class TestWorkloadProperties:
    @given(n=st.integers(1, 400), apq=st.integers(1, 9))
    @settings(max_examples=20, deadline=None)
    def test_every_generated_post_is_wellformed(self, n, apq):
        spec = StackExchangeSpec(n_posts=n, answers_per_question=apq)
        q = a = 0
        for i in range(n):
            pid, ptype, parent = parse_post(se_line(spec, i))
            assert pid == i
            if ptype == 1:
                q += 1
                assert parent is None
            else:
                a += 1
                assert 0 <= parent < i
        assert q == spec.n_questions()
        assert a == spec.n_answers()
