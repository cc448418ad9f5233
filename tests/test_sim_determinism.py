"""Determinism and causality properties of the virtual-time engine.

The engine's core guarantee: a simulation is a pure function of its inputs
— re-running any program yields bit-identical virtual timings, regardless
of host scheduling, and per-process clocks never run backwards.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import COMET_MACHINE, Cluster
from repro.fs import HDFS, LineContent
from repro.mapreduce import JobConf, run_job
from repro.mpi import mpi_run
from repro.sim import Engine, Mailbox, SimBarrier, current_process
from repro.sim.resources import FlowSystem, FluidResource
from repro.sim.trace import Trace
from repro.spark import SparkContext
from tests.conftest import TESTING_MACHINE
from tests.sim_oracle import ReferenceEngine


def random_program(engine, fs, resources, boxes, actions):
    """Build a set of processes from a hypothesis-generated action script."""
    def proc_body(script):
        p = current_process()
        clocks = [p.clock]
        for kind, a, b in script:
            if kind == 0:
                p.compute(a / 1000)
            elif kind == 1:
                fs.transfer(p, (resources[a % len(resources)],),
                            float(b + 1) * 100)
            elif kind == 2:
                boxes[a % len(boxes)].post(p, b)
            else:
                msg = boxes[a % len(boxes)].try_recv(p)
                if msg is not None:
                    p.compute(0.001)
            assert p.clock >= clocks[-1], "clock ran backwards"
            clocks.append(p.clock)
        return p.clock

    return proc_body


@given(
    scripts=st.lists(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5),
                           st.integers(0, 50)), max_size=8),
        min_size=1, max_size=5),
)
@settings(max_examples=25, deadline=None)
def test_arbitrary_programs_are_deterministic_and_monotone(scripts):
    def run_once():
        engine = Engine()
        fs = FlowSystem()
        resources = [FluidResource(f"r{i}", 1000.0) for i in range(3)]
        boxes = [Mailbox(f"b{i}") for i in range(2)]
        body = random_program(engine, fs, resources, boxes, scripts)
        procs = [engine.spawn(body, s, name=f"p{i}")
                 for i, s in enumerate(scripts)]
        engine.run()
        return [p.clock for p in procs]

    assert run_once() == run_once()


class TestEndToEndDeterminism:
    def test_mpi_job_bit_identical(self):
        def job(comm):
            import numpy as np

            data = np.full(4096, float(comm.rank))
            total = comm.allreduce(data)
            comm.barrier()
            return (float(total[0]), comm.wtime())

        r1 = mpi_run(Cluster(COMET_MACHINE.with_nodes(2)), job, 8, procs_per_node=4)
        r2 = mpi_run(Cluster(COMET_MACHINE.with_nodes(2)), job, 8, procs_per_node=4)
        assert r1.returns == r2.returns
        assert r1.elapsed == r2.elapsed

    def test_spark_job_bit_identical(self):
        def run_once():
            sc = SparkContext(Cluster(TESTING_MACHINE), executors_per_node=2,
                              app_startup=0.1)

            def app(sc):
                pairs = sc.parallelize([(i % 7, i) for i in range(500)], 6)
                return dict(pairs.reduce_by_key(lambda a, b: a + b, 3)
                            .collect())

            res = sc.run(app)
            return res.value, res.elapsed

        v1, t1 = run_once()
        v2, t2 = run_once()
        assert v1 == v2
        assert t1 == t2

    def test_engine_now_is_monotone(self):
        engine = Engine()
        observations = []

        def body(delay):
            p = current_process()
            for _ in range(5):
                p.sleep(delay)
                observations.append(engine.now)

        engine.spawn(body, 0.3, name="a")
        engine.spawn(body, 0.7, name="b")
        engine.run()
        assert observations == sorted(observations)

    def test_hash_randomization_does_not_leak(self):
        """Keys go through stable_hash, so partitioning is reproducible
        even though PYTHONHASHSEED varies between interpreter runs."""
        from repro.spark.partitioner import HashPartitioner, stable_hash

        part = HashPartitioner(7)
        assert [part.partition(k) for k in ("alpha", "beta", 42, b"x")] == [
            stable_hash("alpha") % 7, stable_hash("beta") % 7, 0,
            stable_hash(b"x") % 7]
        # regression pin: crc32-based values are stable across platforms
        assert stable_hash("alpha") == 4228598614
        assert stable_hash(42) == 42


def _trace_digest(trace: Trace) -> str:
    """Order-sensitive digest over every event field (byte-identity check)."""
    h = hashlib.sha256()
    for ev in trace:
        h.update(
            f"{ev.time.hex()}|{ev.proc}|{ev.kind}|"
            f"{sorted(ev.detail.items())!r}\n".encode()
        )
    return h.hexdigest()


def _run_program(engine_cls, n_procs, steps):
    """Run a generated program; ``(trace digest, final clocks, makespan)``.

    ``steps`` is one global script of ``(kind, a, b, amount)``.  A
    compute / checkpoint / sleep step belongs to process ``a``; a ``msg``
    step makes ``a`` post and ``b`` ``recv``; a ``barrier`` step is
    entered by everybody.  Each process
    executes its own steps in script order, so the earliest unfinished
    step can always complete and no generated program deadlocks.  Every
    process logs an event after each of its steps: the order of events in
    the shared trace *is* the interleaving the scheduler chose.
    """
    tr = Trace(enabled=True)
    eng = engine_cls(trace=tr)
    boxes = [Mailbox(f"b{i}") for i in range(n_procs)]
    barrier = SimBarrier(n_procs)

    def body(me):
        p = current_process()
        for i, (kind, a, b, amount) in enumerate(steps):
            a, b = a % n_procs, b % n_procs
            if kind == "barrier":
                barrier.wait(p)
            elif kind == "msg":
                if me == a:
                    boxes[b].post(p, i, arrival=p.clock + amount / 1000)
                if me == b:
                    # later steps' messages may already be queued
                    boxes[b].recv(p, lambda m, i=i: m.payload == i)
                if me not in (a, b):
                    continue
            elif me != a:
                continue
            elif kind == "compute":
                p.compute(amount / 1000)
            elif kind == "checkpoint":
                p.checkpoint()
            else:
                p.sleep(amount / 1000)
            tr.record(p.clock, p.name, f"step.{kind}", step=i, now=eng.now)

    procs = [eng.spawn(body, i, name=f"p{i}") for i in range(n_procs)]
    makespan = eng.run()
    return _trace_digest(tr), [p.clock for p in procs], makespan


@given(
    n_procs=st.integers(2, 6),
    steps=st.lists(
        st.tuples(
            st.sampled_from(
                ["compute", "checkpoint", "sleep", "msg", "barrier"]),
            st.integers(0, 5), st.integers(0, 5), st.integers(0, 20)),
        max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference_scheduler_on_generated_programs(
        n_procs, steps):
    assert (_run_program(Engine, n_procs, steps)
            == _run_program(ReferenceEngine, n_procs, steps))


@pytest.fixture(params=["fast", "reference"])
def scheduler(request, monkeypatch):
    """Run the test on the production engine (heap, token retention,
    direct handoff) and on the reference scheduler of
    ``tests/sim_oracle.py``, swapped in where a cluster builds its
    engine."""
    if request.param == "reference":
        monkeypatch.setattr("repro.cluster.cluster.Engine", ReferenceEngine)
    return request.param


class TestGoldenCrossPath:
    """Golden workloads pinned to exact virtual-time outputs.

    The hex-float makespans and trace digests below were captured from the
    reference scheduler *before* the production engine's switch-free
    paths existed.  Each workload must reproduce them byte-for-byte on
    both — any scheduling-order divergence (a wrong heap pop, an unsafe
    token retention) changes the digest.  (The Spark and MapReduce digests,
    here and in ``TestFusionDifferential``, were re-captured once since,
    when ``net.transmit`` events gained their ``label`` field; with that
    field dropped they equal the originals.)
    """

    def _run_mpi(self):
        tr = Trace(enabled=True)
        cl = Cluster(COMET_MACHINE.with_nodes(2), trace=tr)

        def job(comm):
            import numpy as np

            data = np.full(1024, float(comm.rank + 1))
            total = comm.allreduce(data)
            comm.barrier()
            return float(total[0])

        res = mpi_run(cl, job, 8, procs_per_node=4)
        return (cl.engine.makespan().hex(), res.returns, len(tr.events),
                _trace_digest(tr))

    def test_mpi_collective_golden(self, scheduler):
        got = self._run_mpi()
        assert got == self._run_mpi()  # run-to-run identical
        makespan, returns, n_events, digest = got
        assert makespan == "0x1.0c518ef7eed3cp-2"
        assert returns == [36.0] * 8
        assert n_events == 36
        assert digest == ("68a67d5cc5d9c7797c79810bfcd8a243"
                          "0f7e1531eb918a35999975ff3989e519")

    def _run_spark(self):
        tr = Trace(enabled=True)
        cl = Cluster(TESTING_MACHINE, trace=tr)
        sc = SparkContext(cl, executors_per_node=2, app_startup=0.1)

        def app(sc):
            pairs = sc.parallelize([(i % 7, i) for i in range(300)], 6)
            return sorted(pairs.reduce_by_key(lambda a, b: a + b, 3).collect())

        res = sc.run(app)
        return (cl.engine.makespan().hex(), res.value, len(tr.events),
                _trace_digest(tr))

    def test_spark_shuffle_golden(self, scheduler):
        got = self._run_spark()
        assert got == self._run_spark()
        makespan, value, n_events, digest = got
        assert makespan == "0x1.f287c9b442498p-3"
        assert value == [(0, 6321), (1, 6364), (2, 6407), (3, 6450),
                         (4, 6493), (5, 6536), (6, 6279)]
        assert n_events == 9
        assert digest == ("3896537bbef8642d18810192893751f9"
                          "51833098c985030b767ab5ad2df447f9")

    def _run_mapreduce(self):
        tr = Trace(enabled=True)
        cl = Cluster(TESTING_MACHINE.with_nodes(2), trace=tr)
        h = HDFS(cl, block_size=2000, replication=2)
        h.create("corpus.txt",
                 LineContent(lambda i: f"alpha beta gamma{i % 4}", 200))
        conf = JobConf(
            name="wc",
            input_url="hdfs://corpus.txt",
            mapper=lambda line: [(w, 1) for w in line.split()],
            reducer=lambda k, vs: [(k, sum(vs))],
            num_reduces=3,
        )
        res = run_job(cl, conf)
        return (cl.engine.makespan().hex(), sorted(res.output),
                len(tr.events), _trace_digest(tr))

    def test_mapreduce_dynamic_spawn_golden(self, scheduler):
        # run_job spawns task attempts dynamically, exercising _push on a
        # process created while the engine is already running
        got = self._run_mapreduce()
        assert got == self._run_mapreduce()
        makespan, output, n_events, digest = got
        assert makespan == "0x1.8038801058ddcp+3"
        assert output == [("alpha", 200), ("beta", 200), ("gamma0", 50),
                          ("gamma1", 50), ("gamma2", 50), ("gamma3", 50)]
        assert n_events == 16
        assert digest == ("7a98448c44a676cda2c490f227c6e56f"
                          "d4d15dd0bed4376ddf62c206567462ea")


class TestFusionDifferential:
    """Spark app workloads pinned to the op-by-op data plane's outputs.

    The values below were captured from the evaluation that ran one
    ``compute`` call per narrow level and a separate map-side combine
    pass before the shuffle write, while the repo also carried a fused
    pipeline and a combining writer to compare against it.  Results,
    hex-float makespans and trace digests must stay byte-identical —
    how a stage is evaluated on the host is never a simulation change.
    """

    def _run(self, build):
        tr = Trace(enabled=True)
        cl = Cluster(COMET_MACHINE.with_nodes(2), trace=tr)
        t, value = build(cl)
        return (cl.engine.makespan().hex(), t.hex(), value,
                len(tr.events), _trace_digest(tr))

    @staticmethod
    def _answers_count(cl):
        from repro.apps.answerscount import spark_answers_count
        from repro.units import KiB
        from repro.workloads.stackexchange import (
            StackExchangeSpec, stackexchange_content)

        content = stackexchange_content(StackExchangeSpec(n_posts=2000))
        HDFS(cl, replication=2, block_size=128 * KiB).create(
            "posts.txt", content)
        return spark_answers_count(cl, "hdfs://posts.txt", 4)

    @staticmethod
    def _pagerank_edges(cl):
        from repro.workloads.graphs import (
            edge_list_content, uniform_digraph, with_ring)

        edges = with_ring(uniform_digraph(200, 3, seed=5), 200)
        HDFS(cl, replication=2).create("edges.txt", edge_list_content(edges))

    @staticmethod
    def _pagerank_bigdatabench(cl):
        from repro.apps.pagerank import spark_pagerank_bigdatabench

        TestFusionDifferential._pagerank_edges(cl)
        return spark_pagerank_bigdatabench(
            cl, "hdfs://edges.txt", 200, 4, iterations=3, collect_ranks=True)

    @staticmethod
    def _pagerank_hibench(cl):
        from repro.apps.pagerank import spark_pagerank_hibench

        TestFusionDifferential._pagerank_edges(cl)
        return spark_pagerank_hibench(
            cl, "hdfs://edges.txt", 200, 4, iterations=3, collect_ranks=True)

    FROZEN = {
        "answers_count": (
            "0x1.06d50ae2504e8p+2", "0x1.b542b89413a00p-4", 7,
            "6ca1db4cad637bbc5cd0fb99f3f0ad8db88631efe75e078db71ff5e39780bf14",
            "fbd04e1aae9ce0b11a8946e2c9ac2619f7428a64d32d01eff61d809dcb70ee8e"),
        "pagerank_bigdatabench": (
            "0x1.11c8c2ff5f61fp+2", "0x1.1c8c2ff5f61f0p-2", 86,
            "e50b4d76d9ae8bdae4f05e1296fe38652980217217a68ba038f44ef48adac3e7",
            "ac440e03ae3918bc9e0a31a3fd8edffecd84dff47b57ac7962e69c0cb649e2f5"),
        "pagerank_hibench": (
            "0x1.232f1d367f1e0p+2", "0x1.1978e9b3f8f00p-1", 159,
            "084123ad26e6f04b65af25a950b597b5f6ca7a997e4a32a09fd6481edd315f9c",
            "ac440e03ae3918bc9e0a31a3fd8edffecd84dff47b57ac7962e69c0cb649e2f5"),
    }

    @pytest.mark.parametrize("workload", sorted(FROZEN))
    def test_fused_matches_nofuse(self, workload):
        makespan, app_time, value, n_events, digest = self._run(
            getattr(self, f"_{workload}"))
        # repr round-trips floats exactly, so this pins the value's bits
        # (and a dict's insertion order)
        value_digest = hashlib.sha256(repr(value).encode()).hexdigest()
        assert (makespan, app_time, n_events, digest,
                value_digest) == self.FROZEN[workload]
