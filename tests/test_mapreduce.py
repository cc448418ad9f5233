"""MapReduce engines: Hadoop's correctness, combiner, locality, retries and
costs, and MapReduce over MPI."""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import COMET_MACHINE, Cluster
from repro.errors import SimProcessError, SparkError, TaskFailedError
from repro.fs import HDFS, LineContent, LocalFS, NFSFileSystem
from repro.mapreduce import JobConf, run_job
from repro.mpi import mpi_run
from repro.mpi.mapreduce import mapreduce, run_mpi_mapreduce
from repro.spark import SparkContext
from tests.conftest import TESTING_MACHINE, forced_trace


def wordcount_conf(**kw):
    kw.setdefault("name", "wordcount")
    kw.setdefault("input_url", "hdfs://corpus.txt")
    kw.setdefault("mapper", lambda line: [(w, 1) for w in line.split()])
    kw.setdefault("reducer", lambda k, vs: [(k, sum(vs))])
    kw.setdefault("num_reduces", 3)
    return JobConf(**kw)


def make_cluster(lines=300, block_size=2000, nodes=2, line_fn=None):
    cl = Cluster(TESTING_MACHINE.with_nodes(nodes))
    h = HDFS(cl, block_size=block_size, replication=2)
    line_fn = line_fn or (lambda i: f"alpha beta gamma{i % 4}")
    h.create("corpus.txt", LineContent(line_fn, lines))
    return cl, h


def test_task_attempts_run_without_threads(thread_starts):
    cl = Cluster(TESTING_MACHINE.with_nodes(2))
    h = HDFS(cl, block_size=125, replication=2)
    h.create("corpus.txt", LineContent(lambda i: f"w{i % 7:03d}", 200))
    assert len(h.blocks("corpus.txt")) == 8
    res = run_job(cl, wordcount_conf())
    assert res.counters.map_tasks == 8
    assert sum(v for _k, v in res.output) == 200
    assert thread_starts == ["sim:mr:driver"]
    attempts = [p for p in cl.engine.processes if p.name != "mr:driver"]
    assert len(attempts) == 8 + 3
    assert all(p._thread is None for p in attempts)


def _sum(k, vs):
    return [(k, sum(vs))]


#: engine -> how it runs a word count of ``hdfs://corpus.txt`` with ``mapper``
KEYED_ENGINES = {
    "hadoop": lambda cl, mapper: run_job(cl, wordcount_conf(mapper=mapper)),
    "hadoop with a combiner": lambda cl, mapper: run_job(
        cl, wordcount_conf(mapper=mapper, combiner=_sum)),
    "mpi": lambda cl, mapper: run_mpi_mapreduce(
        cl, cl.filesystems["hdfs"], "corpus.txt", mapper, _sum,
        nprocs=4, procs_per_node=2),
    "spark": lambda cl, mapper: SparkContext(
        cl, executors_per_node=2, app_startup=0.1).run(
        lambda sc: sc.text_file("hdfs://corpus.txt", 2).flat_map(mapper)
        .reduce_by_key(operator.add).collect()),
}

#: every line of the corpus, so every record a mapper emits is the same
LINE = "alpha beta gamma"

#: mapper shape -> (the mapper, the one record it emits per line)
NON_PAIR_MAPPERS = {
    "the line": (lambda line: [line], LINE),
    "an int": (lambda line: [1], 1),
}


@pytest.mark.parametrize("shape", sorted(NON_PAIR_MAPPERS))
@pytest.mark.parametrize("engine", sorted(KEYED_ENGINES))
def test_a_non_pair_record_raises_one_spark_error(engine, shape):
    """Every MapReduce engine cuts and groups keys with the Spark
    shuffle's kernels, so a mapper's non-pair ends in its one error."""
    mapper, bad = NON_PAIR_MAPPERS[shape]
    cl = Cluster(TESTING_MACHINE.with_nodes(2), trace=forced_trace())
    HDFS(cl, block_size=200, replication=2).create(
        "corpus.txt", LineContent(lambda i: LINE, 40))
    with pytest.raises(SimProcessError) as ei:
        KEYED_ENGINES[engine](cl, mapper)
    cause = ei.value.__cause__
    assert type(cause) is SparkError
    assert str(cause) == (
        f"keyed shuffle record is not a (key, value) pair: {bad!r}")


class TestCorrectness:
    def test_wordcount_matches_reference(self):
        cl, _ = make_cluster()
        res = run_job(cl, wordcount_conf())
        counts = dict(res.output)
        assert counts["alpha"] == 300
        assert counts["beta"] == 300
        assert counts["gamma0"] == 75

    def test_single_reduce(self):
        cl, _ = make_cluster(lines=50)
        res = run_job(cl, wordcount_conf(num_reduces=1))
        assert dict(res.output)["alpha"] == 50

    def test_many_reduces_partition_all_keys(self):
        cl, _ = make_cluster()
        res = run_job(cl, wordcount_conf(num_reduces=7))
        assert sum(v for k, v in res.output) == 300 * 3

    @given(nlines=st.integers(1, 120), nred=st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_identity_job_preserves_records(self, nlines, nred):
        cl = Cluster(TESTING_MACHINE)
        h = HDFS(cl, block_size=500, replication=2)
        h.create("in.txt", LineContent(lambda i: f"k{i} v{i}", nlines))
        conf = JobConf(
            name="identity",
            input_url="hdfs://in.txt",
            mapper=lambda line: [tuple(line.split())],
            reducer=lambda k, vs: [(k, v) for v in vs],
            num_reduces=nred,
        )
        res = run_job(cl, conf)
        assert sorted(res.output) == sorted((f"k{i}", f"v{i}")
                                            for i in range(nlines))

    def test_combiner_shrinks_shuffle(self):
        cl1, _ = make_cluster()
        plain = run_job(cl1, wordcount_conf())
        cl2, _ = make_cluster()
        combined = run_job(cl2, wordcount_conf(
            combiner=lambda k, vs: [(k, sum(vs))]))
        assert dict(plain.output) == dict(combined.output)
        shuffled = lambda r: (r.counters.shuffled_bytes_remote  # noqa: E731
                              + r.counters.shuffled_bytes_local)
        assert shuffled(combined) < shuffled(plain) / 3
        assert combined.elapsed < plain.elapsed

    def test_output_written_to_hdfs(self):
        cl, h = make_cluster()
        res = run_job(cl, wordcount_conf(output_url="hdfs://out",
                                         num_reduces=2))
        assert h.exists("out/part-r-00000")
        assert h.exists("out/part-r-00001")
        assert len(res.output) > 0

    def test_works_on_nfs_input(self):
        cl = Cluster(TESTING_MACHINE)
        nfs = NFSFileSystem(cl)
        nfs.create("data.txt", LineContent(lambda i: "x y", 40))
        conf = wordcount_conf(input_url="nfs://data.txt", split_size=200)
        res = run_job(cl, conf)
        assert dict(res.output) == {"x": 40, "y": 40}


class TestScheduling:
    def test_map_tasks_follow_block_locality(self):
        cl, h = make_cluster(lines=2000, block_size=2000, nodes=2)
        moved = {"n": 0}
        orig = cl.network.transmit

        def spy(proc, fabric, src, dst, nbytes, **kw):
            if kw.get("label", "").startswith("hdfs:"):
                moved["n"] += nbytes
            return orig(proc, fabric, src, dst, nbytes, **kw)

        cl.network.transmit = spy
        run_job(cl, wordcount_conf())
        assert moved["n"] == 0  # every split read from a local replica

    def test_task_count_matches_blocks(self):
        cl, h = make_cluster(lines=1000, block_size=3000)
        res = run_job(cl, wordcount_conf())
        assert res.counters.map_tasks == len(h.blocks("corpus.txt"))

    def test_slots_bound_parallelism(self):
        """1 map slot per node serialises the map wave."""
        cl1, _ = make_cluster(lines=2000, block_size=2000)
        wide = run_job(cl1, wordcount_conf(), map_slots_per_node=8)
        cl2, _ = make_cluster(lines=2000, block_size=2000)
        narrow = run_job(cl2, wordcount_conf(), map_slots_per_node=1)
        assert narrow.elapsed > wide.elapsed


class TestFaultTolerance:
    def test_failed_map_retried_and_job_succeeds(self):
        cl, _ = make_cluster()
        failures = {"injected": 0}

        def injector(kind, tid, attempt):
            if kind == "map" and tid == 0 and attempt == 1:
                failures["injected"] += 1
                return True
            return False

        res = run_job(cl, wordcount_conf(), fault_injector=injector)
        assert failures["injected"] == 1
        assert res.counters.task_retries == 1
        assert dict(res.output)["alpha"] == 300

    def test_failed_reduce_retried(self):
        cl, _ = make_cluster()

        def injector(kind, tid, attempt):
            return kind == "reduce" and attempt < 3

        res = run_job(cl, wordcount_conf(num_reduces=2),
                      fault_injector=injector)
        assert res.counters.task_retries == 4  # 2 reduces x 2 failures
        assert dict(res.output)["alpha"] == 300

    def test_exhausted_attempts_abort_job(self):
        cl, _ = make_cluster()

        def injector(kind, tid, attempt):
            return kind == "map" and tid == 0  # always fails

        with pytest.raises(SimProcessError) as ei:
            run_job(cl, wordcount_conf(max_attempts=2),
                    fault_injector=injector)
        assert isinstance(ei.value.__cause__, TaskFailedError)

    def test_retry_costs_time(self):
        cl1, _ = make_cluster()
        clean = run_job(cl1, wordcount_conf())
        cl2, _ = make_cluster()
        flaky = run_job(cl2, wordcount_conf(),
                        fault_injector=lambda k, t, a: k == "map" and a == 1)
        assert flaky.elapsed > clean.elapsed


class TestCostShape:
    def test_job_submission_dominates_small_jobs(self):
        """Even a trivial job pays ~10s of framework overhead — why Hadoop
        is never competitive on small inputs."""
        cl = Cluster(TESTING_MACHINE)
        h = HDFS(cl)
        h.create("tiny.txt", LineContent(lambda i: "a", 5))
        res = run_job(cl, wordcount_conf(input_url="hdfs://tiny.txt",
                                         num_reduces=1))
        assert res.elapsed > 8.0

    def test_intermediate_data_hits_disk(self):
        cl, _ = make_cluster()
        res = run_job(cl, wordcount_conf())
        assert res.counters.spilled_bytes > 0


def _words(line):
    return [(w, 1) for w in line.split()]


def comet_cluster():
    return Cluster(COMET_MACHINE.with_nodes(2), trace=forced_trace())


class TestMPIMapReduce:
    def test_collective_mapreduce_wordcount(self):
        lines = [f"a b c{i % 3}" for i in range(60)]

        def job(comm):
            chunk = -(-len(lines) // comm.size)
            mine = lines[comm.rank * chunk:(comm.rank + 1) * chunk]
            local = mapreduce(comm, mine, _words, _sum)
            gathered = comm.gather(local, root=0)
            if comm.rank == 0:
                return dict(kv for part in gathered for kv in part)
            return None

        res = mpi_run(comet_cluster(), job, 4, procs_per_node=2, charge_launch=False)
        assert res.returns[0]["a"] == 60
        assert res.returns[0]["c0"] == 20

    def test_keys_partitioned_across_ranks(self):
        """Each key is reduced on exactly one rank (hash partitioning)."""
        lines = [f"k{i % 10} x" for i in range(100)]

        def job(comm):
            chunk = -(-len(lines) // comm.size)
            mine = lines[comm.rank * chunk:(comm.rank + 1) * chunk]
            local = mapreduce(comm, mine, _words, _sum)
            return sorted(k for k, _ in local)

        res = mpi_run(comet_cluster(), job, 4, procs_per_node=2, charge_launch=False)
        all_keys = [k for part in res.returns for k in part]
        assert len(all_keys) == len(set(all_keys))  # no key on two ranks
        assert sorted(set(all_keys)) == sorted(
            {f"k{i}" for i in range(10)} | {"x"})

    def test_combiner_reduces_exchange(self):
        lines = ["w w w w"] * 50

        def job(use_combiner):
            def body(comm):
                chunk = -(-len(lines) // comm.size)
                mine = lines[comm.rank * chunk:(comm.rank + 1) * chunk]
                return mapreduce(
                    comm, mine, _words, _sum,
                    combiner=_sum if use_combiner else None)

            res = mpi_run(comet_cluster(), body, 4, procs_per_node=2,
                          charge_launch=False)
            out = dict(kv for part in res.returns for kv in part)
            return out, res.elapsed

        with_c, t_c = job(True)
        without, t_n = job(False)
        assert with_c == without == {"w": 200}
        assert t_c <= t_n  # fewer exchanged records

    def test_driver_matches_hadoop_output(self):
        """The head-to-head the related work lacked: same input, same
        answer, MPI engine far faster (no JVM/job overheads)."""
        content = LineContent(lambda i: f"alpha beta g{i % 5}", 400)

        cl = comet_cluster()
        LocalFS(cl).create_replicated("in.txt", content)
        mpi_out, mpi_t = run_mpi_mapreduce(
            cl, cl.filesystems["local"], "in.txt",
            _words, _sum, nprocs=4, procs_per_node=2,
            combiner=_sum)

        cl = comet_cluster()
        HDFS(cl, replication=2, block_size=4096).create("in.txt", content)
        hadoop = run_job(cl, JobConf(
            name="wc", input_url="hdfs://in.txt",
            mapper=_words, reducer=_sum,
            combiner=_sum, num_reduces=4))

        assert dict(mpi_out) == dict(hadoop.output)
        assert hadoop.elapsed > 20 * mpi_t  # Plimpton et al.: "more than 100x"
