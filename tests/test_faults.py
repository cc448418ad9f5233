"""The fault-injection subsystem: plans, injector mechanics, recovery.

Three layers under test:

* :mod:`repro.faults` itself — plan validation, seeded plan derivation,
  and the injector daemon's bookkeeping;
* the per-framework recovery semantics — Spark recomputes from lineage,
  Hadoop re-executes tasks (and fails cleanly at replication=1), the HPC
  runtimes abort with a diagnostic;
* the subsystem's zero-cost guarantee — a fault-free run with
  :mod:`repro.faults` imported is bit-identical to the checked-in golden
  fingerprint (the differential test CI relies on).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import (
    ConfigurationError,
    FaultAbortError,
    SimProcessError,
    TaskFailedError,
)
from repro.faults import KINDS, FaultPlan, seeded_plans
from repro.fs.content import LineContent
from repro.mapreduce import JobConf
from repro.platform import Dataset, HDFSSpec, ScenarioSpec

GOLDEN = Path(__file__).resolve().parent.parent / "benchmarks" \
    / "golden_fingerprints.json"

CORPUS = LineContent(lambda i: f"k{i % 7} {i}", 400)


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_kinds_are_closed(self):
        assert set(KINDS) == {"node_crash", "proc_kill", "disk_stall",
                              "net_degrade"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultPlan("meteor_strike", at=1.0, target=0)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan("node_crash", at=-0.5, target=0)

    def test_duration_only_for_degradations(self):
        with pytest.raises(ConfigurationError, match="duration"):
            FaultPlan("node_crash", at=1.0, target=0, duration=2.0)
        plan = FaultPlan("disk_stall", at=1.0, target=0, duration=2.0)
        assert plan.duration == 2.0

    def test_bad_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan("disk_stall", at=1.0, target=0, factor=0.0)

    def test_seeded_plans_are_deterministic(self):
        a = seeded_plans(42, nodes=4, count=3)
        b = seeded_plans(42, nodes=4, count=3)
        assert a == b
        assert seeded_plans(43, nodes=4, count=3) != a
        for plan in a:
            assert plan.kind in ("node_crash",)
            assert 0 <= int(plan.target) < 4
            assert 1.0 <= plan.at <= 30.0


# ---------------------------------------------------------------------------
# injector mechanics
# ---------------------------------------------------------------------------


class TestInjectorMechanics:
    def test_fault_free_session_arms_nothing(self):
        session = ScenarioSpec(nodes=2, procs_per_node=2).session()
        assert session.faults is None
        assert session.cluster.failed_nodes == set()

    def test_crash_on_unused_node_is_harmless(self):
        """The injector mutates cluster truth; a framework that never
        touches the dead node (OpenMP on node 0) is unaffected."""

        def region(omp):
            omp.compute(1.0)
            return omp.thread_num

        clean = ScenarioSpec(nodes=2, procs_per_node=2).session() \
            .openmp(region, 2)
        spec = ScenarioSpec(
            nodes=2, procs_per_node=2,
            faults=(FaultPlan("node_crash", at=0.5, target=1),))
        session = spec.session()
        res = session.openmp(region, 2)
        assert res.returns == clean.returns
        assert res.elapsed == clean.elapsed  # bit-identical timing
        assert session.cluster.failed_nodes == {1}
        assert [p.kind for _t, p in session.faults.injected] == ["node_crash"]

    def test_injection_emits_trace_events(self):
        spec = ScenarioSpec(
            nodes=2, procs_per_node=2, trace=True,
            faults=(FaultPlan("node_crash", at=0.5, target=1),))
        session = spec.session()
        session.openmp(lambda omp: omp.compute(1.0), 2)
        kinds = [e.kind for e in session.trace.events]
        assert "fault.inject" in kinds
        [ev] = [e for e in session.trace.events if e.kind == "fault.inject"]
        assert ev.detail["fault"] == "node_crash"
        assert ev.detail["target"] == "1"

    def test_non_plan_rejected(self):
        with pytest.raises(ConfigurationError, match="FaultPlan"):
            ScenarioSpec(faults=("node_crash",)).session()

    def test_crash_target_out_of_range(self):
        spec = ScenarioSpec(
            nodes=2, procs_per_node=2,
            faults=(FaultPlan("node_crash", at=0.1, target=7),))
        with pytest.raises(ConfigurationError, match="node 7 out of range"):
            spec.session()

    @pytest.mark.parametrize("plan,match", [
        (FaultPlan("disk_stall", at=0.1, target=2), "out of range"),
        (FaultPlan("disk_stall", at=0.1, target="ssd0"), "must be a node id"),
        (FaultPlan("net_degrade", at=0.1, target="token-ring"),
         "unknown fabric"),
    ])
    def test_bad_targets_fail_when_the_session_is_provisioned(self, plan,
                                                              match):
        with pytest.raises(ConfigurationError, match=match):
            ScenarioSpec(nodes=2, procs_per_node=2, faults=(plan,)).session()


# ---------------------------------------------------------------------------
# HPC abort semantics
# ---------------------------------------------------------------------------


class TestHPCAbort:
    def test_mpi_job_aborts_with_diagnostic(self):
        spec = ScenarioSpec(
            nodes=2, procs_per_node=2,
            faults=(FaultPlan("node_crash", at=0.3, target=1),))

        def rank_fn(comm):
            current_compute(1.0)
            return comm.allreduce(comm.rank)

        with pytest.raises(FaultAbortError, match="MPI.*no fault tolerance"):
            spec.session().mpi(rank_fn)

    def test_shmem_job_aborts_with_diagnostic(self):
        # the job runs ~3.4 ms: the crash lands inside it
        spec = ScenarioSpec(
            nodes=2, procs_per_node=2,
            faults=(FaultPlan("node_crash", at=0.001, target=0),))

        def kernel(pe):
            import numpy as np

            sym = pe.alloc(8, dtype=np.float32)
            for _ in range(200):
                pe.local(sym)[:] = 1.0
                pe.sum_to_all(sym)
            return 0

        with pytest.raises(FaultAbortError, match="OpenSHMEM"):
            spec.session().shmem(kernel)

    def test_openmp_aborts_when_its_node_dies(self):
        spec = ScenarioSpec(
            nodes=2, procs_per_node=2,
            faults=(FaultPlan("node_crash", at=0.5, target=0),))
        with pytest.raises(FaultAbortError, match="OpenMP"):
            spec.session().openmp(lambda omp: omp.compute(2.0), 2)

    def test_proc_kill_aborts_mpi(self):
        spec = ScenarioSpec(
            nodes=2, procs_per_node=2,
            faults=(FaultPlan("proc_kill", at=0.3, target="mpi:rank0"),))
        with pytest.raises(FaultAbortError, match="mpi:rank0"):
            spec.session().mpi(lambda comm: current_compute(1.0))


def current_compute(seconds: float) -> None:
    from repro.sim import current_process

    current_process().compute(seconds)


def _mpi_job(session):
    def rank_fn(comm):
        current_compute(1.0)
        return comm.allreduce(1)

    return session.mpi(rank_fn, 4).returns


def _shmem_job(session):
    def kernel(pe):
        current_compute(1.0)
        pe.barrier_all()
        return pe.my_pe

    return session.shmem(kernel, 4).returns


def _omp_job(session):
    def region(omp):
        omp.compute(1.0)
        omp.barrier()
        return omp.thread_num

    return session.openmp(region, 2).returns


#: runtime -> (job, one of its process names, another runtime's name);
#: every job runs on nodes 0-1 of 3 (OpenMP on node 0 alone), so node 2
#: is never a job node
HPC_JOBS = {
    "MPI": (_mpi_job, "mpi:rank1", "shmem:pe1"),
    "OpenSHMEM": (_shmem_job, "shmem:pe1", "omp:t1"),
    "OpenMP": (_omp_job, "omp:t1", "mpi:rank1"),
}


class TestHPCFaultPolicy:
    """Every HPC runtime against the five fault shapes: abort on exactly
    the fatal ones, with the launcher's diagnostic byte for byte."""

    @staticmethod
    def _run(runtime, plan):
        job = HPC_JOBS[runtime][0]
        return job(ScenarioSpec(nodes=3, procs_per_node=2,
                                faults=(plan,)).session())

    @pytest.mark.parametrize("runtime", sorted(HPC_JOBS))
    def test_crash_of_a_job_node_aborts(self, runtime):
        with pytest.raises(FaultAbortError) as ei:
            self._run(runtime, FaultPlan("node_crash", at=0.5, target=0))
        assert str(ei.value) == (
            f"{runtime} job aborted at t=0.500s (virtual): node 0 crashed "
            f"under the job; {runtime} has no fault tolerance — the "
            "launcher kills every process when one dies (paper Section "
            "VI-D)")

    @pytest.mark.parametrize("runtime", sorted(HPC_JOBS))
    def test_kill_of_a_job_process_aborts(self, runtime):
        victim = HPC_JOBS[runtime][1]
        with pytest.raises(FaultAbortError) as ei:
            self._run(runtime, FaultPlan("proc_kill", at=0.5, target=victim))
        assert str(ei.value) == (
            f"{runtime} job aborted at t=0.500s (virtual): process "
            f"'{victim}' was killed; {runtime} has no fault tolerance "
            "(paper Section VI-D)")

    @pytest.mark.parametrize("runtime", sorted(HPC_JOBS))
    @pytest.mark.parametrize("kind,target", [
        ("node_crash", 2), ("disk_stall", 0), ("proc_kill", "stranger")])
    def test_harmless_faults_leave_the_job_running(self, runtime, kind,
                                                   target):
        job, _victim, stranger = HPC_JOBS[runtime]
        clean = job(ScenarioSpec(nodes=3, procs_per_node=2).session())
        target = stranger if target == "stranger" else target
        plan = FaultPlan(kind, at=0.5, target=target)
        assert self._run(runtime, plan) == clean

    @pytest.mark.parametrize("runtime", sorted(HPC_JOBS))
    @pytest.mark.parametrize("kind", ["node_crash", "proc_kill"])
    def test_a_fault_after_the_job_ended_aborts_nothing(self, runtime, kind):
        job, victim, _stranger = HPC_JOBS[runtime]
        clean = job(ScenarioSpec(nodes=3, procs_per_node=2).session())
        target = 0 if kind == "node_crash" else victim
        assert self._run(runtime, FaultPlan(kind, at=60.0,
                                            target=target)) == clean

    @pytest.mark.xfail(strict=True, reason="the injector daemon parks to "
                       "the fault's time inside the job's Engine.run, so "
                       "a late fault still extends the makespan")
    def test_a_fault_after_the_job_ended_leaves_its_elapsed(self):
        def rank_fn(comm):
            current_compute(1.0)
            return comm.allreduce(1)

        clean = ScenarioSpec(nodes=2, procs_per_node=2).session().mpi(rank_fn)
        late = ScenarioSpec(
            nodes=2, procs_per_node=2,
            faults=(FaultPlan("node_crash", at=6.0, target=1),),
        ).session().mpi(rank_fn)
        assert late.returns == clean.returns
        assert late.elapsed == clean.elapsed

    def test_bare_cluster_run_raises_the_abort_unwrapped(self):
        from repro.cluster import Cluster
        from repro.faults import FaultInjector
        from tests.conftest import TESTING_MACHINE

        cluster = Cluster(TESTING_MACHINE)
        FaultInjector(cluster, [FaultPlan("node_crash", at=0.5, target=1)])
        procs = cluster.spawn_spmd(lambda i: current_compute(1.0), [0, 1],
                                   runtime="MPI", name="mpi:rank")
        assert [p.name for p in procs] == ["mpi:rank0", "mpi:rank1"]
        with pytest.raises(FaultAbortError, match="node 1 crashed"):
            cluster.run()


# ---------------------------------------------------------------------------
# Spark: lineage recovery
# ---------------------------------------------------------------------------


def _spark_shuffle_app(sc):
    """A two-stage job (map -> shuffle -> reduce) with modelled task cost."""
    return dict(
        sc.parallelize([(i % 5, 1) for i in range(400)], 8)
        .map(lambda kv: kv, cost=2e-4)
        .reduce_by_key(lambda a, b: a + b, 4)
        .collect())


class TestSparkRecovery:
    def _run(self, faults=()):
        spec = ScenarioSpec(nodes=2, procs_per_node=2, faults=tuple(faults))
        return spec.session().spark().run(_spark_shuffle_app)

    def test_executor_kill_mid_shuffle_is_bit_identical(self):
        clean = self._run()
        at = 4.0 + 0.5 * clean.app_elapsed  # mid-job, past app startup
        faulted = self._run([FaultPlan("proc_kill", at=at,
                                       target="spark:executor1")])
        assert faulted.value == clean.value
        assert faulted.app_elapsed > clean.app_elapsed

    def test_node_crash_recovers_via_lineage(self):
        clean = self._run()
        at = 4.0 + 0.3 * clean.app_elapsed
        faulted = self._run([FaultPlan("node_crash", at=at, target=1)])
        assert faulted.value == clean.value
        assert faulted.app_elapsed > clean.app_elapsed

    def test_recovery_is_traced(self):
        clean = self._run()
        at = 4.0 + 0.3 * clean.app_elapsed
        spec = ScenarioSpec(
            nodes=2, procs_per_node=2, trace=True,
            faults=(FaultPlan("node_crash", at=at, target=1),))
        session = spec.session()
        res = session.spark().run(_spark_shuffle_app)
        assert res.value == clean.value
        recoveries = [e for e in session.trace.events
                      if e.kind == "fault.recover"]
        assert any(e.detail.get("framework") == "spark" for e in recoveries)


def _one_task_app(sc):
    return sc.parallelize(range(100), 1).map(lambda x: 2 * x,
                                             cost=1e-2).collect()


class TestSparkCrashOfTheTaskNode:
    """Two known Spark fault-path bugs (one task, 2 nodes x 8 executors,
    node 0 crashes).  They stay expected failures until the fixes land
    with the re-captured goldens (fig8 moves)."""

    @staticmethod
    def _run(at=None):
        faults = () if at is None else (
            FaultPlan("node_crash", at=at, target=0),)
        spec = ScenarioSpec(nodes=2, procs_per_node=8, faults=faults)
        return spec.session().spark().run(_one_task_app)

    @pytest.mark.xfail(strict=True, raises=SimProcessError, reason=(
        "_run_stage's free deque keeps handing out dead executors, so the "
        "job dies of JobAbortedError although node 1 is alive"))
    def test_crash_before_the_task_runs_recovers(self):
        assert self._run(3.0).value == self._run().value

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the task never yields between dispatch and executor_main's "
        "ex.dead check, so it completes on a dead executor"))
    @pytest.mark.parametrize("at", [4.2, 4.6, 5.0])
    def test_crash_under_the_running_task_costs_time(self, at):
        clean = self._run()
        faulted = self._run(at)
        assert faulted.value == clean.value
        assert faulted.app_elapsed > clean.app_elapsed


# ---------------------------------------------------------------------------
# Hadoop: task re-execution and HDFS replica reads
# ---------------------------------------------------------------------------


def _wordcount_conf():
    return JobConf(
        name="wc", input_url="hdfs://in.txt",
        mapper=lambda line: [(line.split()[0], 1)],
        reducer=lambda k, vs: [(k, sum(vs))],
        num_reduces=2, map_cost_per_record=1e-5)


def _hadoop_spec(nodes: int, replication: int | None, faults=()):
    # scale=8 gives ~6 HDFS blocks at block_size=4096, so block replicas
    # (and map tasks) actually land on more than one node
    return ScenarioSpec(
        nodes=nodes, procs_per_node=2,
        hdfs=HDFSSpec(replication=replication, block_size=4096),
        datasets=(Dataset("in.txt", CORPUS, scale=8, on=("hdfs",)),),
        faults=tuple(faults))


class TestHadoopRecovery:
    def test_node_crash_reexecutes_and_matches_clean_output(self):
        clean = _hadoop_spec(2, None).session().mapreduce(_wordcount_conf())
        at = 0.5 * clean.elapsed  # mid map wave (the job has ~2 s of setup)
        faulted = _hadoop_spec(
            2, None, [FaultPlan("node_crash", at=at, target=1)]
        ).session().mapreduce(_wordcount_conf())
        assert sorted(faulted.output) == sorted(clean.output)
        assert faulted.elapsed > clean.elapsed
        assert faulted.counters.task_retries > 0

    def test_replication_1_fails_cleanly(self):
        """With one replica per block, losing a datanode makes the input
        unreadable — the job burns its retry budget and fails."""
        clean = _hadoop_spec(2, 1).session().mapreduce(_wordcount_conf())
        at = 0.3 * clean.elapsed
        spec = _hadoop_spec(2, 1, [FaultPlan("node_crash", at=at, target=1)])
        with pytest.raises(SimProcessError) as exc_info:
            spec.session().mapreduce(_wordcount_conf())
        cause = exc_info.value.__cause__
        assert isinstance(cause, TaskFailedError)
        assert "no live replica" in str(cause)

    def test_full_replication_survives_crash(self):
        """With a replica on every node the same crash only costs time."""
        clean = _hadoop_spec(3, 3).session().mapreduce(_wordcount_conf())
        at = 0.5 * clean.elapsed
        faulted = _hadoop_spec(
            3, 3, [FaultPlan("node_crash", at=at, target=1)]
        ).session().mapreduce(_wordcount_conf())
        assert sorted(faulted.output) == sorted(clean.output)


# ---------------------------------------------------------------------------
# degradations: disk stalls and fabric slowdowns
# ---------------------------------------------------------------------------


class TestDegradations:
    def _read(self, faults=()):
        from repro.apps import mpi_parallel_read

        spec = ScenarioSpec(
            nodes=2, procs_per_node=2,
            datasets=(Dataset("input.dat", CORPUS, scale=64,
                              on=("local",)),),
            faults=tuple(faults))
        session = spec.session()
        return mpi_parallel_read.run_in(session, session.local, "input.dat",
                                        4, 2)

    def test_disk_stall_slows_reads(self):
        t_clean, n_clean = self._read()
        t_stall, n_stall = self._read(
            [FaultPlan("disk_stall", at=0.0, target=0, factor=8.0)])
        assert n_stall == n_clean
        assert t_stall > t_clean

    def test_disk_stall_window_restores(self):
        """A stall that ends before any I/O starts must change nothing —
        the restore path really does undo the injection."""
        t_clean, _ = self._read()
        t_windowed, _ = self._read(
            [FaultPlan("disk_stall", at=0.0, target=0, factor=8.0,
                       duration=1e-9)])
        assert t_windowed == t_clean  # bit-identical

    def test_net_degrade_slows_reduce(self):
        from repro.apps import mpi_reduce_latency

        def latency(faults=()):
            spec = ScenarioSpec(nodes=2, procs_per_node=2,
                                faults=tuple(faults))
            return mpi_reduce_latency.run_in(
                spec.session(), [64 * 1024], 4, 2, iterations=3)[64 * 1024]

        assert latency([FaultPlan("net_degrade", at=0.0,
                                  target="ib-fdr-rdma", factor=8.0)]) \
            > latency()


# ---------------------------------------------------------------------------
# the differential guarantee
# ---------------------------------------------------------------------------


class TestFaultFreeDifferential:
    def test_fig3_fingerprint_matches_golden_with_faults_imported(self):
        """Importing (and linking in) repro.faults must not move a single
        bit of a fault-free run: the quick fig3 fingerprint still equals
        the checked-in golden."""
        import repro.faults  # noqa: F401  (the point of the test)
        from repro.core.experiment import run_experiment
        from repro.platform import fingerprint_result

        golden = json.loads(GOLDEN.read_text())["fingerprints"]
        result = run_experiment("fig3", quick=True)
        assert fingerprint_result(result) == golden["fig3"]
