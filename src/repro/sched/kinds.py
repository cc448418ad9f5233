"""Job kinds: mapping trace jobs onto the repository's app adapters.

Every job in a synthetic trace names a *kind* — the application it runs.
A kind measures a job's runtime the honest way: it provisions a fresh
:class:`~repro.platform.Session` sized to the job (``nodes_used`` nodes
of the target machine at the job's process density), runs the real
framework application through its ``run_in(session)`` adapter, and reads
the session engine's final virtual time.  Runtimes therefore inherit the
full cost model — framework overheads, fabric routing, storage — so the
same trace replayed on ``comet`` vs ``commodity-eth`` changes not just
per-job runtimes but the queueing behaviour built on top of them.

Kinds shipped:

``mpi-reduce``
    OSU-style MPI allreduce rounds over the machine's HPC fabric — the
    short, latency-bound HPC job.  ``scale`` multiplies the message size.
``spark-reduce``
    The same reduce pattern through Spark's socket shuffle — the JVM
    overhead column of Fig 3 as a batch job.
``spark-answers``
    Spark AnswersCount over a staged StackExchange posts file on HDFS
    (Fig 4's workload).  ``scale`` multiplies the logical dataset size.
``hadoop-answers``
    Hadoop MapReduce AnswersCount over the same input — per-task
    overheads and disk-persisted intermediates included.

Measurement is memoized per distinct ``(machine, kind, nodes_used,
procs_per_node, scale)`` configuration: a 1,000-job trace typically
holds a few dozen distinct configurations, so the simulated cluster runs
each application once per configuration, not once per job.  Memoization
is invisible in the results — a measured runtime is a deterministic
function of its configuration, so replaying a memo entry and re-running
the session produce the identical float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.cluster import MachineSpec, resolve_machine
from repro.errors import ConfigurationError
from repro.sched.jobs import Job
from repro.units import KiB

__all__ = ["JobKind", "JOB_KINDS", "measure_runtimes"]


@dataclass(frozen=True)
class JobKind:
    """One registered application kind.

    ``scenario`` builds the job's :class:`~repro.platform.ScenarioSpec`
    (datasets included); ``run`` executes the application inside the
    provisioned session.  The measured runtime is the session engine's
    final virtual time, which includes dataset stage-in — the allocation
    holds the nodes for its whole lifetime, exactly like a real batch
    job.
    """

    name: str
    framework: str
    description: str
    scenario: Callable[[Job, str | MachineSpec], "object"]
    run: Callable[["object", Job], None]


def _bare_scenario(job: Job, machine: str | MachineSpec):
    from repro.platform import ScenarioSpec

    return ScenarioSpec(nodes=job.nodes_used,
                        procs_per_node=job.procs_per_node, machine=machine)


def _answers_scenario(job: Job, machine: str | MachineSpec):
    from repro.platform import Dataset, ScenarioSpec
    from repro.workloads.stackexchange import (
        StackExchangeSpec,
        stackexchange_content,
    )

    content = stackexchange_content(StackExchangeSpec(n_posts=600))
    return ScenarioSpec(
        nodes=job.nodes_used, procs_per_node=job.procs_per_node,
        machine=machine,
        datasets=(Dataset("posts.txt", content, scale=2048 * job.scale),))


def _run_mpi_reduce(session, job: Job) -> None:
    from repro.apps import mpi_reduce_latency

    nprocs = job.nodes_used * job.procs_per_node
    mpi_reduce_latency.run_in(session, [256 * KiB * job.scale], nprocs,
                              job.procs_per_node, iterations=40)


def _run_spark_reduce(session, job: Job) -> None:
    from repro.apps import spark_reduce_latency

    nprocs = job.nodes_used * job.procs_per_node
    spark_reduce_latency.run_in(session, [16 * KiB * job.scale], nprocs,
                                job.procs_per_node,
                                shuffle_transport="socket", iterations=2)


def _run_spark_answers(session, job: Job) -> None:
    from repro.apps import spark_answers_count

    spark_answers_count.run_in(session, "hdfs://posts.txt",
                               job.procs_per_node,
                               executor_nodes=list(range(job.nodes_used)))


def _run_hadoop_answers(session, job: Job) -> None:
    from repro.apps import hadoop_answers_count

    hadoop_answers_count.run_in(session, "hdfs://posts.txt",
                                map_slots_per_node=job.procs_per_node)


#: kind name -> :class:`JobKind` (insertion order is the canonical order)
JOB_KINDS: dict[str, JobKind] = {
    kind.name: kind for kind in (
        JobKind("mpi-reduce", "MPI",
                "OSU-style allreduce rounds on the HPC fabric",
                _bare_scenario, _run_mpi_reduce),
        JobKind("spark-reduce", "Spark",
                "reduce rounds through the socket shuffle",
                _bare_scenario, _run_spark_reduce),
        JobKind("spark-answers", "Spark",
                "AnswersCount over staged HDFS posts",
                _answers_scenario, _run_spark_answers),
        JobKind("hadoop-answers", "Hadoop",
                "MapReduce AnswersCount over staged HDFS posts",
                _answers_scenario, _run_hadoop_answers),
    )
}


def _measure_one(kind: JobKind, job: Job,
                 machine: str | MachineSpec) -> float:
    session = kind.scenario(job, machine).session()
    kind.run(session, job)
    return session.cluster.engine.makespan()


def measure_runtimes(jobs: Iterable[Job],
                     machine: str | MachineSpec = "comet",
                     memo: dict[tuple, float] | None = None
                     ) -> Mapping[int, float]:
    """Measure every job's runtime on ``machine``; returns ``{job_id: s}``.

    Each distinct ``(machine, kind, nodes_used, procs_per_node, scale)``
    configuration provisions one fresh session and runs its application
    once.  Measurements are remembered in ``memo``; pass one dict to
    several calls (as :func:`repro.core.schedexp.sched_trace` does across
    its seeds) to share them — nothing outlives the caller's dict.  Raises
    :class:`~repro.errors.ConfigurationError` for unknown kinds.
    """
    resolved = resolve_machine(machine)
    if memo is None:
        memo = {}
    out: dict[int, float] = {}
    for job in sorted(jobs, key=lambda j: j.job_id):
        kind = JOB_KINDS.get(job.kind)
        if kind is None:
            raise ConfigurationError(
                f"job {job.job_id}: unknown kind {job.kind!r}; "
                f"have {list(JOB_KINDS)}")
        key = (resolved, kind.name, job.nodes_used, job.procs_per_node,
               job.scale)
        if key not in memo:
            memo[key] = _measure_one(kind, job, machine)
        out[job.job_id] = memo[key]
    return out
