"""Race-checkable scenarios: one traced quick run per measured figure.

The paper figures provision their own (untraced) sessions, so the race
checker gets its event streams from this module instead: for each figure
with real shared-state traffic there is a scenario that runs the figure's
representative apps inside an ``hb=True`` session and hands back the
trace.  ``python -m repro analyze race fig3 --quick`` (or
``python -m repro.analysis race ...``) replays it through
:func:`repro.analysis.races.check_trace`.

Scenarios are deliberately small — they exist to exercise the
synchronization structure (SHMEM heap traffic, Spark block-store and
accumulator updates, Hadoop spills), not to reproduce the measurements;
``quick=True`` shrinks them further for CI.

``table1`` and ``table3`` are host-side computations with no simulated
processes, hence no trace and no race check — :func:`capabilities`
reports that per experiment for ``python -m repro list --json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import AnalysisError, DeadlockError
from repro.platform import Dataset, HDFSSpec, ScenarioSpec
from repro.sim.trace import Trace
from repro.units import KiB

__all__ = ["RaceScenario", "RACE_SCENARIOS", "run_race_scenario",
           "SanitizeRun", "SanitizeScenario", "SANITIZE_SCENARIOS",
           "run_sanitize_scenario", "capabilities"]


@dataclass(frozen=True)
class RaceScenario:
    """A traced, race-checkable stand-in for one figure's workload.

    ``run(quick)`` yields one populated hb trace per framework run.  A
    session hosts exactly one measured run (fresh engine, fresh pid
    space — the platform contract), so each run is traced and checked
    separately; races across engine runs cannot exist by construction.
    """

    exp_id: str
    description: str
    run: Callable[[bool], list[Trace]]


def _session(nodes: int, procs_per_node: int, datasets=(), *,
             block_size: int | None = None) -> "object":
    # A small HDFS block size splits the tiny staged inputs into several
    # blocks, so multi-task structure (parallel block reads, one Hadoop
    # map per split) survives the scenario's scale-down.
    return ScenarioSpec(nodes=nodes, procs_per_node=procs_per_node,
                        datasets=tuple(datasets), hb=True,
                        hdfs=HDFSSpec(block_size=block_size)).session()


def _fig3(quick: bool) -> list[Trace]:
    """Reduce microbenchmark: SHMEM heap traffic + Spark shuffle blocks."""
    from repro.apps import shmem_reduce_latency, spark_reduce_latency

    sizes = [4, 1 * KiB] if quick else [4, 1 * KiB, 64 * KiB]
    iters = 2 if quick else 4
    s1 = _session(2, 4)
    shmem_reduce_latency.run_in(s1, sizes, 8, 4, iterations=iters)
    s2 = _session(2, 4)
    spark_reduce_latency.run_in(s2, sizes[:1], 8, 4, iterations=1)
    return [s1.trace, s2.trace]


def _table2(quick: bool) -> list[Trace]:
    """Parallel read: HDFS blocks through the Spark block store + MPI-IO."""
    from repro.apps import mpi_parallel_read, spark_parallel_read
    from repro.fs.content import LineContent

    n_lines = 200 if quick else 1000
    content = LineContent(lambda i: f"payload-{i:08d}-" + "z" * 40, n_lines)
    datasets = [Dataset("input.dat", content, scale=4)]
    s1 = _session(2, 4, datasets, block_size=4 * KiB)
    spark_parallel_read.run_in(s1, "hdfs://input.dat", 4)
    s2 = _session(2, 4, datasets)
    mpi_parallel_read.run_in(s2, s2.local, "input.dat", 8, 4)
    return [s1.trace, s2.trace]


def _fig4(quick: bool) -> list[Trace]:
    """AnswersCount: Spark shuffle blocks + Hadoop map-output spills."""
    from repro.apps import hadoop_answers_count, spark_answers_count
    from repro.workloads.stackexchange import (StackExchangeSpec,
                                               stackexchange_content)

    spec = StackExchangeSpec(n_posts=500 if quick else 2000)
    content = stackexchange_content(spec)
    datasets = [Dataset("posts.txt", content)]
    s1 = _session(2, 4, datasets, block_size=4 * KiB)
    spark_answers_count.run_in(s1, "hdfs://posts.txt", 4,
                               executor_nodes=[0, 1])
    s2 = _session(2, 4, datasets, block_size=4 * KiB)
    hadoop_answers_count.run_in(s2, "hdfs://posts.txt",
                                map_slots_per_node=4)
    return [s1.trace, s2.trace]


def _spark_pagerank(variant: str, quick: bool) -> list[Trace]:
    from repro.workloads.graphs import GraphSpec, ring_edge_list_content

    graph = GraphSpec(n_vertices=200 if quick else 1000, out_degree=4)
    content = ring_edge_list_content(graph)
    s = _session(2, 4, [Dataset("edges.txt", content, on=("hdfs",))])
    if variant == "bigdatabench":
        from repro.apps import spark_pagerank_bigdatabench as app
    else:
        from repro.apps import spark_pagerank_hibench as app
    app.run_in(s, "hdfs://edges.txt", graph.n_vertices, 4,
               iterations=2 if quick else 4)
    return [s.trace]


def _fig6(quick: bool) -> list[Trace]:
    """BigDataBench PageRank: block store + accumulator merges."""
    return _spark_pagerank("bigdatabench", quick)


def _fig7(quick: bool) -> list[Trace]:
    """HiBench PageRank: block store + accumulator merges."""
    return _spark_pagerank("hibench", quick)


#: experiment id -> its race-checkable scenario
RACE_SCENARIOS: dict[str, RaceScenario] = {
    "fig3": RaceScenario(
        "fig3", "reduce microbenchmark (SHMEM heap + Spark shuffle)", _fig3),
    "table2": RaceScenario(
        "table2", "parallel file read (HDFS block store + MPI-IO)", _table2),
    "fig4": RaceScenario(
        "fig4", "AnswersCount (Spark shuffle + Hadoop spills)", _fig4),
    "fig6": RaceScenario(
        "fig6", "BigDataBench PageRank (block store + accumulators)", _fig6),
    "fig7": RaceScenario(
        "fig7", "HiBench PageRank (block store + accumulators)", _fig7),
}


def run_race_scenario(exp_id: str, *, quick: bool = False):
    """Run one scenario under hb tracing and race-check its traces.

    Each framework run is checked against its own trace (one engine, one
    pid space); the per-run reports are merged into a single
    :class:`~repro.analysis.races.RaceReport` (``locations`` sums the
    per-run distinct location counts).
    """
    from repro.analysis.races import RaceReport, check_trace

    try:
        scenario = RACE_SCENARIOS[exp_id]
    except KeyError:
        raise AnalysisError(
            f"no race scenario for {exp_id!r}; have "
            f"{sorted(RACE_SCENARIOS)} (host-side experiments like "
            "table1/table3 run no simulated processes)") from None
    merged = RaceReport()
    for trace in scenario.run(quick):
        report = check_trace(trace)
        merged.races.extend(report.races)
        merged.accesses += report.accesses
        merged.locations += report.locations
    return merged


@dataclass
class SanitizeRun:
    """What one sanitize scenario produced.

    ``deadlocks`` carries :class:`~repro.errors.DeadlockError` diagnostics
    the scenario caught while running (planted-deadlock fixtures wedge by
    design; their partial traces are still checked).
    """

    traces: list[Trace]
    deadlocks: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class SanitizeScenario:
    """A traced scenario for ``python -m repro analyze sanitize``.

    Every figure with a race scenario reuses that scenario's workload (the
    same traces feed both checkers); the ``planted-*`` entries are
    deliberate-bug fixtures proving each sanitizer checker bites.
    """

    exp_id: str
    description: str
    run: Callable[[bool], "SanitizeRun"]


def _sanitize_figure(run_fn: Callable[[bool], list[Trace]]
                     ) -> Callable[[bool], SanitizeRun]:
    def run(quick: bool) -> SanitizeRun:
        return SanitizeRun(run_fn(quick))
    return run


def _planted_root(quick: bool) -> SanitizeRun:
    """Planted bug: ranks disagree on the reduce root (MUST classic).

    Every rank names itself-mod-2 as the root, so the binomial trees
    interlock: each rank's first protocol step is a receive, and the job
    wedges.  The collective checker flags the root mismatch from the
    entry events; the engine reports the wait-for cycle.
    """
    s = _session(1, 4)

    def main(comm):
        return comm.reduce(comm.rank, root=comm.rank % 2)

    deadlocks = []
    try:
        s.mpi(main)
    except DeadlockError as exc:
        deadlocks.append(str(exc))
    return SanitizeRun([s.trace], deadlocks)


def _planted_barrier(quick: bool) -> SanitizeRun:
    """Planted bug: a barrier declared for 4 parties gets only 3 entrants."""
    from repro.sim.engine import current_process
    from repro.sim.sync import SimBarrier

    s = _session(1, 4)
    bar = SimBarrier(4, name="planted")

    def party() -> None:
        bar.wait(current_process())

    for i in range(3):
        s.cluster.spawn(party, node_id=0, name=f"party{i}")
    deadlocks = []
    try:
        s.cluster.run()
    except DeadlockError as exc:
        deadlocks.append(str(exc))
    return SanitizeRun([s.trace], deadlocks)


def _planted_sendsend(quick: bool) -> SanitizeRun:
    """Planted bug: two blocking large sends at each other (rendezvous trap).

    Both payloads exceed the eager threshold, so each send waits for a
    clear-to-send only its peer could grant.  The p2p-layer detector
    diagnoses the cycle before the engine has to."""
    s = _session(1, 2)
    payload = b"x" * (64 * KiB)

    def main(comm):
        other = 1 - comm.rank
        comm.send(payload, other)
        return comm.recv(other)

    deadlocks = []
    try:
        s.mpi(main)
    except DeadlockError as exc:
        deadlocks.append(str(exc))
    return SanitizeRun([s.trace], deadlocks)


def _planted_abba(quick: bool) -> SanitizeRun:
    """Planted bug: ABBA lock order that happens not to deadlock this run.

    The second process starts after the first released both locks, so the
    run completes — only the lock-*order* analysis can catch the latent
    inversion."""
    from repro.sim.engine import current_process
    from repro.sim.sync import SimLock

    s = _session(1, 2)
    lock_a = SimLock("A")
    lock_b = SimLock("B")

    def first() -> None:
        proc = current_process()
        lock_a.acquire(proc)
        lock_b.acquire(proc)
        lock_b.release(proc)
        lock_a.release(proc)

    def second() -> None:
        proc = current_process()
        proc.compute(1.0)  # disjoint in virtual time: never actually wedges
        lock_b.acquire(proc)
        lock_a.acquire(proc)
        lock_a.release(proc)
        lock_b.release(proc)

    s.cluster.spawn(first, node_id=0, name="abba0")
    s.cluster.spawn(second, node_id=0, name="abba1")
    s.cluster.run()
    return SanitizeRun([s.trace])


#: experiment id -> its sanitize scenario (figures + planted-bug fixtures)
SANITIZE_SCENARIOS: dict[str, SanitizeScenario] = {
    **{
        exp_id: SanitizeScenario(exp_id, rs.description,
                                 _sanitize_figure(rs.run))
        for exp_id, rs in RACE_SCENARIOS.items()
    },
    "planted-root": SanitizeScenario(
        "planted-root", "planted bug: mismatched reduce root",
        _planted_root),
    "planted-barrier": SanitizeScenario(
        "planted-barrier", "planted bug: dropped barrier party",
        _planted_barrier),
    "planted-sendsend": SanitizeScenario(
        "planted-sendsend", "planted bug: blocking send/send cycle",
        _planted_sendsend),
    "planted-abba": SanitizeScenario(
        "planted-abba", "planted bug: ABBA lock order (latent)",
        _planted_abba),
}


def run_sanitize_scenario(exp_id: str, *, quick: bool = False):
    """Run one sanitize scenario and check its traces.

    Returns a :class:`~repro.analysis.sanitize.SanitizeReport` merging the
    collective-matching and lock-order checkers over every trace the
    scenario produced, plus any captured deadlock diagnostics.
    """
    from repro.analysis.sanitize import check_traces

    try:
        scenario = SANITIZE_SCENARIOS[exp_id]
    except KeyError:
        raise AnalysisError(
            f"no sanitize scenario for {exp_id!r}; have "
            f"{sorted(SANITIZE_SCENARIOS)} (host-side experiments like "
            "table1/table3 run no simulated processes)") from None
    run = scenario.run(quick)
    return check_traces(run.traces, deadlocks=run.deadlocks)


#: experiments that are host-side computations (no simulated processes)
_UNTRACEABLE = frozenset({"table1", "table3"})


def capabilities(exp_id: str) -> dict[str, bool]:
    """Analysis capability flags for one experiment id.

    ``trace``: the experiment runs simulated processes, so a traced
    session can observe it.  ``race_check``: a :data:`RACE_SCENARIOS`
    entry exists for ``python -m repro analyze race <id>``.
    ``sanitize``: a :data:`SANITIZE_SCENARIOS` entry exists for
    ``python -m repro analyze sanitize <id>``.

    Unknown ids get conservative flags rather than an error — callers
    (``python -m repro list --json``) enumerate registries that may be
    ahead of or behind this module.
    """
    return {
        "trace": exp_id not in _UNTRACEABLE,
        "race_check": exp_id in RACE_SCENARIOS,
        "sanitize": exp_id in SANITIZE_SCENARIOS,
    }
