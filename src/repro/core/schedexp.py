"""The ``sched-trace`` experiment: batch scheduling over synthetic traffic.

The paper benchmarks each framework in isolation; this experiment asks
the operational question a production Comet answers every day: given a
*stream* of mixed HPC and Big Data jobs, how does the batch layer behave?
Each replication seed generates one synthetic multi-tenant trace
(:mod:`repro.sched.traffic`), measures every job's runtime by running
the real framework applications on the target machine
(:mod:`repro.sched.kinds`), schedules the trace under FCFS + conservative
backfill (:mod:`repro.sched.scheduler`), and reports the operational
metrics (:mod:`repro.sched.metrics`) — one table row per seed.

The ``FCFS wait`` column re-schedules the identical trace with backfill
disabled, so every row carries its own policy ablation: the gap between
``Mean wait`` and ``FCFS wait`` is the latency the backfill holes buy.

Seeds are independent replications, so the experiment shards across
worker processes (``shard_param="seeds"``) and the driver merges rows
bit-identically to a serial run.  The ``machine`` keyword folds the
resolved :class:`~repro.cluster.machines.MachineSpec` into cache keys
and changes measured runtimes — the same trace queues differently on
``comet`` than on ``commodity-eth``.
"""

from __future__ import annotations

from repro.cluster import MachineSpec, resolve_machine
from repro.core.report import TableResult
from repro.sched import (
    TraceProfile,
    generate_jobs,
    measure_runtimes,
    outcome_metrics,
    schedule,
)
from repro.sim.trace import Trace, validate_events

__all__ = ["sched_trace", "sched_trace_metrics"]

#: default replication seeds (one synthetic trace each)
DEFAULT_SEEDS: tuple[int, ...] = (11, 12, 13)


def sched_trace_metrics(seed: int, *, machine: str | MachineSpec = "comet",
                        n_jobs: int = 120, pool_nodes: int = 8,
                        backfill: bool = True,
                        memo: dict[tuple, float] | None = None) -> dict:
    """Metrics dict for one seed's trace (the unit the table rows render).

    Generates the seed's trace, measures runtimes on ``machine``
    (remembered in ``memo``, see
    :func:`~repro.sched.kinds.measure_runtimes`), schedules it (recording
    ``job.*`` lifecycle events on a validated
    :class:`~repro.sim.trace.Trace`), and returns the
    :func:`~repro.sched.metrics.outcome_metrics` dict plus a
    ``fcfs_mean_wait_s`` entry from re-scheduling the identical trace
    with backfill disabled.  Pure function of its arguments — the
    determinism tests compare the dict across worker counts with ``==``.
    """
    profile = TraceProfile(n_jobs=n_jobs, seed=seed, pool_nodes=pool_nodes)
    jobs = generate_jobs(profile)
    runtimes = measure_runtimes(jobs, machine, memo)
    trace = Trace()
    outcome = schedule(jobs, runtimes, pool_nodes=pool_nodes,
                       backfill=backfill, trace=trace)
    validate_events(trace.events)
    metrics = outcome_metrics(outcome)
    alt = schedule(jobs, runtimes, pool_nodes=pool_nodes,
                   backfill=not backfill)
    alt_key = "fcfs_mean_wait_s" if backfill else "backfill_mean_wait_s"
    metrics[alt_key] = outcome_metrics(alt)["mean_wait_s"]
    return metrics


def sched_trace(seeds: tuple[int, ...] = DEFAULT_SEEDS, *,
                machine: str | MachineSpec = "comet", n_jobs: int = 120,
                pool_nodes: int = 8, backfill: bool = True) -> TableResult:
    """Scheduler metrics over synthetic multi-tenant traces, one row per seed.

    Parameters
    ----------
    seeds:
        Replication seeds; each generates an independent trace (this is
        the sharded sweep axis).
    machine:
        Named :class:`~repro.cluster.machines.MachineSpec` (or spec)
        whose hardware + cost model measures the job runtimes.
    n_jobs, pool_nodes:
        Trace length and allocatable node-pool size per replication.
    backfill:
        Primary policy; the alternate policy's mean wait is reported in
        the last column either way.
    """
    m = resolve_machine(machine)
    rows = []
    memo: dict[tuple, float] = {}  # seeds share measured configurations
    for seed in seeds:
        met = sched_trace_metrics(seed, machine=machine, n_jobs=n_jobs,
                                  pool_nodes=pool_nodes, backfill=backfill,
                                  memo=memo)
        alt_key = "fcfs_mean_wait_s" if backfill else "backfill_mean_wait_s"
        rows.append([
            str(seed),
            str(met["jobs"]),
            f"{met['makespan_s']:.0f} s",
            f"{met['mean_wait_s']:.1f} s",
            f"{met['p95_wait_s']:.1f} s",
            f"{met['utilization'] * 100:.0f}%",
            f"{met['bounded_slowdown']:.2f}",
            f"{met['waste_frac'] * 100:.0f}%",
            str(met["backfilled"]),
            f"{met[alt_key]:.1f} s",
        ])
    policy = "backfill" if backfill else "fcfs"
    alt_header = "FCFS wait" if backfill else "Backfill wait"
    return TableResult(
        "Sched trace",
        f"{policy} over {n_jobs}-job traces on a {pool_nodes}-node "
        f"{m.name} pool",
        ["Seed", "Jobs", "Makespan", "Mean wait", "p95 wait", "Util",
         "BSLD", "Waste", "Backfilled", alt_header], rows)
