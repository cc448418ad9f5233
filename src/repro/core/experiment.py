"""Experiment registry and runner.

Maps experiment ids (``table1`` ... ``fig8`` plus ablations) to the
functions in :mod:`repro.core.figures` and :mod:`repro.core.ablations`.
The usual entry point is the CLI (which adds sharding, reports and golden
checks on top)::

    python -m repro run fig3
    python -m repro run table2 --quick

and the registry is importable (:func:`run_experiment`,
:func:`get_experiment`).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.report import FigureResult, TableResult


@dataclass(frozen=True)
class Experiment:
    """A registered, runnable paper experiment."""

    exp_id: str
    description: str
    run: Callable[..., FigureResult | TableResult]
    #: smaller parameter overrides for quick runs / CI
    quick_params: dict[str, Any]
    #: name of the keyword argument holding a sweep of *independent*
    #: points (each provisions its own sessions), or ``None``.  The
    #: platform driver shards the sweep across worker processes and merges
    #: the per-point results bit-identically to a serial run
    #: (:mod:`repro.platform.driver`).
    shard_param: str | None = None
    #: the figure's framework series in serial (canonical) order, for a
    #: figure whose ``series`` keyword selects a subset of them.  Each
    #: series provisions fresh sessions, so a single-series run is
    #: bit-identical to that series of the full figure; the driver plans
    #: one unit per (sweep point x series) and merges in this order.
    series: tuple[str, ...] = ()


def _registry() -> dict[str, Experiment]:
    from repro.core import ablations, extras, figures, schedexp, sweeps, validate
    from repro.units import GiB, KiB
    from repro.workloads.graphs import GraphSpec
    from repro.workloads.stackexchange import StackExchangeSpec

    return {
        "table1": Experiment(
            "table1", "Comet node configuration", figures.table1, {}),
        "fig3": Experiment(
            "fig3", "Reduce microbenchmark (MPI vs Spark vs Spark-RDMA)",
            figures.fig3,
            {"sizes": [4, 1 * KiB, 64 * KiB], "nodes": 2, "iterations": 3}),
        "table2": Experiment(
            "table2", "Parallel file read (HDFS vs local vs MPI-IO)",
            figures.table2,
            {"logical_sizes": (10**9,), "nodes": 2},
            shard_param="logical_sizes"),
        "fig4": Experiment(
            "fig4", "StackExchange AnswersCount across frameworks",
            figures.fig4,
            {"proc_counts": (8, 16), "logical_size": 4 * GiB,
             "spec": StackExchangeSpec(n_posts=4000)},
            shard_param="proc_counts",
            series=("OpenMP", "MPI", "Spark", "Hadoop")),
        "fig6": Experiment(
            "fig6", "BigDataBench PageRank (MPI vs Spark vs Spark-RDMA)",
            figures.fig6,
            {"node_counts": (1, 2), "procs_per_node": 4,
             "graph": GraphSpec(n_vertices=2000, out_degree=4),
             "iterations": 3},
            shard_param="node_counts",
            series=("MPI", "Spark", "Spark-RDMA")),
        "fig7": Experiment(
            "fig7", "HiBench PageRank (Spark vs Spark-RDMA)",
            figures.fig7,
            {"node_counts": (1, 2), "procs_per_node": 4,
             "graph": GraphSpec(n_vertices=2000, out_degree=4),
             "iterations": 3},
            shard_param="node_counts", series=("Spark", "Spark-RDMA")),
        "fig8": Experiment(
            "fig8", "Fault injection: recovery cost of one node crash",
            figures.fig8,
            {"nodes": 2, "procs_per_node": 4, "logical_size": 1 * GiB,
             "spec": StackExchangeSpec(n_posts=2000),
             "graph": GraphSpec(n_vertices=2000, out_degree=4),
             "iterations": 3, "spark_physical_vertices": 2000},
            shard_param="workloads"),
        "sweep-interconnect": Experiment(
            "sweep-interconnect",
            "MPI-vs-Spark reduce gap across machine models",
            sweeps.sweep_interconnect,
            {"size": 64 * KiB, "nodes": 2, "procs_per_node": 4,
             "iterations": 3},
            shard_param="machines"),
        "sched-trace": Experiment(
            "sched-trace",
            "Batch scheduler over synthetic multi-tenant job traffic",
            schedexp.sched_trace,
            {"seeds": (11, 12), "n_jobs": 60},
            shard_param="seeds"),
        "table3": Experiment(
            "table3", "Maintainability: LoC + boilerplate", figures.table3, {}),
        "ablation-persist": Experiment(
            "ablation-persist",
            "PageRank with/without the Fig 5 persist+partition tuning",
            ablations.ablation_persist,
            {"graph": GraphSpec(n_vertices=2000, out_degree=4),
             "iterations": 3, "nodes": 2, "procs_per_node": 4}),
        "ablation-replication": Experiment(
            "ablation-replication",
            "HDFS replication factor vs executor locality (Section V-B2)",
            ablations.ablation_replication,
            {"logical_size": 2 * GiB},
            shard_param="replication_factors"),
        "ablation-faults": Experiment(
            "ablation-faults",
            "Fault recovery cost: Spark lineage vs Hadoop retry",
            ablations.ablation_faults, {}),
        "extra-kmeans": Experiment(
            "extra-kmeans",
            "k-means MPI vs Spark on one platform (related work [38])",
            extras.extra_kmeans,
            {"node_counts": (1, 2), "n_points": 2000, "iterations": 3,
             "procs_per_node": 4},
            shard_param="node_counts"),
        "extra-mapreduce": Experiment(
            "extra-mapreduce",
            "MapReduce engines head-to-head (related work [36]/[37])",
            extras.extra_mapreduce,
            {"nodes": 2, "procs_per_node": 4,
             "spec": StackExchangeSpec(n_posts=2000)}),
        "validate": Experiment(
            "validate",
            "Cross-check every implementation against its reference",
            validate.validate,
            {"n_posts": 1500, "n_vertices": 200, "iterations": 3}),
    }


#: experiment id -> Experiment
EXPERIMENTS: dict[str, Experiment] = {}


def _ensure_registry() -> dict[str, Experiment]:
    if not EXPERIMENTS:
        EXPERIMENTS.update(_registry())
    return EXPERIMENTS


def get_experiment(exp_id: str) -> Experiment:
    """Look up one registered experiment by id."""
    reg = _ensure_registry()
    if exp_id not in reg:
        raise KeyError(
            f"unknown experiment {exp_id!r}; have {sorted(reg)}")
    return reg[exp_id]


def supports_machine(exp: Experiment) -> bool:
    """Whether an experiment takes a ``machine`` keyword (CLI ``--machine``).

    Machine-axis experiments accept a named :class:`~repro.cluster.machines.
    MachineSpec` selecting the hardware + cost model; the rest (e.g. the
    static-analysis ``table3``, or ``sweep-interconnect`` which takes a
    ``machines`` tuple instead) are machine-independent.
    """
    return _takes_keyword(exp, "machine")


def supports_sched(exp: Experiment) -> bool:
    """Whether an experiment drives the batch scheduler (``repro.sched``).

    Scheduler experiments take a ``pool_nodes`` keyword (the allocatable
    node pool their traces target); ``list --json`` marks them so tooling
    can find the runs that emit ``job.*`` lifecycle traces.
    """
    return _takes_keyword(exp, "pool_nodes")


def _takes_keyword(exp: Experiment, name: str) -> bool:
    try:
        sig = inspect.signature(exp.run)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return False
    return name in sig.parameters


def run_experiment(exp_id: str, *, quick: bool = False,
                   **overrides: Any) -> FigureResult | TableResult:
    """Run one experiment by id; ``quick=True`` applies the CI-sized params."""
    exp = get_experiment(exp_id)
    params = dict(exp.quick_params) if quick else {}
    params.update(overrides)
    return exp.run(**params)
