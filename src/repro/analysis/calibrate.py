"""Calibration harness: the cost model vs the paper's published numbers.

The simulator's credibility rests on :class:`~repro.costs.SoftwareCosts`
being a *calibration*, not a curve fit done once and forgotten.  This
module makes the comparison executable: a set of **anchors** — points the
paper publishes an absolute value for (Table II's read times verbatim;
Fig 3 read off its log-scale plot, so order-of-magnitude) — each paired
with a runner that evaluates the model at the same operating point.

:func:`evaluate` reports the log10 residual per anchor and an RMS per
figure; ``tools/calibrate.py`` renders that as JSON and ``--check`` gates
CI on the pinned bounds below.  :func:`fit` is a deliberately small
coordinate-descent loop over a few cost parameters, for answering "could
a different calibration do better?" rather than for production tuning.

All anchors run on a named machine (default Comet); sweeping ``--machine``
shows how much of the residual is hardware vs software model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from repro.cluster import MachineSpec, resolve_machine
from repro.platform import ScenarioSpec
from repro.units import MiB

__all__ = ["ANCHORS", "CHECK_BOUNDS", "Anchor", "evaluate", "fit"]


@dataclass(frozen=True)
class Anchor:
    """One paper-published value and the model run that targets it."""

    figure: str
    label: str
    #: the paper's value in seconds (Table II: printed; Fig 3: plot read-off)
    target_s: float
    run: Callable[[MachineSpec], float]


def _fig3_point(m: MachineSpec, size: int, series: str) -> float:
    from repro.apps import mpi_reduce_latency, spark_reduce_latency

    scenario = ScenarioSpec(nodes=8, procs_per_node=8, machine=m)
    if series == "mpi":
        return mpi_reduce_latency.run_in(
            scenario.session(), [size], scenario.nprocs, 8,
            iterations=3)[size]
    return spark_reduce_latency.run_in(
        scenario.session(), [size], scenario.nprocs, 8,
        shuffle_transport="socket", iterations=1)[size]


def _table2_point(m: MachineSpec, logical: int, config: str) -> float:
    from repro.apps import mpi_parallel_read, spark_parallel_read
    from repro.core.figures import _read_scenario

    scenario = _read_scenario(8, 8, logical, machine=m)
    if config == "hdfs":
        t, _ = spark_parallel_read.run_in(scenario.session(),
                                          "hdfs://input.dat", 8)
    elif config == "local":
        splits = max(64, logical // (128 * 10**6))
        t, _ = spark_parallel_read.run_in(scenario.session(),
                                          "local://input.dat", 8,
                                          min_partitions=splits)
    else:
        s = scenario.session()
        t, _ = mpi_parallel_read.run_in(s, s.local, "input.dat", 64, 8)
    return t


#: Paper anchors.  Fig 3 targets are read off the paper's log-scale plot
#: (64 processes), Table II targets are its printed seconds (8 nodes).
ANCHORS: tuple[Anchor, ...] = (
    Anchor("fig3", "MPI reduce, 4 B", 1.0e-5,
           lambda m: _fig3_point(m, 4, "mpi")),
    Anchor("fig3", "MPI reduce, 1 MiB", 2.0e-3,
           lambda m: _fig3_point(m, 1 * MiB, "mpi")),
    Anchor("fig3", "Spark reduce, 4 B", 0.2,
           lambda m: _fig3_point(m, 4, "spark")),
    Anchor("fig3", "Spark reduce, 1 MiB", 1.0,
           lambda m: _fig3_point(m, 1 * MiB, "spark")),
    Anchor("table2", "Spark on HDFS, 8 GB", 8.2,
           lambda m: _table2_point(m, 8 * 10**9, "hdfs")),
    Anchor("table2", "Spark on local, 8 GB", 6.5,
           lambda m: _table2_point(m, 8 * 10**9, "local")),
    Anchor("table2", "MPI, 8 GB", 1.2,
           lambda m: _table2_point(m, 8 * 10**9, "mpi")),
    Anchor("table2", "Spark on HDFS, 80 GB", 46.75,
           lambda m: _table2_point(m, 80 * 10**9, "hdfs")),
    Anchor("table2", "Spark on local, 80 GB", 29.9,
           lambda m: _table2_point(m, 80 * 10**9, "local")),
    Anchor("table2", "MPI, 80 GB", 14.16,
           lambda m: _table2_point(m, 80 * 10**9, "mpi")),
)

#: CI gate (``tools/calibrate.py --check``): per-figure RMS log10 residual
#: the default Comet calibration must stay under.  Pinned ~25 % above the
#: current residuals so cost-model edits that drift the model away from
#: the paper fail loudly, while refactors keeping behaviour pass.
CHECK_BOUNDS: dict[str, float] = {"fig3": 0.10, "table2": 0.36}


def evaluate(machine: str | MachineSpec = "comet") -> dict:
    """Run every anchor on ``machine`` and report log10 residuals.

    A different cost model is a different machine:
    ``evaluate(m.with_(costs=...))`` (what :func:`fit` does).  Returns a
    JSON-ready dict: per-anchor model/target/residual, RMS per figure, and
    the overall RMS.
    """
    m = resolve_machine(machine)
    anchors = []
    by_figure: dict[str, list[float]] = {}
    for a in ANCHORS:
        model = a.run(m)
        residual = math.log10(model) - math.log10(a.target_s)
        anchors.append({"figure": a.figure, "label": a.label,
                        "target_s": a.target_s, "model_s": model,
                        "residual_log10": residual})
        by_figure.setdefault(a.figure, []).append(residual)

    def rms(xs: list[float]) -> float:
        return math.sqrt(sum(x * x for x in xs) / len(xs))

    return {
        "machine": m.name,
        "anchors": anchors,
        "figures": {fig: {"rms_log10": rms(res), "anchors": len(res)}
                    for fig, res in by_figure.items()},
        "overall_rms_log10": rms([a["residual_log10"] for a in anchors]),
    }


#: cost parameters :func:`fit` is allowed to scale — the ones the anchor
#: set is actually sensitive to (Spark driver path, JVM/native scan rates)
FIT_PARAMS: tuple[str, ...] = (
    "spark_job_overhead", "spark_task_overhead",
    "parse_rate_jvm", "parse_rate_native",
)


def fit(machine: str | MachineSpec = "comet",
        params: tuple[str, ...] = FIT_PARAMS,
        factors: tuple[float, ...] = (0.5, 0.71, 1.0, 1.41, 2.0),
        passes: int = 1) -> dict:
    """Coordinate descent over ``params``, minimising the overall RMS.

    Each pass tries every multiplicative ``factor`` for each parameter in
    turn, keeping the best.  Returns the fitted costs (as a name->value
    dict), the achieved evaluation and the default one for comparison.
    """
    m = resolve_machine(machine)
    costs = m.costs
    baseline = evaluate(m)
    best = baseline
    for _ in range(passes):
        for name in params:
            current = getattr(costs, name)
            for factor in factors:
                if factor == 1.0:
                    continue
                candidate = replace(costs, **{name: current * factor})
                result = evaluate(m.with_(costs=candidate))
                if result["overall_rms_log10"] < best["overall_rms_log10"]:
                    best, costs = result, candidate
    return {
        "machine": m.name,
        "fitted": {name: getattr(costs, name) for name in params},
        "default": {name: getattr(m.costs, name) for name in params},
        "default_rms_log10": baseline["overall_rms_log10"],
        "fitted_rms_log10": best["overall_rms_log10"],
        "evaluation": best,
    }
