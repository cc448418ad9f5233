"""The four benchmark workloads and the checks on their outputs.

Each workload is one call into ``repro.core.figures``.  Names are fixed:
later issues cite them.  ``full`` sizes were chosen so one repetition is
2 to 2.5 s on the 2-core reference host with the worker pinned to one CPU —
the driver allows ~37 s for a whole run, set-up and repetitions included —
while keeping each workload's layer profile (see README.md, "Workloads").
``smoke`` sizes are the registry's ``quick_params`` and exist only for the
self-tests.

Fingerprints are compared between repetitions and between the traced and
untraced runs, never against a pinned value: a later model or calibration
change may legitimately move them and cannot edit this directory.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple


class Workload(NamedTuple):
    name: str
    #: attribute of ``repro.core.figures``
    figure: str
    why: str
    #: does ``--seed`` change the generated input?
    seeded: bool
    #: ``params(seed, smoke) -> kwargs`` for the figure function
    params: Callable[[int, bool], dict]
    #: series -> x values that must be absent at full scale (at smoke scale
    #: every point is present: the quick sizes sit under both limits)
    absent: dict[str, tuple]
    #: paper-shape checks that survive recalibration
    shape: Callable[[dict], list[tuple[str, bool]]]


def _graph(seed: int, n_vertices: int | None = None):
    """The PageRank input; without a size, the registry's quick graph."""
    from repro.workloads.graphs import GraphSpec

    if n_vertices is None:
        return GraphSpec(n_vertices=2000, out_degree=4, seed=seed)
    return GraphSpec(n_vertices=n_vertices, seed=seed)


def _quick(exp_id: str) -> dict:
    from repro.core.experiment import get_experiment

    return dict(get_experiment(exp_id).quick_params)


def _reduce_params(seed: int, smoke: bool) -> dict:
    if smoke:
        return {**_quick("fig3"), "include_shmem": True}
    return {"iterations": 6, "include_shmem": True}


def _shuffle_params(seed: int, smoke: bool) -> dict:
    if smoke:
        return {**_quick("fig7"), "graph": _graph(seed)}
    return {"node_counts": (4,), "iterations": 3,
            "graph": _graph(seed, 200_000)}


def _persist_params(seed: int, smoke: bool) -> dict:
    if smoke:
        return {**_quick("fig6"), "graph": _graph(seed)}
    return {"node_counts": (4,), "iterations": 3,
            "graph": _graph(seed, 100_000)}


def _storage_params(seed: int, smoke: bool) -> dict:
    from repro.units import GiB

    if smoke:
        return _quick("fig4")
    return {"proc_counts": (16, 64), "logical_size": 40 * GiB}


def _every_x(series: dict, pred: Callable[[Any], bool]) -> bool:
    xs = set.intersection(*(set(points) for points in series.values()))
    return bool(xs) and all(pred(x) for x in xs)


def _reduce_shape(s: dict) -> list[tuple[str, bool]]:
    return [
        ("fig3: MPI < OpenSHMEM < Spark at every size", _every_x(
            {k: s[k] for k in ("MPI", "OpenSHMEM", "Spark")},
            lambda x: s["MPI"][x] < s["OpenSHMEM"][x] < s["Spark"][x])),
        ("fig3: Spark-RDMA within 2x of Spark", _every_x(
            {k: s[k] for k in ("Spark", "Spark-RDMA")},
            lambda x: 0.5 <= s["Spark-RDMA"][x] / s["Spark"][x] <= 2.0)),
    ]


def _shuffle_shape(s: dict) -> list[tuple[str, bool]]:
    return [("fig7: Spark-RDMA <= Spark", _every_x(
        {k: s[k] for k in ("Spark", "Spark-RDMA")},
        lambda x: s["Spark-RDMA"][x] <= s["Spark"][x]))]


def _persist_shape(s: dict) -> list[tuple[str, bool]]:
    return [("fig6: MPI < Spark", _every_x(
        {k: s[k] for k in ("MPI", "Spark")},
        lambda x: s["MPI"][x] < s["Spark"][x]))]


def _storage_shape(s: dict) -> list[tuple[str, bool]]:
    return [("fig4: Spark < Hadoop at both process counts", _every_x(
        {k: s[k] for k in ("Spark", "Hadoop")},
        lambda x: s["Spark"][x] < s["Hadoop"][x]))]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "reduce_latency", "fig3",
        "64-process reduce in MPI, Spark x2 and OpenSHMEM: no data plane, no"
        " fs; token hand-off dominates, so an engine change must show here"
        " and a shuffle or fs change must not",
        False, _reduce_params, {}, _reduce_shape),
    Workload(
        "pagerank_shuffle", "fig7",
        "HiBench PageRank on socket and RDMA: re-shuffles every iteration,"
        " so spark.rdd, sim.blocks and spark.shuffle carry it",
        True, _shuffle_params, {}, _shuffle_shape),
    Workload(
        "pagerank_persist", "fig6",
        "Same Spark runtime used differently (persisted, co-partitioned"
        " links) beside a 64-rank vectorised MPI PageRank: a shuffle speed-up"
        " should barely move it, a slower BlockManager shows here",
        True, _persist_params, {}, _persist_shape),
    Workload(
        "storage_io", "fig4",
        "AnswersCount over a 40 GiB-logical file in OpenMP, MPI-IO, Spark on"
        " HDFS and Hadoop: the only workload where fs, HDFS, storage devices"
        " and MapReduce do visible work; bypasses the Spark data plane",
        False, _storage_params, {"OpenMP": (64,), "MPI": (16,)},
        _storage_shape),
)}


def run(workload: Workload, seed: int, smoke: bool):
    """One repetition: call the figure's public entry point."""
    from repro.core import figures

    return getattr(figures, workload.figure)(**workload.params(seed, smoke))


def series_points(result) -> dict[str, dict]:
    return {s.name: dict(s.points) for s in result.series}


def virtual_seconds(result) -> float:
    """Sum of every simulated time in the result (exact between commits)."""
    return math.fsum(y for s in result.series for _x, y in s.points
                     if y is not None)


def check_result(workload: Workload, result, smoke: bool
                 ) -> list[tuple[str, bool]]:
    """``(check, ok)`` for one repetition's output."""
    series = series_points(result)
    absent = {} if smoke else workload.absent
    checks = []
    for name, points in series.items():
        gone = set(absent.get(name, ()))
        for x, y in points.items():
            if x in gone:
                ok = y is None
            else:
                ok = (isinstance(y, (int, float)) and math.isfinite(y)
                      and y > 0)
            checks.append((f"{workload.figure}: {name}@{x}"
                           f" {'absent' if x in gone else 'finite > 0'}", ok))
    checks.append((f"{workload.figure}: every series has points",
                   bool(series) and all(series.values())))
    present = {name: {x: y for x, y in points.items() if y is not None}
               for name, points in series.items()}
    try:
        checks.extend(workload.shape(present))
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        checks.append((f"{workload.figure}: shape checks ran ({exc!r})",
                       False))
    return checks
