#!/usr/bin/env python3
"""Profile the same PageRank iteration under MPI and under Spark.

Section IV of the paper notes the observability gap between the stacks
(Scalasca/Tau for HPC vs "no sufficient tooling in the Hadoop ecosystem").
Because every runtime here runs over one simulator, one profiler covers
them all: this example traces an MPI PageRank and a Spark (HiBench-shape)
PageRank on the same graph — via tracing :class:`~repro.platform.Session`
objects — and prints who-talked-to-whom byte matrices, making the paper's
"shuffle volume" argument visible directly.

Two extra rows guard the simulator itself: what each shuffle wrote (the
trace's ``spark.shuffle.*`` counters: the data-plane volume each phase
pushes through Python) and the wall-seconds-per-virtual-second ratio,
which surfaces a data-plane wall-clock regression long before any
benchmark times out.

Run:  python examples/profile_shuffle.py
"""

from __future__ import annotations

import time

from repro.apps import mpi_pagerank, spark_pagerank_hibench
from repro.platform import Dataset, ScenarioSpec
from repro.tools import profile_session
from repro.units import fmt_bytes
from repro.workloads.graphs import GraphSpec, edge_list_content, with_ring

GRAPH = GraphSpec(n_vertices=4000, out_degree=6)
NODES = 3
ITERATIONS = 3

EDGES = with_ring(GRAPH.generate(), GRAPH.n_vertices)

BARE = ScenarioSpec(nodes=NODES, procs_per_node=4, trace=True)


def profile_mpi():
    session = BARE.session()
    t0 = time.perf_counter()
    mpi_pagerank.run_in(session, EDGES, GRAPH.n_vertices, NODES * 4, 4,
                        iterations=ITERATIONS)
    wall = time.perf_counter() - t0
    return profile_session(session, wall_s=wall)


def profile_spark():
    session = BARE.with_(datasets=(
        Dataset("edges.txt", edge_list_content(EDGES), on=("hdfs",)),
    )).session()
    t0 = time.perf_counter()
    spark_pagerank_hibench.run_in(session, "hdfs://edges.txt",
                                  GRAPH.n_vertices, 4, iterations=ITERATIONS)
    wall = time.perf_counter() - t0
    return profile_session(session, wall_s=wall)


def main() -> None:
    print(f"PageRank, {GRAPH.n_vertices} vertices, {ITERATIONS} iterations, "
          f"{NODES} nodes\n")
    mpi = profile_mpi()
    print("== MPI (dense exchange over RDMA verbs) ==")
    print(mpi.render())
    spark = profile_spark()
    print("\n== Spark, HiBench shape (socket shuffle over IPoIB) ==")
    print(spark.render())
    print(
        f"\nnetwork totals: MPI {fmt_bytes(mpi.total_network_bytes())} "
        f"(all on ib-fdr-rdma) vs Spark "
        f"{fmt_bytes(spark.total_network_bytes())} (shuffle + control on "
        "ipoib) — the per-iteration re-shuffle the paper's Fig 7 measures."
    )


if __name__ == "__main__":
    main()
