"""Cross-implementation validation: every framework, one input, one answer.

The foundation of the whole comparison is that the implementations being
timed are *computing the same thing*.  This experiment runs each benchmark
in every model on a shared small input and checks the results against the
sequential reference — the research-hygiene step a reviewer would ask for
first.  ``python -m repro run validate`` prints the matrix.
"""

from __future__ import annotations

import numpy as np

from repro.apps import (
    hadoop_answers_count,
    mpi_answers_count,
    mpi_kmeans,
    mpi_pagerank,
    openmp_answers_count,
    spark_answers_count,
    spark_kmeans,
    spark_pagerank_bigdatabench,
    spark_pagerank_hibench,
)
from repro.apps.kmeans import kmeans_points, reference_kmeans
from repro.core.report import TableResult
from repro.platform import Dataset, HDFSSpec, ScenarioSpec, Session
from repro.units import KiB
from repro.workloads.graphs import (
    edge_list_content,
    reference_pagerank,
    uniform_digraph,
    with_ring,
)
from repro.workloads.stackexchange import (
    StackExchangeSpec,
    expected_average_answers,
    stackexchange_content,
)


def validate(*, n_posts: int = 3000, n_vertices: int = 400,
             iterations: int = 5, machine: str = "comet") -> TableResult:
    """Run every (benchmark, framework) pair and report agreement."""
    rows: list[list[str]] = []
    bare = ScenarioSpec(nodes=2, procs_per_node=4, machine=machine)

    def row(bench: str, model: str, ok: bool, detail: str) -> None:
        rows.append([bench, model, "ok" if ok else "MISMATCH", detail])

    # -- AnswersCount ------------------------------------------------------------
    spec = StackExchangeSpec(n_posts=n_posts)
    expected = expected_average_answers(spec)
    content = stackexchange_content(spec)
    ac_scenario = bare.with_(
        hdfs=HDFSSpec(replication=2, block_size=64 * KiB),
        datasets=(Dataset("posts.txt", content),))

    def ac_session() -> Session:
        return ac_scenario.session()

    s = ac_session()
    _, avg = openmp_answers_count.run_in(s, s.local, "posts.txt", 8)
    row("AnswersCount", "OpenMP", avg == expected, f"avg={avg:.4f}")
    s = ac_session()
    _, avg = mpi_answers_count.run_in(s, s.local, "posts.txt", 8, 4)
    # The C-style splitter mis-assigns records cut exactly at chunk
    # boundaries (a real-world bug class this implementation reproduces,
    # see apps/answerscount/mpi_ac.py); on the *periodic* synthetic corpus
    # those losses correlate, so the tolerance is wider than the sub-0.1%
    # error real dumps would show.
    row("AnswersCount", "MPI", abs(avg - expected) < 0.05 * expected,
        f"avg={avg:.4f}")
    _, avg = spark_answers_count.run_in(ac_session(), "hdfs://posts.txt", 4)
    row("AnswersCount", "Spark", avg == expected, f"avg={avg:.4f}")
    _, avg = hadoop_answers_count.run_in(ac_session(), "hdfs://posts.txt")
    row("AnswersCount", "Hadoop", avg == expected, f"avg={avg:.4f}")

    # -- PageRank ----------------------------------------------------------------
    edges = with_ring(uniform_digraph(n_vertices, 4, seed=9), n_vertices)
    ref = reference_pagerank(edges, n_vertices, iterations=iterations)
    pr_scenario = bare.with_(
        hdfs=HDFSSpec(replication=2),
        datasets=(Dataset("edges.txt", edge_list_content(edges),
                          on=("hdfs",)),))

    _, ranks = mpi_pagerank.run_in(bare.session(), edges, n_vertices, 8, 4,
                                   iterations=iterations)
    row("PageRank", "MPI", bool(np.allclose(ranks, ref, rtol=1e-9)),
        f"sum={ranks.sum():.3f}")
    for fn, name in ((spark_pagerank_bigdatabench, "Spark (BigDataBench)"),
                     (spark_pagerank_hibench, "Spark (HiBench)")):
        _, got = fn.run_in(pr_scenario.session(), "hdfs://edges.txt",
                           n_vertices, 4, iterations=iterations,
                           collect_ranks=True)
        arr = np.array([got[v] for v in range(n_vertices)])
        row("PageRank", name, bool(np.allclose(arr, ref, rtol=1e-9)),
            f"sum={arr.sum():.3f}")

    # -- k-means -----------------------------------------------------------------
    points = kmeans_points(500, dim=3, k=4)
    kref = reference_kmeans(points, 4, iterations=iterations)
    _, cent = mpi_kmeans.run_in(bare.session(), points, 4, 8, 4,
                                iterations=iterations)
    row("k-means", "MPI", bool(np.allclose(cent, kref, rtol=1e-9)),
        f"inertia-centroids={np.linalg.norm(cent):.4f}")
    _, cent = spark_kmeans.run_in(bare.session(), points, 4, 4,
                                  iterations=iterations)
    row("k-means", "Spark", bool(np.allclose(cent, kref, rtol=1e-9)),
        f"inertia-centroids={np.linalg.norm(cent):.4f}")

    return TableResult(
        "Validation",
        "Every implementation vs its sequential reference "
        f"({n_posts} posts / {n_vertices} vertices / 500 points)",
        ["Benchmark", "Model", "Status", "Detail"], rows)
