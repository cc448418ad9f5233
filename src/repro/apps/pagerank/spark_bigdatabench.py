"""Spark PageRank, BigDataBench-tuned (the paper's Fig 5 code).

The input is an HDFS edge-list file (as both benchmark suites provide).
Two tunings define this variant:

* ``links`` (the grouped adjacency lists) is **hash-partitioned and
  persisted** (``MEMORY_AND_DISK``), so every iteration's
  ``links.join(ranks)`` is a *narrow* co-partitioned join — the adjacency
  lists never travel again;
* intermediate ``contribs`` are persisted too ("This caching is not done in
  HiBench Implementation", Fig 5's comment).

Result: the only per-iteration shuffle is the small ``reduceByKey`` over
rank contributions — which is why "using the Spark RDMA implementation does
not improve the performance" in Fig 6: there is hardly any shuffle left to
accelerate.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.sim.blocks import PairBlock, parse_int_pairs
from repro.spark import SparkContext, StorageLevel

#: modelled JVM cost per record for parsing an edge line / iterating a tuple
PARSE_COST = 0.3e-6
EDGE_COST_JVM = 600e-9


def _contrib(urls_rank):
    """One vertex's rank spread over its out-links (``rank / len(urls)``
    is the same float however often it is recomputed, so divide once)."""
    urls, rank = urls_rank
    c = rank / len(urls)
    return [(url, c) for url in urls]


def _contrib_block(joined):
    """Columnar twin of ``flat_map(_contrib)`` over the ``(urls, rank)``
    columns a grouped join's ``values()`` leaves: each rank divided by
    its out-degree — the same IEEE division as ``rank / len(urls)``,
    degrees being exact in ``float64`` — repeated beside the flat
    destination column.  Not defined on float destinations or an empty
    list (the scalar division raises there), nor on anything but the
    keyless join of a grouped left side."""
    if (type(joined) is not PairBlock or not joined.joined
            or joined.keys is not None or joined.offsets is None
            or joined.values.dtype != np.int64):
        return None
    degrees = np.diff(joined.offsets)
    if not degrees.all():
        return None
    return PairBlock(joined.values, np.repeat(joined.right / degrees, degrees))


def spark_pagerank_bigdatabench(
    cluster: Cluster,
    edges_url: str,
    n_vertices: int,
    executors_per_node: int,
    *,
    iterations: int = 10,
    damping: float = 0.85,
    shuffle_transport: str = "socket",
    collect_ranks: bool = False,
    record_scale: int = 1,
) -> tuple[float, dict | int]:
    """``(app_seconds, ranks_dict_or_count)``.

    ``edges_url`` names an edge-list text file ("src dst" per line) on a
    mounted filesystem.  Pass ``collect_ranks=True`` (small graphs only) to
    pull the final ranks to the driver for numerical validation; the
    default counts them, like the benchmark's final action.
    """
    # <boilerplate>
    sc = SparkContext(cluster, executors_per_node=executors_per_node,
                      shuffle_transport=shuffle_transport,
                      record_scale=record_scale)
    num_parts = sc.default_parallelism
    # </boilerplate>

    def app(sc: SparkContext):
        links = (
            sc.text_file(edges_url, num_parts)
            .map(lambda line: tuple(map(int, line.split())), cost=PARSE_COST,
                 vector=parse_int_pairs)
            .group_by_key(num_parts)            # (src, [dst, ...])
            .partition_by(num_parts)
            .persist(StorageLevel.MEMORY_AND_DISK)
        )
        ranks = links.map_values(lambda _v: 1.0)
        for _ in range(iterations):
            contribs = (
                links.join(ranks)               # narrow: co-partitioned
                .values()
                .flat_map(_contrib, cost=EDGE_COST_JVM,
                          vector=_contrib_block)
                .persist(StorageLevel.MEMORY_AND_DISK)
            )
            ranks = contribs.reduce_by_key(
                lambda a, b: a + b, num_parts, vector="sum"
            ).map_values(lambda r: (1 - damping) + damping * r,
                         vector=lambda r: (1 - damping) + damping * r)
        if collect_ranks:
            return dict(ranks.collect())
        return ranks.count()

    # <boilerplate>
    result = sc.run(app)
    return result.app_elapsed, result.value
    # </boilerplate>
