"""Spark PageRank, HiBench shape: ungrouped edge pairs, no persist tuning.

HiBench's Scala PageRank keeps ``links`` as *raw (src, dst) pairs* (a map
over ``textFile``, so no partitioner) and joins them with the ranks every
iteration.  Without a partitioner on either side, the join shuffles the
**entire edge list plus the ranks, every iteration** — roughly
``out_degree`` times the per-iteration shuffle volume of the tuned
BigDataBench variant.

"When the rate of data shuffling is high and with the increase in the
number of nodes, the Spark RDMA implementation outperforms the default
implementation" (Section V-D) — Fig 7's crossover comes from exactly this
volume difference.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.sim.blocks import PairBlock, parse_int_pairs
from repro.spark import SparkContext

#: modelled JVM cost per record for parsing an edge line / iterating a tuple
PARSE_COST = 0.3e-6
EDGE_COST_JVM = 600e-9


def _seed_block(edges):
    """Columnar twin of the rank seed ``(src, 1.0)`` over a parsed block
    of edges: the source column beside a column of 1.0."""
    if type(edges) is not PairBlock or not edges.pairs:
        return None
    return PairBlock(edges.keys, np.ones(len(edges)))


def _contrib_block(joined, degrees: np.ndarray):
    """Columnar twin of ``contrib`` over a keyed block join of ``links``'
    int64 destinations, ``degrees`` indexed by source vertex.  Degrees
    are far below 2**53, so int64 -> float64 is exact and numpy's
    division is the same IEEE operation as ``rank / _deg[src]``."""
    if (type(joined) is not PairBlock or not joined.joined
            or joined.keys is None or joined.offsets is not None
            or joined.values.dtype != np.int64):
        return None
    return PairBlock(joined.values, joined.right / degrees[joined.keys])


def spark_pagerank_hibench(
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
    """``(app_seconds, ranks_dict_or_count)`` — see the BigDataBench twin."""
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
            .cache()                            # raw pairs: no partitioner
        )
        degrees = sc.broadcast(links.count_by_key())
        deg = degrees.value  # pure reference; one deref, not one per record

        def contrib(src_dst_rank, _deg=deg):
            src, (dst, rank) = src_dst_rank
            return (dst, rank / _deg[src])

        deg_col = np.zeros(max(deg, default=-1) + 1, dtype=np.int64)
        deg_col[list(deg)] = list(deg.values())

        ranks = links.map(lambda e: (e[0], 1.0),
                          vector=_seed_block).distinct(num_parts)
        for _ in range(iterations):
            contribs = links.join(ranks, num_parts).map(
                contrib, cost=EDGE_COST_JVM,
                vector=lambda joined: _contrib_block(joined, deg_col))
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
