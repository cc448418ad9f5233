"""K-means in Spark: broadcast centroids, aggregate sums per partition.

The canonical Big-Data k-means (MLlib's shape): the driver broadcasts the
current centroids, executors compute per-cluster partial sums with
``aggregate``-style partition folds, and the driver finishes the division.
Each iteration is one job through the driver — the per-iteration scheduling
cost MPI does not pay.
"""

from __future__ import annotations

import numpy as np

from repro.apps.kmeans.reference import initial_centroids
from repro.cluster.cluster import Cluster
from repro.spark import SparkContext

#: modelled JVM cost per point-centroid distance evaluation
DIST_COST_JVM = 12e-9


def spark_kmeans(
    cluster: Cluster,
    points: np.ndarray,
    k: int,
    executors_per_node: int,
    *,
    iterations: int = 10,
    num_partitions: int | None = None,
) -> tuple[float, np.ndarray]:
    """``(app_seconds, centroids)``."""
    # <boilerplate>
    sc = SparkContext(cluster, executors_per_node=executors_per_node)
    parts = (sc.default_parallelism if num_partitions is None
             else num_partitions)
    # </boilerplate>
    init = initial_centroids(points, k)
    dim = points.shape[1]

    def app(sc: SparkContext) -> np.ndarray:
        data = sc.parallelize([p for p in points], parts).cache()
        data.count()  # materialise the cache before timing-relevant loops
        centroids = init.copy()
        for _ in range(iterations):
            c_b = sc.broadcast(centroids.copy())

            def partial(_i: int, records: list) -> list[tuple]:
                cent = c_b.value
                sums = np.zeros((k, dim))
                counts = np.zeros(k)
                for p in records:
                    c = int(((p[None, :] - cent) ** 2).sum(axis=1).argmin())
                    sums[c] += p
                    counts[c] += 1
                return [(sums, counts)]

            partials = data.map_partitions(
                partial, cost=k * DIST_COST_JVM).collect()
            sums = np.sum([s for s, _ in partials], axis=0)
            counts = np.sum([c for _, c in partials], axis=0)
            nonempty = counts > 0
            centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        return centroids

    # <boilerplate>
    result = sc.run(app)
    return result.app_elapsed, result.value
    # </boilerplate>
