"""OpenSHMEM reduce latency (``shmem_sum_to_all``) — survey extension.

The paper surveys OpenSHMEM (Section II-C) but does not include it in
Fig 3; this variant completes the comparison with the PGAS data point.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.shmem import shmem_run


def shmem_reduce_latency(
    cluster: Cluster,
    sizes: list[int],
    npes: int,
    pes_per_node: int,
    *,
    iterations: int = 10,
) -> dict[int, float]:
    """Average sum_to_all latency (seconds) per message size in bytes."""

    def bench(pe) -> dict[int, float]:
        out: dict[int, float] = {}
        for size in sizes:
            n = max(1, size // 4)
            sym = pe.alloc(n, dtype=np.float32)
            pe.local(sym)[:] = 1.0
            pe.barrier_all()
            t0 = pe.wtime()
            for _ in range(iterations):
                pe.local(sym)[:] = 1.0  # re-arm (sum_to_all overwrites)
                pe.sum_to_all(sym)
            elapsed = pe.wtime() - t0
            assert pe.local(sym)[0] == pe.n_pes
            out[size] = elapsed / iterations
        return out

    # <boilerplate>
    res = shmem_run(cluster, bench, npes, pes_per_node=pes_per_node)
    return res.returns[0]
    # </boilerplate>
