"""MPI reduce latency — the OSU ``osu_reduce`` pattern (paper Fig 3).

Performs ``MPI_Reduce`` on a float array replicated across all ranks;
"each element of the result array is the sum of all the corresponding
elements across all the processes" (Section V-B1).  Reports the average
per-iteration latency at the root for each message size.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.mpi import SUM, mpi_run

#: OSU defaults: a few warmup iterations, then timed ones
WARMUP = 2
ITERATIONS = 10


def mpi_reduce_latency(
    cluster: Cluster,
    sizes: list[int],
    nprocs: int,
    procs_per_node: int,
    *,
    iterations: int = ITERATIONS,
) -> dict[int, float]:
    """Average reduce latency (seconds) per message size in bytes."""

    def bench(comm) -> dict[int, float]:
        out: dict[int, float] = {}
        for size in sizes:
            data = np.ones(max(1, size // 4), dtype=np.float32)
            for _ in range(WARMUP):
                comm.reduce(data, op=SUM, root=0)
            comm.barrier()
            t0 = comm.wtime()
            for _ in range(iterations):
                result = comm.reduce(data, op=SUM, root=0)
            comm.barrier()
            elapsed = comm.wtime() - t0
            if comm.rank == 0:
                assert result is not None and result[0] == comm.size
                out[size] = elapsed / iterations
        return out

    # <boilerplate>
    res = mpi_run(cluster, bench, nprocs, procs_per_node=procs_per_node,
                  charge_launch=False)
    return res.returns[0]
    # </boilerplate>
