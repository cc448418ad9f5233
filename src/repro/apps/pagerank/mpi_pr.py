"""MPI PageRank: block-distributed vertices, dense contribution exchange.

Rank ``r`` owns a contiguous vertex block and that block's out-edges.  Each
iteration it accumulates contributions into one dense vector (a single
``bincount`` over its edges) and exchanges the per-destination-block slices
with ``MPI_Reduce_scatter_block``.  Per-rank communication volume is
~``8 * n_vertices`` bytes *regardless of the process count*, while per-rank
compute shrinks as ``1/p`` — which is why the MPI line in Fig 6 goes flat:
beyond a few nodes the exchange dominates and adding nodes buys nothing.

Fully vectorised, so it runs the paper's 1,000,000-vertex instance with
real data (edges may be passed as ``(src, dst)`` NumPy arrays).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.mpi import SUM, mpi_run
from repro.workloads.graphs import edge_arrays

#: modelled native CPU cost per edge per iteration (C gather/scatter loop)
EDGE_COST = 1.2e-9


def mpi_pagerank(
    cluster: Cluster,
    edges,
    n_vertices: int,
    nprocs: int,
    procs_per_node: int,
    *,
    iterations: int = 10,
    damping: float = 0.85,
) -> tuple[float, np.ndarray]:
    """``(elapsed_seconds, ranks)`` — ranks gathered at rank 0.

    ``edges`` is a list of ``(src, dst)`` pairs or a NumPy array pair.
    """
    # <boilerplate> -- block decomposition shared by all ranks
    bounds = [(r * n_vertices) // nprocs for r in range(nprocs + 1)]
    src_all, dst_all = edge_arrays(edges)
    out_degree = np.bincount(src_all, minlength=n_vertices).astype(np.float64)
    safe_deg = np.where(out_degree > 0, out_degree, 1.0)
    order = np.argsort(src_all, kind="stable")
    src_sorted = src_all[order]
    dst_sorted = dst_all[order]
    # </boilerplate>

    def bench(comm) -> tuple[float, np.ndarray | None]:
        from repro.sim import current_process
        from repro.sim.blocks import ContribBlock

        # <boilerplate>
        me = comm.rank
        lo, hi = bounds[me], bounds[me + 1]
        sel = slice(np.searchsorted(src_sorted, lo),
                    np.searchsorted(src_sorted, hi))
        my_src = src_sorted[sel]
        my_dst = dst_sorted[sel]
        my_deg = safe_deg[my_src]
        # </boilerplate>
        p = comm.size
        # one rank has one destination block — its own — so the dense
        # bincount below is already the whole exchange
        vec = p > 1
        if vec:
            # Group this rank's edges by destination block once (the
            # destinations never change across iterations).  The stable
            # sort keeps edges of equal destination in original order, so
            # each per-block bincount accumulates in exactly the order the
            # dense bincount over all edges did — bit-identical sums.
            barr = np.asarray(bounds, dtype=np.int64)
            blk = np.searchsorted(barr, my_dst, side="right") - 1
            border = np.argsort(blk, kind="stable")
            dst_grp = my_dst[border]
            starts = np.searchsorted(blk[border], np.arange(p + 1))
            uniq: list[np.ndarray] = []
            inv: list[np.ndarray] = []
            for r in range(p):
                seg = dst_grp[starts[r]:starts[r + 1]] - barr[r]
                u, iv = np.unique(seg, return_inverse=True)
                u = np.ascontiguousarray(u, dtype=np.int64)
                u.setflags(write=False)  # shared with receivers, zero-copy
                uniq.append(u)
                inv.append(iv)
        my_ranks = np.ones(hi - lo)
        comm.barrier()
        t0 = comm.wtime()
        for _ in range(iterations):
            shares = my_ranks[my_src - lo] / my_deg
            if vec:
                # Sparse per-destination-block sums: bincount over the
                # *compressed* index range of each block, skipping the
                # O(n_vertices) dense vector and its per-rank slices.
                # Contributions are strictly positive, so the skipped
                # zeros are exact (see ContribBlock).
                sh_grp = shares[border]
                outgoing = []
                for r in range(p):
                    w = sh_grp[starts[r]:starts[r + 1]]
                    vals = np.bincount(inv[r], weights=w,
                                       minlength=len(uniq[r]))
                    vals.setflags(write=False)
                    outgoing.append(
                        ContribBlock(uniq[r], vals, int(barr[r + 1] - barr[r])))
            else:
                dense = np.bincount(my_dst, weights=shares,
                                    minlength=n_vertices)
                outgoing = [dense[bounds[r]:bounds[r + 1]]
                            for r in range(comm.size)]
            # two native passes over edges + one over the dense vector
            current_process().compute(
                (2 * len(my_src) + n_vertices) * EDGE_COST)
            contribs = comm.reduce_scatter_block(outgoing, op=SUM)
            if not isinstance(contribs, np.ndarray):
                contribs = contribs.to_dense()
            my_ranks = (1 - damping) + damping * contribs
        comm.barrier()
        elapsed = comm.wtime() - t0
        gathered = comm.gather(my_ranks, root=0)
        if me == 0:
            return elapsed, np.concatenate(gathered)
        return elapsed, None

    # <boilerplate>
    res = mpi_run(cluster, bench, nprocs, procs_per_node=procs_per_node,
                  charge_launch=False)
    elapsed = max(r[0] for r in res.returns)
    return elapsed, res.returns[0][1]
    # </boilerplate>
