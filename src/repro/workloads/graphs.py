"""Deterministic graph generators for the PageRank benchmarks.

BigDataBench and HiBench generate web-graph-like inputs (the paper uses a
1,000,000-vertex instance).  Real web graphs have heavy-tailed in-degree,
which is what skews PageRank's shuffle volume; we provide:

* :func:`powerlaw_digraph` — preferential-attachment-flavoured digraph with
  a heavy-tailed in-degree distribution (the realistic choice);
* :func:`uniform_digraph` — uniform random edges (a balanced control used
  by ablations).

Both are pure functions of their spec (no global RNG), so every framework
implementation of PageRank computes on bit-identical inputs and can be
cross-validated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class GraphSpec:
    """Shape of a generated digraph."""

    n_vertices: int = 1_000_000
    out_degree: int = 8
    seed: int = 42
    kind: str = "powerlaw"  # or "uniform"

    def generate(self) -> list[tuple[int, int]]:
        src, dst = self.generate_arrays()
        return list(zip(src.tolist(), dst.tolist()))

    def generate_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` edge arrays — the cheap representation for the
        vectorised (MPI/reference) implementations at paper scale."""
        if self.kind == "powerlaw":
            return _powerlaw_arrays(self.n_vertices, self.out_degree, self.seed)
        if self.kind == "uniform":
            return _uniform_arrays(self.n_vertices, self.out_degree, self.seed)
        raise ValueError(f"unknown graph kind {self.kind!r}")

    @property
    def n_edges(self) -> int:
        return self.n_vertices * self.out_degree


def _powerlaw_arrays(n: int, out_degree: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    if n < 2:
        raise ValueError("graph needs at least 2 vertices")
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(n), out_degree)
    # Zipf over ranks, clipped into range; permute ids so "popular" vertices
    # are spread over the id space (realistic for hashed url ids)
    raw = rng.zipf(1.3, size=n * out_degree)
    targets = (raw - 1) % n
    perm = rng.permutation(n)
    dst = perm[targets]
    loops = src == dst
    dst[loops] = (dst[loops] + 1) % n
    return src, dst


def _uniform_arrays(n: int, out_degree: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    if n < 2:
        raise ValueError("graph needs at least 2 vertices")
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(n), out_degree)
    dst = rng.integers(0, n, size=n * out_degree)
    loops = src == dst
    dst[loops] = (dst[loops] + 1) % n
    return src, dst


def powerlaw_digraph(n: int, out_degree: int, seed: int = 42) -> list[tuple[int, int]]:
    """Digraph whose edge *targets* follow a Zipf-like distribution.

    Every vertex has exactly ``out_degree`` outgoing edges; targets are
    drawn from a Zipf(1.3) distribution over vertex ids, giving the
    heavy-tailed in-degree of web graphs without the O(n^2) cost of true
    preferential attachment.  Self-loops are bumped to the next vertex.
    """
    src, dst = _powerlaw_arrays(n, out_degree, seed)
    return list(zip(src.tolist(), dst.tolist()))


def uniform_digraph(n: int, out_degree: int, seed: int = 42) -> list[tuple[int, int]]:
    """Digraph with uniformly random targets (balanced in-degree)."""
    src, dst = _uniform_arrays(n, out_degree, seed)
    return list(zip(src.tolist(), dst.tolist()))


def edge_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    """Normalise an edge list / array pair to ``(src, dst)`` arrays."""
    if isinstance(edges, tuple) and len(edges) == 2 and isinstance(
            edges[0], np.ndarray):
        return edges
    src = np.fromiter((s for s, _ in edges), np.int64, len(edges))
    dst = np.fromiter((d for _, d in edges), np.int64, len(edges))
    return src, dst


def with_ring_arrays(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Array twin of :func:`with_ring`."""
    ring_src = np.arange(n)
    ring_dst = (ring_src + 1) % n
    return np.concatenate([src, ring_src]), np.concatenate([dst, ring_dst])


def with_ring(edges: list[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    """Append a ring ``i -> i+1 (mod n)`` so every vertex has in-degree >= 1.

    The textbook Spark PageRank (the paper's Fig 5 included) silently drops
    vertices that never receive a contribution; on ring-augmented graphs
    that set is empty, so the MPI, Spark and reference implementations are
    numerically identical and can be cross-validated exactly.
    """
    ring = [(i, (i + 1) % n) for i in range(n)]
    return edges + ring


def edge_list_content(edges) -> "LineContent":
    """The graph as a text file of ``"src dst"`` lines.

    Both benchmark suites feed PageRank an HDFS edge-list file; the Spark
    implementations parse it with ``textFile(...).map(...)``.
    """
    from repro.fs.content import LineContent

    src, dst = edge_arrays(edges)
    pairs = [f"{s} {d}" for s, d in zip(src.tolist(), dst.tolist())]
    return LineContent(lambda i: pairs[i], len(pairs))


@lru_cache(maxsize=8)
def ring_edge_list_content(spec: GraphSpec) -> "LineContent":
    """Memoised edge-list payload of ``spec``'s graph plus its ring.

    Identical bytes to ``edge_list_content(with_ring(spec.generate(),
    spec.n_vertices))`` — the array twin concatenates the same edges in
    the same order — but built once per spec, so node-count sweeps that
    rebuild clusters share one payload.
    """
    src, dst = with_ring_arrays(*spec.generate_arrays(), spec.n_vertices)
    return edge_list_content((src, dst))


def adjacency(edges: list[tuple[int, int]], n: int) -> list[list[int]]:
    """Adjacency lists (out-neighbours) for a vertex range ``[0, n)``."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for s, d in edges:
        adj[s].append(d)
    return adj


def reference_pagerank(edges, n: int,
                       iterations: int = 10, damping: float = 0.85) -> np.ndarray:
    """Sequential NumPy PageRank: the numerical ground truth.

    Uses the same update rule as the BigDataBench Spark code in the paper's
    Fig 5: ``rank = 0.15 + 0.85 * sum(contribs)`` — i.e. the *unnormalised*
    variant where ranks sum to ~n, not 1.  Dangling vertices contribute
    nothing (matching the benchmark codes, which simply drop them).

    ``edges`` may be a list of pairs or a ``(src, dst)`` array tuple.
    """
    src, dst = edge_arrays(edges)
    out_degree = np.bincount(src, minlength=n).astype(np.float64)
    ranks = np.ones(n)
    safe_deg = np.where(out_degree > 0, out_degree, 1.0)
    for _ in range(iterations):
        contrib_per_edge = ranks[src] / safe_deg[src]
        contribs = np.bincount(dst, weights=contrib_per_edge, minlength=n)
        ranks = (1 - damping) + damping * contribs
    return ranks
