"""Shuffle: map-side bucket writes, reduce-side fetches, two transports.

Spark 1.5's hash shuffle, as the paper ran it:

* a **map task** partitions its output records by the shuffle's partitioner,
  serialises each bucket (JVM serialisation rate) and writes it to the
  node-local disk, then registers the bucket sizes with the driver-side
  map-output tracker;
* a **reduce task** asks the tracker where the buckets live and fetches one
  from every map task — local buckets come off the disk, remote ones over
  the network.

The transport is pluggable, mirroring Lu et al.'s RDMA-Spark (paper
Section VII): ``"socket"`` sends buckets over IPoIB with per-message CPU and
copy costs; ``"rdma"`` moves *shuffle payloads only* over the native
InfiniBand verbs path.  Orchestration stays on sockets in both cases —
exactly why RDMA gains nothing in Fig 3/Fig 6 and wins in Fig 7.  Which
fabric each transport rides comes from the cluster's machine
(``cluster.machine.shuffle_fabrics``, resolved by the SparkContext).
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import length_hint
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.mpi.datatypes import nbytes_of
from repro.sim.blocks import (PairBlock, PairKeyBlock, as_pair_block,
                              first_occurrences, group_pairs, sum_by_key)
from repro.sim.process import SimProcess
from repro.spark.partitioner import require_pair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spark.rdd import ShuffleDependency

#: sample size for record-size estimation
_SAMPLE = 20

#: what :func:`estimate_nbytes` comes to per record of a block bucket.  A
#: ``PairBlock`` record is always an ``(int, float)`` or ``(int, int)``
#: tuple, either of which ``nbytes_of`` prices at 8 + 2 * (8 + 8) = 40
#: (``int`` as a JVM boxed long, like ``float``); a ``PairKeyBlock`` record
#: ``((k, v), None)`` at 8 + (40 + 8) + (1 + 8) = 65.  Add the estimate's 8
#: bytes of framing: both of its branches reduce to exactly ``48 * n`` and
#: ``73 * n`` (the sample mean is exactly ``40.0`` or ``65.0``, and the
#: product is exact in a double below 2**53 / 73).
_BLOCK_RECORD_NBYTES = {PairBlock: 48, PairKeyBlock: 73}

#: sentinel distinguishing "key absent" from any stored value
_MISSING = object()


def merge_by_key(records, create: Callable, merge: Callable,
                 vector: str | None):
    """The keyed merge of both shuffle sides: per key, ``create`` of the
    first value, then ``merge(acc, v)`` of each later one; keys in
    first-occurrence order.

    The declared ``vector`` (:meth:`~repro.spark.rdd.RDD.combine_by_key`)
    lets a kernel replay the loop on a block: ``"sum"`` :func:`sum_by_key`
    on numeric pairs, ``"group"`` :func:`group_pairs` on a ``PairBlock``,
    ``"first"`` :func:`first_occurrences` on a ``PairKeyBlock``.  A
    record that is not a ``(key, value)`` pair raises ``SparkError``; an
    exception of ``create`` or ``merge`` propagates unchanged.
    """
    if vector == "sum":
        block = as_pair_block(records)
        if block is not None:
            return sum_by_key(block.keys, block.values)
    elif vector == "group" and type(records) is PairBlock:
        return group_pairs(records)
    elif vector == "first" and type(records) is PairKeyBlock:
        return first_occurrences(records)
    acc: dict = {}
    get = acc.get
    it = iter(records)
    try:
        for k, v in it:
            prev = get(k, _MISSING)
            acc[k] = create(v) if prev is _MISSING else merge(prev, v)
    except (TypeError, ValueError):
        # the loop stopped at the record before the ones ``it`` has left
        require_pair(records[len(records) - length_hint(it) - 1])
        raise
    return list(acc.items())


def estimate_nbytes(records: list) -> int:
    """Estimated serialised size of a record batch (sampled).

    Exact for small batches; for large ones the mean size of a sample is
    extrapolated — the same trick Spark's SizeEstimator uses.
    """
    n = len(records)
    if n == 0:
        return 0
    if n <= _SAMPLE:
        total = 0
        for r in records:
            total += nbytes_of(r)
        return total + 8 * n
    step = max(1, n // _SAMPLE)
    sample = records[::step][:_SAMPLE]
    total = 0
    for r in sample:
        total += nbytes_of(r)
    return int((total / len(sample) + 8) * n)


class MapOutputTracker:
    """Driver-side registry of where every shuffle bucket lives."""

    def __init__(self) -> None:
        #: (shuffle_id, map_id) -> (executor_id, [bucket_nbytes per reduce],
        #: {reduce_id: records} of the non-empty buckets) — one entry per
        #: map output, not one per bucket: 32 k fewer keys for the
        #: end-of-run collection to visit on a 64 x 64 shuffle
        self._outputs: dict[tuple[int, int],
                            tuple[int, list[int], dict[int, list]]] = {}

    def register(self, shuffle_id: int, map_id: int, executor_id: int,
                 sizes: list[int], buckets: dict[int, list]) -> None:
        self._outputs[(shuffle_id, map_id)] = (executor_id, sizes, buckets)

    def unregister_executor(self, shuffle_ids: Iterable[int], executor_id: int) -> list[tuple[int, int]]:
        """Drop all outputs an executor held; returns the lost (shuffle, map) pairs."""
        lost = [
            key for key, (ex, _s, _b) in self._outputs.items()
            if ex == executor_id
        ]
        for key in lost:
            del self._outputs[key]
        return lost

    def missing_maps(self, shuffle_id: int, n_maps: int) -> list[int]:
        return [
            m for m in range(n_maps) if (shuffle_id, m) not in self._outputs
        ]

    def shuffle_stats(self) -> dict[int, dict[str, int]]:
        """Write-side aggregates per shuffle: map count, records, bytes.

        The profiler's per-phase view — each entry is one shuffle phase
        (HiBench PageRank shows the same link volume re-shuffled every
        iteration; BigDataBench shows it once).
        """
        stats: dict[int, dict[str, int]] = {}
        for (shuffle_id, _map_id), (_ex, sizes, buckets) in \
                self._outputs.items():
            s = stats.setdefault(
                shuffle_id, {"maps": 0, "records": 0, "nbytes": 0})
            s["maps"] += 1
            s["nbytes"] += sum(sizes)
            s["records"] += sum(map(len, buckets.values()))
        return stats

    def bucket(self, shuffle_id: int, map_id: int,
               reduce_id: int) -> tuple[int, int, Sequence]:
        """``(executor_id, nbytes, records)`` of one bucket (``()`` when
        empty)."""
        ex, sizes, buckets = self._outputs[(shuffle_id, map_id)]
        return ex, sizes[reduce_id], buckets.get(reduce_id, ())


class ShuffleWriter:
    """Map-side shuffle output (executor-side)."""

    def __init__(self, env: "Any") -> None:  # env: spark context runtime env
        self.env = env

    @staticmethod
    def _sizes(bucket_lists: list[list], scale: int
               ) -> tuple[list[int], int, dict[int, list]]:
        """Per-reduce sizes, their total, and the non-empty buckets.

        Block buckets are sized in closed form — equal to the sampled
        estimate, without boxing 20 records per bucket to learn a constant.
        """
        sizes = [0] * len(bucket_lists)
        total = 0
        buckets: dict[int, list] = {}
        for reduce_id, bucket in enumerate(bucket_lists):
            if not bucket:
                continue
            per_record = _BLOCK_RECORD_NBYTES.get(type(bucket))
            if per_record is not None:
                nbytes = per_record * len(bucket) * scale
            else:
                nbytes = estimate_nbytes(bucket) * scale
            sizes[reduce_id] = nbytes
            total += nbytes
            buckets[reduce_id] = bucket
        return sizes, total, buckets

    def write(self, proc: SimProcess, executor: "Any",
              dep: "ShuffleDependency", map_id: int, records: list) -> None:
        """Bucket ``records`` by ``dep``'s partitioner, spill to local
        disk, register.

        A map-side-combining ``dep`` first folds the records with its
        aggregator's ``(create, merge_value)`` (:func:`merge_by_key`), so
        only the combined items are bucketed.  It is charged as the two
        passes Spark runs: the combine's per-record charge (input length)
        followed by the write's (output length).
        """
        costs = self.env.costs
        scale = self.env.record_scale
        if dep.map_side_combine:
            agg = dep.aggregator
            combined = merge_by_key(records, agg.create, agg.merge_value,
                                    agg.vector)
            # the combine's charge (input length)
            proc.compute(len(records) * scale * costs.spark_record_overhead)
            records = combined
        bucket_lists = dep.partitioner.buckets(records)
        # the write's charge (output length)
        proc.compute(len(records) * scale * costs.spark_record_overhead)
        sizes, total, buckets = self._sizes(bucket_lists, scale)
        proc.compute_bytes(max(1, total), costs.ser_rate_jvm)  # serialise
        # Shuffle files land in the OS page cache (Spark 1.5 writes them
        # without sync); charge the memory-system stream, not the SSD.
        executor.node.stream_bytes(proc, max(1, total), label="shuffle.write")
        trace = executor.node.trace
        if trace.hb:
            for reduce_id in buckets:
                trace.access(
                    proc, "write",
                    f"spark.shuffle{dep.shuffle_id}[{map_id},{reduce_id}]")
        self.env.tracker.register(dep.shuffle_id, map_id,
                                  executor.executor_id, sizes, buckets)


class ShuffleReader:
    """Reduce-side shuffle input (executor-side)."""

    def __init__(self, env: "Any") -> None:
        self.env = env

    def read(self, proc: SimProcess, executor: "Any", shuffle_id: int,
             reduce_id: int, n_maps: int) -> list:
        """Fetch this reduce partition's bucket from every map output."""
        costs = self.env.costs
        transport = self.env.shuffle_transport
        fabric = self.env.shuffle_fabric
        fetch_overhead = (costs.spark_shuffle_fetch_overhead
                          if transport == "socket"
                          else costs.spark_shuffle_fetch_overhead_rdma)
        # Fetches are batched per source node (as Netty/SEDA engines do):
        # one wire transfer per (reducer, remote node), so transfers stay
        # bulk-sized and contend for the NICs realistically.
        per_node: dict[int, int] = {}
        total = 0
        # The per-map fetch bookkeeping is host-side except the per-fetch
        # overhead charge; fold those clock additions locally (same float
        # adds, same order) and apply them as one equal-total advance.
        bucket = self.env.tracker.bucket
        executors = self.env.executors
        parts: list[list] = []
        clk = proc.clock
        for map_id in range(n_maps):
            src_executor, nbytes, records = bucket(
                shuffle_id, map_id, reduce_id
            )
            clk += fetch_overhead
            src_id = executors[src_executor].node.id
            per_node[src_id] = per_node.get(src_id, 0) + nbytes
            total += nbytes
            parts.append(records)
        proc.advance_clock_to(clk)
        trace = executor.node.trace
        if trace.hb:
            for map_id in range(n_maps):
                trace.access(
                    proc, "read",
                    f"spark.shuffle{shuffle_id}[{map_id},{reduce_id}]")
        # A fresh reduce input per fetch, as deserialising one is: what a
        # consumer does to it never reaches the buckets or a later action.
        filled = [p for p in parts if len(p)]
        kind = type(filled[0]) if filled else None
        if (kind in _BLOCK_RECORD_NBYTES
                and all(type(p) is kind for p in filled)
                and len({p.values.dtype for p in filled}) == 1):
            # columnar concatenation in map order — element-equal to
            # extending a list bucket by bucket (mixed value dtypes would
            # promote the ints, so those extend the list)
            out = kind(np.concatenate([p.keys for p in filled]),
                       np.concatenate([p.values for p in filled]))
        else:
            out = []
            for records in parts:
                out.extend(records)
        for src_id in sorted(per_node):
            nbytes = max(1, per_node[src_id])
            if src_id == executor.node.id:
                # buckets are in the node's page cache: memory-speed copy,
                # no socket path involved
                executor.node.stream_bytes(proc, nbytes, label="shuffle.local")
            else:
                self.env.cluster.network.transmit(
                    proc, fabric, src_id, executor.node.id, nbytes,
                    label=f"shuffle:{shuffle_id}->{reduce_id}",
                )
                # transport CPU path: JVM sockets vs RDMA zero-copy
                rate = (costs.spark_shuffle_socket_rate
                        if transport == "socket"
                        else costs.spark_shuffle_rdma_rate)
                proc.compute_bytes(nbytes, rate)
        proc.compute_bytes(max(1, total), costs.ser_rate_jvm)  # deserialise
        return out
