"""The per-bucket shuffle: the reference the reduce-major layout replays.

A map output here is what the tracker held before the layout existed:
``(executor_id, sizes, buckets)``, the nbytes of every bucket and
``{reduce_id: records}`` of the non-empty ones, each bucket its own block
or list.  :func:`reference_write` sizes bucket by bucket;
:func:`reference_read` walks the map outputs one by one and concatenates
the reducer's buckets.  Both make, on the ``proc``, node, trace and
network they are given, the calls
:class:`~repro.spark.shuffle.ShuffleWriter` and
:class:`~repro.spark.shuffle.ShuffleReader` must make, so that
``tests/test_shuffle.py`` can compare the two call logs and the records.
"""

from __future__ import annotations

import numpy as np

from repro.spark.shuffle import _BLOCK_RECORD_NBYTES, estimate_nbytes


def reference_sizes(bucket_lists: list, scale: int
                    ) -> tuple[list[int], int, dict[int, object]]:
    """Per-reduce sizes, their total, and the non-empty buckets."""
    sizes = [0] * len(bucket_lists)
    total = 0
    buckets: dict[int, object] = {}
    for reduce_id, bucket in enumerate(bucket_lists):
        if not len(bucket):
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


def reference_write(proc, executor, env, shuffle_id: int, map_id: int,
                    n_records: int, bucket_lists: list) -> tuple:
    """The write of already-bucketed records; returns the map output."""
    costs = env.costs
    scale = env.record_scale
    proc.compute(n_records * scale * costs.spark_record_overhead)
    sizes, total, buckets = reference_sizes(bucket_lists, scale)
    proc.compute_bytes(max(1, total), costs.ser_rate_jvm)
    executor.node.stream_bytes(proc, max(1, total), label="shuffle.write")
    trace = executor.node.trace
    if trace.hb:
        for reduce_id in buckets:
            trace.access(proc, "write",
                         f"spark.shuffle{shuffle_id}[{map_id},{reduce_id}]")
    return executor.executor_id, sizes, buckets


def reference_read(proc, executor, env, shuffle_id: int, reduce_id: int,
                   outputs: list) -> object:
    """Fetch reducer ``reduce_id``'s bucket from every map output."""
    costs = env.costs
    transport = env.shuffle_transport
    fetch_overhead = (costs.spark_shuffle_fetch_overhead
                      if transport == "socket"
                      else costs.spark_shuffle_fetch_overhead_rdma)
    per_node: dict[int, int] = {}
    total = 0
    parts: list = []
    clk = proc.clock
    for src_executor, sizes, buckets in outputs:
        nbytes = sizes[reduce_id]
        clk += fetch_overhead
        src_id = env.executors[src_executor].node.id
        per_node[src_id] = per_node.get(src_id, 0) + nbytes
        total += nbytes
        parts.append(buckets.get(reduce_id, ()))
    proc.advance_clock_to(clk)
    trace = executor.node.trace
    if trace.hb:
        for map_id in range(len(outputs)):
            trace.access(proc, "read",
                         f"spark.shuffle{shuffle_id}[{map_id},{reduce_id}]")
    filled = [p for p in parts if len(p)]
    kind = type(filled[0]) if filled else None
    if (kind in _BLOCK_RECORD_NBYTES
            and all(type(p) is kind for p in filled)
            and len({p.values.dtype for p in filled}) == 1):
        out = kind(np.concatenate([p.keys for p in filled]),
                   np.concatenate([p.values for p in filled]))
    else:
        out = []
        for records in parts:
            out.extend(records)
    for src_id in sorted(per_node):
        nbytes = max(1, per_node[src_id])
        if src_id == executor.node.id:
            executor.node.stream_bytes(proc, nbytes, label="shuffle.local")
        else:
            env.cluster.network.transmit(
                proc, env.shuffle_fabric, src_id, executor.node.id, nbytes,
                label=f"shuffle:{shuffle_id}->{reduce_id}")
            rate = (costs.spark_shuffle_socket_rate if transport == "socket"
                    else costs.spark_shuffle_rdma_rate)
            proc.compute_bytes(nbytes, rate)
    proc.compute_bytes(max(1, total), costs.ser_rate_jvm)
    return out
