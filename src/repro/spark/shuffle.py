"""Shuffle: map-side bucket writes, reduce-side fetches, two transports.

Spark 1.5's hash shuffle, as the paper ran it:

* a **map task** partitions its output records by the shuffle's partitioner,
  serialises each bucket (JVM serialisation rate) and writes it to the
  node-local disk, then registers the bucket sizes with the driver-side
  map-output tracker;
* a **reduce task** asks the tracker where the buckets live and fetches one
  from every map task — local buckets come off the disk, remote ones over
  the network.

That is what the simulation charges.  How the host holds the data is
separate: a map output is its records in bucket order plus the bucket
offsets, and a reduce fetch is one slice of the shuffle's reduce-major
layout (:class:`MapOutputTracker`, :class:`ShuffleLayout`).

The transport is pluggable, mirroring Lu et al.'s RDMA-Spark (paper
Section VII): ``"socket"`` sends buckets over IPoIB with per-message CPU and
copy costs; ``"rdma"`` moves *shuffle payloads only* over the native
InfiniBand verbs path.  Orchestration stays on sockets in both cases —
exactly why RDMA gains nothing in Fig 3/Fig 6 and wins in Fig 7.  Which
fabric each transport rides comes from the cluster's machine
(``cluster.machine.shuffle_fabrics``, resolved by the SparkContext).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import reduce
from itertools import chain, repeat
from operator import add, itemgetter, length_hint
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.mpi.datatypes import nbytes_of
from repro.sim.blocks import (PairBlock, as_pair_block, first_occurrences,
                              group_pairs, sum_by_key)
from repro.sim.process import SimProcess, Steps
from repro.spark.partitioner import require_pair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spark.rdd import ShuffleDependency

#: sample size for record-size estimation
_SAMPLE = 20

#: what :func:`estimate_nbytes` comes to per record of a block bucket, by
#: :func:`_block_kind`.  A ``"pairs"`` record is always an ``(int, float)``
#: or ``(int, int)`` tuple, either of which ``nbytes_of`` prices at
#: 8 + 2 * (8 + 8) = 40 (``int`` as a JVM boxed long, like ``float``); a
#: ``"pair_keys"`` record ``((k, v), None)`` at 8 + (40 + 8) + (1 + 8) = 65.
#: Add the estimate's 8 bytes of framing: both of its branches reduce to
#: exactly ``48 * n`` and ``73 * n`` (the sample mean is exactly ``40.0`` or
#: ``65.0``, and the product is exact in a double below 2**53 / 73).
_BLOCK_RECORD_NBYTES = {"pairs": 48, "pair_keys": 73}

#: sentinel distinguishing "key absent" from any stored value
_MISSING = object()


def merge_by_key(records, create: Callable, merge: Callable,
                 vector: str | None):
    """The keyed merge of both shuffle sides: per key, ``create`` of the
    first value, then ``merge(acc, v)`` of each later one; keys in
    first-occurrence order.

    The declared ``vector`` (:meth:`~repro.spark.rdd.RDD.combine_by_key`)
    lets a kernel replay the loop on a block: ``"sum"`` :func:`sum_by_key`
    on numeric pairs, ``"group"`` :func:`group_pairs` on a block of pairs,
    ``"first"`` :func:`first_occurrences` on a pair-keyed block.  A
    record that is not a ``(key, value)`` pair raises ``SparkError``; an
    exception of ``create`` or ``merge`` propagates unchanged.
    """
    if vector == "sum":
        block = as_pair_block(records)
        if block is not None:
            return sum_by_key(block.keys, block.values)
    elif type(records) is PairBlock:
        if vector == "group" and records.pairs:
            return group_pairs(records)
        if vector == "first" and records.pair_keyed:
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


def _reduce_major(counts: np.ndarray) -> np.ndarray:
    """The gather that turns map outputs reduce-major.

    ``counts[m, r]`` is the length of map ``m``'s bucket for reducer
    ``r``; the maps' records, concatenated map by map in bucket order,
    are ``flat``.  Returns ``idx`` with ``flat[idx]`` listing them reducer
    by reducer, each reducer's buckets in map order, each bucket in
    record order.
    """
    lens = counts.ravel()
    src = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=src[1:])
    lens = counts.T.ravel()
    src = src.reshape(counts.shape).T.ravel()
    dst = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=dst[1:])
    return np.repeat(src - dst, lens) + np.arange(lens.sum())


class _Group:
    """The maps of one shuffle whose outputs share a record kind (a
    block kind and value dtype, or ``list``), held reduce-major:
    reducer ``r``'s buckets, in map order, are ``records[starts[r]:
    starts[r + 1]]``, and ``counts[i, r]`` is the length of the bucket of
    ``maps[i]``."""

    __slots__ = ("maps", "counts", "records", "starts")

    def __init__(self, maps: list[int], outputs: list,
                 counts: np.ndarray) -> None:
        idx = _reduce_major(counts)
        if type(outputs[0]) is list:
            flat = list(chain.from_iterable(outputs))
            self.records = list(map(flat.__getitem__, idx.tolist()))
        else:
            # read-only columns: every block a fetch hands out is a view
            # of them, so none may be written through
            keys = np.concatenate([o.keys for o in outputs])[idx]
            values = np.concatenate([o.values for o in outputs])[idx]
            keys.setflags(write=False)
            values.setflags(write=False)
            self.records = PairBlock(keys, values,
                                     pair_keyed=outputs[0].pair_keyed)
        self.maps = maps
        self.counts = counts
        starts = np.zeros(counts.shape[1] + 1, dtype=np.int64)
        np.cumsum(counts.sum(axis=0), out=starts[1:])
        self.starts = starts.tolist()

    def split(self) -> Iterator[tuple[int, Any]]:
        """``(map_id, records in bucket order)`` of each map, as it was
        registered."""
        counts = self.counts
        idx = _reduce_major(counts)
        back = np.empty_like(idx)
        back[idx] = np.arange(len(idx))
        if type(self.records) is list:
            flat = list(map(self.records.__getitem__, back.tolist()))
        else:
            flat = self.records[back]
        bounds = np.zeros(len(self.maps) + 1, dtype=np.int64)
        np.cumsum(counts.sum(axis=1), out=bounds[1:])
        bounds = bounds.tolist()
        for map_id, a, b in zip(self.maps, bounds, bounds[1:]):
            yield map_id, flat[a:b]


class ShuffleLayout:
    """A complete shuffle's map outputs, reduce-major, so that a reduce
    fetch is one slice.

    Maps whose records share a kind form one :class:`_Group` (a
    columnar one for blocks).  ``nodes`` are the source nodes in sorted
    order and ``node_bytes[r]`` what each holds for reducer ``r``: the
    sum of its maps' bucket sizes, 0 included.
    """

    __slots__ = ("groups", "nodes", "node_bytes")

    def __init__(self, records: list, offsets: np.ndarray,
                 sizes: np.ndarray, nodes: list[int]) -> None:
        counts = np.diff(offsets, axis=1)
        uniq, at = np.unique(np.array(nodes, dtype=np.int64),
                             return_inverse=True)
        node_bytes = np.zeros((len(uniq), counts.shape[1]), dtype=np.int64)
        np.add.at(node_bytes, at, sizes)
        self.nodes = uniq.tolist()
        self.node_bytes = node_bytes.T.tolist()
        kinds: dict[tuple, list[int]] = {}
        for map_id, recs in enumerate(records):
            if len(recs):  # an empty map output is in no reduce's input
                kinds.setdefault(_kind(recs), []).append(map_id)
        self.groups = [_Group(maps, [records[m] for m in maps], counts[maps])
                       for maps in kinds.values()]

    def fetch(self, reduce_id: int):
        """Reducer ``reduce_id``'s input: a block of the one kind when its
        non-empty buckets all share one, else a list of their records in
        map order (``[]`` when every bucket is empty)."""
        r = reduce_id
        present = [g for g in self.groups if g.starts[r + 1] > g.starts[r]]
        if len(present) == 1:
            g = present[0]
            return g.records[g.starts[r]:g.starts[r + 1]]
        # mixed kinds: each bucket's records, in map order
        runs = []
        for g in present:
            lens = g.counts[:, r]
            at = g.starts[r] + np.cumsum(lens) - lens
            runs += [(m, g.records, a, a + n) for m, a, n in
                     zip(g.maps, at.tolist(), lens.tolist()) if n]
        out: list = []
        for _m, records, a, b in sorted(runs, key=itemgetter(0)):
            out.extend(records[a:b])
        return out

    def split(self) -> Iterator[tuple[int, Any]]:
        """``(map_id, records in bucket order)`` of every non-empty map."""
        for g in self.groups:
            yield from g.split()


def _block_kind(records) -> "str | None":
    """``"pairs"`` for a block of ``(k, v)`` pairs and ``"pair_keys"`` for
    ``distinct``'s ``((k, v), None)``, the two kinds a partitioner cuts
    columnar; ``None`` for a list or a block of any other shape."""
    if type(records) is not PairBlock:
        return None
    return "pair_keys" if records.pair_keyed else (
        "pairs" if records.pairs else None)


def _kind(records) -> tuple:
    """What a reduce input may concatenate columnar: a block's value
    dtype and kind; a list is ``(None, None)``."""
    if type(records) is list:
        return None, None
    return records.values.dtype, _block_kind(records)


class MapOutputTracker:
    """Driver-side registry of every map output of every shuffle.

    A map output is what Spark's sort shuffle writes: the map's records
    in bucket order plus the offsets where each reducer's bucket starts.
    A shuffle's first fetch lays all its outputs out reduce-major
    (:class:`ShuffleLayout`) and the layout then holds the records: the
    outputs keep only their index until it is dropped, which happens when
    an output of the shuffle is registered again or lost with its
    executor.
    """

    def __init__(self) -> None:
        #: (shuffle_id, map_id) -> [executor_id, records, offsets, sizes]:
        #: the records in bucket order (a block or a list; ``None`` while
        #: the shuffle's layout holds them), the ``nparts + 1`` bucket
        #: offsets and the int64 nbytes of each bucket
        self._outputs: dict[tuple[int, int], list] = {}
        #: shuffle_id -> how many of its map outputs are registered
        self._registered: dict[int, int] = {}
        #: shuffle_id -> its layout, from its first fetch on
        self._layouts: dict[int, ShuffleLayout] = {}

    def register(self, shuffle_id: int, map_id: int, executor_id: int,
                 records, offsets: np.ndarray, sizes: np.ndarray) -> None:
        self._drop_layout(shuffle_id)
        key = (shuffle_id, map_id)
        if key not in self._outputs:
            self._registered[shuffle_id] = (
                self._registered.get(shuffle_id, 0) + 1)
        self._outputs[key] = [executor_id, records, offsets, sizes]

    def unregister_executor(self, executor_id: int) -> list[tuple[int, int]]:
        """Drop all outputs an executor held; returns the lost
        ``(shuffle_id, map_id)`` pairs."""
        lost = [key for key, out in self._outputs.items()
                if out[0] == executor_id]
        for shuffle_id in dict.fromkeys(shuffle_id for shuffle_id, _ in lost):
            self._drop_layout(shuffle_id)
        for key in lost:
            del self._outputs[key]
            self._registered[key[0]] -= 1
        return lost

    def missing_maps(self, shuffle_id: int, n_maps: int) -> list[int]:
        return [
            m for m in range(n_maps) if (shuffle_id, m) not in self._outputs
        ]

    def complete(self, shuffle_id: int, n_maps: int) -> bool:
        """Whether all ``n_maps`` outputs of the shuffle are registered."""
        return self._registered.get(shuffle_id, 0) == n_maps

    def layout(self, shuffle_id: int, n_maps: int,
               executors: Sequence) -> ShuffleLayout:
        """The complete shuffle's reduce-major layout, built on first use."""
        layout = self._layouts.get(shuffle_id)
        if layout is None:
            outs = [self._outputs[(shuffle_id, m)] for m in range(n_maps)]
            layout = ShuffleLayout(
                [o[1] for o in outs], np.stack([o[2] for o in outs]),
                np.stack([o[3] for o in outs]),
                [executors[o[0]].node.id for o in outs])
            for g in layout.groups:
                for map_id in g.maps:
                    outs[map_id][1] = None  # the layout holds them now
            self._layouts[shuffle_id] = layout
        return layout

    def _drop_layout(self, shuffle_id: int) -> None:
        """Hand a layout's records back to the map outputs they came from."""
        layout = self._layouts.pop(shuffle_id, None)
        if layout is not None:
            for map_id, records in layout.split():
                self._outputs[(shuffle_id, map_id)][1] = records


class ShuffleWriter:
    """Map-side shuffle output (executor-side)."""

    def __init__(self, env: "Any") -> None:  # env: spark context runtime env
        self.env = env

    @staticmethod
    def _sizes(records, offsets: np.ndarray, scale: int) -> np.ndarray:
        """The int64 nbytes of each bucket of a map output.

        Block buckets are sized in closed form, all in one vector op —
        equal to the sampled estimate, without boxing 20 records per
        bucket to learn a constant.
        """
        per_record = _BLOCK_RECORD_NBYTES.get(_block_kind(records))
        if per_record is not None:
            return np.diff(offsets) * (per_record * scale)
        bounds = offsets.tolist()
        return np.array([estimate_nbytes(records[a:b]) * scale
                         for a, b in zip(bounds, bounds[1:])],
                        dtype=np.int64)

    def write(self, proc: SimProcess, executor: "Any",
              dep: "ShuffleDependency", map_id: int, records: list) -> None:
        """Bucket ``records`` and register them (see :meth:`write_steps`)."""
        proc.run_steps(self.write_steps(proc, executor, dep, map_id, records))

    def write_steps(self, proc: SimProcess, executor: "Any",
                    dep: "ShuffleDependency", map_id: int,
                    records: list) -> Steps[None]:
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
        cut, offsets = dep.partitioner.buckets(records)
        # the write's charge (output length)
        proc.compute(len(records) * scale * costs.spark_record_overhead)
        sizes = self._sizes(cut, offsets, scale)
        total = int(sizes.sum())
        proc.compute_bytes(max(1, total), costs.ser_rate_jvm)  # serialise
        # Shuffle files land in the OS page cache (Spark 1.5 writes them
        # without sync); charge the memory-system stream, not the SSD.
        yield from executor.node.stream_bytes_steps(proc, max(1, total),
                                                    label="shuffle.write")
        trace = executor.node.trace
        trace.add("spark.shuffle.maps", dep.shuffle_id)
        trace.add("spark.shuffle.records", dep.shuffle_id, n=int(offsets[-1]))
        trace.add("spark.shuffle.bytes", dep.shuffle_id, n=total)
        if trace.hb:
            for reduce_id in np.flatnonzero(np.diff(offsets)).tolist():
                trace.access(
                    proc, "write",
                    f"spark.shuffle{dep.shuffle_id}[{map_id},{reduce_id}]")
        self.env.tracker.register(dep.shuffle_id, map_id,
                                  executor.executor_id, cut, offsets, sizes)


class ShuffleReader:
    """Reduce-side shuffle input (executor-side)."""

    def __init__(self, env: "Any") -> None:
        self.env = env

    def read(self, proc: SimProcess, executor: "Any", shuffle_id: int,
             reduce_id: int, n_maps: int):
        """Fetch one reduce partition (see :meth:`read_steps`)."""
        return proc.run_steps(self.read_steps(proc, executor, shuffle_id,
                                              reduce_id, n_maps))

    def read_steps(self, proc: SimProcess, executor: "Any", shuffle_id: int,
                   reduce_id: int, n_maps: int) -> Steps[Any]:
        """Fetch this reduce partition's bucket from every map output:
        one slice of the shuffle's reduce-major layout."""
        costs = self.env.costs
        transport = self.env.shuffle_transport
        fabric = self.env.shuffle_fabric
        fetch_overhead = (costs.spark_shuffle_fetch_overhead
                          if transport == "socket"
                          else costs.spark_shuffle_fetch_overhead_rdma)
        layout = self.env.tracker.layout(shuffle_id, n_maps,
                                         self.env.executors)
        # One fetch per map output, each charged its overhead: fold those
        # clock additions locally (the same n_maps float adds, in order)
        # and apply them as one equal-total advance.
        proc.advance_clock_to(
            reduce(add, repeat(fetch_overhead, n_maps), proc.clock))
        trace = executor.node.trace
        if trace.hb:
            for map_id in range(n_maps):
                trace.access(
                    proc, "read",
                    f"spark.shuffle{shuffle_id}[{map_id},{reduce_id}]")
        out = layout.fetch(reduce_id)
        # Fetches are batched per source node (as Netty/SEDA engines do):
        # one wire transfer per (reducer, source node) — at least a byte,
        # even when the node's buckets for this reducer are all empty —
        # so transfers stay bulk-sized and contend for the NICs
        # realistically.
        node_bytes = layout.node_bytes[reduce_id]
        for src_id, nbytes in zip(layout.nodes, node_bytes):
            nbytes = max(1, nbytes)
            if src_id == executor.node.id:
                # buckets are in the node's page cache: memory-speed copy,
                # no socket path involved
                yield from executor.node.stream_bytes_steps(
                    proc, nbytes, label="shuffle.local")
            else:
                yield from self.env.cluster.network.transmit_steps(
                    proc, fabric, src_id, executor.node.id, nbytes,
                    label=f"shuffle:{shuffle_id}->{reduce_id}",
                )
                # transport CPU path: JVM sockets vs RDMA zero-copy
                rate = (costs.spark_shuffle_socket_rate
                        if transport == "socket"
                        else costs.spark_shuffle_rdma_rate)
                proc.compute_bytes(nbytes, rate)
        # deserialise
        proc.compute_bytes(max(1, sum(node_bytes)), costs.ser_rate_jvm)
        return out
