"""RDDs: lazy, partitioned, lineage-tracked datasets (paper Section II-E).

Transformations return new RDDs and record their dependencies; nothing
computes until an action runs a job through the DAG scheduler.  As in real
Spark, every narrow transformation lowers onto :class:`MapPartitionsRDD`;
wide (shuffle) dependencies create :class:`ShuffledRDD`/:class:`JoinedRDD`
boundaries where the scheduler cuts stages.  The API is the operators the
paper's runs use: ``map``/``flat_map``/``map_values``, the keyed
``reduce_by_key``/``group_by_key``/``distinct``/``join``/``partition_by``
(all lowered onto :meth:`RDD.combine_by_key` or a join), ``persist``, and
the actions ``reduce``/``fold``/``aggregate``/``count``/``collect``/
``count_by_key``.

Cost model: every operator charges the JVM per-record iterator overhead; the
``cost`` keyword on transformations lets applications charge additional
modelled CPU per record (e.g. regex parsing), keeping benchmark code
explicit about where time goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.errors import SparkError
from repro.sim.blocks import (PairBlock, as_pair_key_block,
                              first_ranks, hash_join)
from repro.sim.process import Steps
from repro.spark.partitioner import HashPartitioner
from repro.spark.shuffle import _append, _as_list, merge_by_key
from repro.spark.storage import StorageLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spark.context import SparkContext
    from repro.spark.scheduler import TaskContext

#: sentinel distinguishing "key absent" from any stored value
_MISSING = object()


def _join_expand(groups: list) -> list:
    """Cross product per cogrouped key, in ``(v, w)`` nesting order.

    Keyed joins against a unique-keyed side (PageRank's ranks) have
    single-element ``ws`` almost always; lift that case out of the nested
    comprehension so the inner loop runs per edge, not per pair of loops.
    Output order matches the generic form: ``w`` varies fastest.
    """
    out: list = []
    extend = out.extend
    for k, (vs, ws) in groups:
        if len(ws) == 1:
            w = ws[0]
            extend([(k, (v, w)) for v in vs])
        else:
            extend([(k, (v, w)) for v in vs for w in ws])
    return out


def _values_twin(vector: Callable) -> Callable:
    """Lift ``map_values``' twin over a values array to a twin over blocks.

    Defined on a float-valued block of pairs only — a join's values are
    ``(v, w)`` pairs and a group's are lists, not one column, and
    ``vector`` is declared over ``float64`` — so anything else stays
    scalar.
    """
    def twin(block):
        if (type(block) is PairBlock and block.pairs
                and block.values.dtype == np.float64):
            return PairBlock(block.keys, vector(block.values))
        return None
    return twin


def _join_values(block):
    """``values()``' twin over a join's columns: the same block without
    its key column, which iterates as the ``(v, w)`` records."""
    if type(block) is PairBlock and block.joined and block.keys is not None:
        return PairBlock(None, block.values, offsets=block.offsets,
                         right=block.right)
    return None


def _pair_keys(block):
    """``keys()``' twin over ``distinct``'s records: the ``(k, v)`` keys
    of a pair-keyed block are the pair block of its two columns."""
    if type(block) is PairBlock and block.pair_keyed:
        return PairBlock(block.keys, block.values)
    return None


def _identity(v: Any) -> Any:
    return v


class Dependency:
    """Edge in the lineage graph."""

    def __init__(self, parent: "RDD") -> None:
        self.parent = parent


class NarrowDependency(Dependency):
    """Child partition ``i`` depends on parent partition ``i`` only."""


@dataclass(frozen=True)
class Aggregator:
    """How a keyed shuffle merges values (Spark's ``Aggregator``), with
    the ``vector`` semantics its functions declare (see
    :meth:`RDD.combine_by_key`)."""

    create: Callable
    merge_value: Callable
    merge_combiners: Callable
    vector: str | None = None


class ShuffleDependency(Dependency):
    """Child partitions depend on *all* parent partitions (a stage cut);
    with an ``aggregator`` the reduce side merges by key, and with
    ``map_side_combine`` the shuffle write merges first."""

    def __init__(self, parent: "RDD", partitioner: HashPartitioner,
                 aggregator: Aggregator | None = None,
                 map_side_combine: bool = False) -> None:
        super().__init__(parent)
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.map_side_combine = map_side_combine
        self.shuffle_id = parent.sc._next_shuffle_id()


class RDD:
    """Base class: lineage bookkeeping + the transformation/action API."""

    def __init__(self, sc: "SparkContext", deps: list[Dependency],
                 num_partitions: int) -> None:
        self.sc = sc
        self.deps = deps
        self._num_partitions = num_partitions
        self.id = sc._next_rdd_id()
        self.storage_level: StorageLevel | None = None
        #: set when the RDD's layout follows a known partitioner (enables
        #: narrow joins — the Fig 6 BigDataBench optimisation)
        self.partitioner: HashPartitioner | None = None

    # -- to be provided by concrete RDDs ------------------------------------------

    def compute(self, index: int, ctx: "TaskContext") -> Steps[list]:
        """Materialise partition ``index`` on an executor.

        Written as steps (a generator function, see
        ``SimProcess.run_steps``): it reads its inputs with the step forms
        of ``ctx`` (``iterator_steps``, ``shuffle_read_steps``) and calls
        user closures plainly, since a closure never waits.
        """
        raise NotImplementedError

    def preferred_nodes(self, index: int) -> list[int]:
        """Node ids where computing this partition is cheapest (locality)."""
        return []

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.id} parts={self.num_partitions}>"

    # -- persistence ------------------------------------------------------------------

    def persist(self, level: StorageLevel = StorageLevel.MEMORY_ONLY) -> "RDD":
        """Keep materialised partitions in executor storage (Fig 5's call)."""
        self.storage_level = level
        return self

    def cache(self) -> "RDD":
        """``persist(MEMORY_ONLY)``."""
        return self.persist(StorageLevel.MEMORY_ONLY)

    # -- narrow transformations ----------------------------------------------------------

    def map_partitions(self, f: Callable[[int, list], list], *,
                       preserves_partitioning: bool = False,
                       cost: float = 0.0,
                       vector: Callable | None = None) -> "RDD":
        """The primitive every narrow transformation lowers onto.

        ``vector`` is the declared columnar twin of ``f`` (see :meth:`map`
        and :meth:`map_values`).  It is offered every partition — a list,
        a block, a text split's raw block — and returns a block, or
        ``None`` wherever it is not defined, so it checks its input's
        type first.  ``f`` stays authoritative.
        """
        return MapPartitionsRDD(self, f, preserves_partitioning, cost, vector)

    def map(self, f: Callable[[Any], Any], *, cost: float = 0.0,
            vector: Callable | None = None) -> "RDD":
        """Apply ``f`` to every record.

        ``vector`` optionally supplies the columnar twin of ``f``.  It is
        offered every partition — a list, or a block
        (a :class:`~repro.sim.blocks.PairBlock` of pairs after a numeric
        shuffle or a columnar parse, of groups after a grouping, of joined
        records after a block join; a text split straight off
        ``text_file``, a :class:`~repro.sim.blocks.RecordBlock` whose
        ``buffer`` is the split's bytes) — and returns a block whose
        records the caller asserts are *bitwise* those of mapping ``f``,
        or ``None`` wherever it is not defined (a list, a record shape it
        does not know).
        Charges are identical, and the scalar ``f`` is authoritative
        wherever the twin answers ``None``.
        """
        return self.map_partitions(
            lambda _i, it: [f(x) for x in it], cost=cost, vector=vector)

    def flat_map(self, f: Callable[[Any], Iterable], *, cost: float = 0.0,
                 vector: Callable | None = None) -> "RDD":
        """Apply ``f`` and flatten the results.

        ``vector`` is the declared columnar twin of the flattening, with
        :meth:`map`'s contract: offered every partition, it returns a
        block whose records are *bitwise* the flattened ``f`` outputs, or
        ``None`` wherever it is not defined.
        """
        return self.map_partitions(
            lambda _i, it: [y for x in it for y in f(x)], cost=cost,
            vector=vector)

    def map_values(self, f: Callable[[Any], Any], *, cost: float = 0.0,
                   vector: Callable | None = None) -> "RDD":
        """Transform values of (k, v) pairs; *preserves partitioning*.

        ``vector`` optionally supplies the columnar twin of ``f``: a
        function over a ``float64`` values array that the caller asserts
        is *bitwise* elementwise-equal to mapping ``f`` (e.g. an affine
        update — numpy applies the same IEEE double ops).  It is used
        only when the partition arrives as a block of pairs
        (:class:`~repro.sim.blocks.PairBlock`); charges are identical, and
        the scalar ``f`` remains authoritative everywhere else.
        """
        return self.map_partitions(
            lambda _i, it: [(k, f(v)) for k, v in it],
            preserves_partitioning=True, cost=cost,
            vector=None if vector is None else _values_twin(vector))

    def keys(self) -> "RDD":
        """First elements of (k, v) pairs."""
        return self.map_partitions(lambda _i, it: [k for k, _ in it],
                                   vector=_pair_keys)

    def values(self) -> "RDD":
        """Second elements of (k, v) pairs."""
        return self.map_partitions(lambda _i, it: [v for _, v in it],
                                   vector=_join_values)

    # -- wide transformations ---------------------------------------------------------------

    def partition_by(self, num_partitions: int) -> "RDD":
        """Hash-partition (k, v) pairs into ``num_partitions`` — the
        explicit layout control the BigDataBench PageRank uses before
        persisting links."""
        partitioner = HashPartitioner(num_partitions)
        if self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner)

    def combine_by_key(self, create: Callable, merge_value: Callable,
                       merge_combiners: Callable,
                       num_partitions: int | None = None, *,
                       map_side_combine: bool = True,
                       vector: str | None = None) -> "RDD":
        """The general keyed aggregation (Spark's ``combineByKey``).

        ``vector`` declares what the functions compute, so that
        :func:`~repro.spark.shuffle.merge_by_key` may replay them with a
        columnar kernel: ``"sum"`` (``create`` is the identity and both
        merges are numeric addition), ``"group"`` (``group_by_key``'s list
        building) or ``"first"`` (both merges keep the first value, as
        ``distinct``'s do).  The scalar functions stay authoritative for
        every other record shape.
        """
        part = HashPartitioner(self.num_partitions if num_partitions is None
                               else num_partitions)
        return ShuffledRDD(
            self, part,
            Aggregator(create, merge_value, merge_combiners, vector),
            map_side_combine)

    def reduce_by_key(self, f: Callable[[Any, Any], Any],
                      num_partitions: int | None = None, *,
                      vector: str | None = None) -> "RDD":
        """Merge values per key with map-side combining."""
        return self.combine_by_key(_identity, f, f, num_partitions,
                                   vector=vector)

    def group_by_key(self, num_partitions: int | None = None) -> "RDD":
        """All values per key (no map-side combine — same caveat as Spark)."""
        return self.combine_by_key(
            _as_list,
            _append,
            lambda a, b: a + b,
            num_partitions,
            map_side_combine=False,
            vector="group",
        )

    def distinct(self, num_partitions: int | None = None) -> "RDD":
        """Deduplicate via a keyed shuffle.

        A partition that arrives as a NaN-free
        :class:`~repro.sim.blocks.PairBlock` stays columnar throughout:
        its ``((k, v), None)`` records are a pair-keyed ``PairBlock``,
        merged first-wins on both sides of the shuffle, and ``keys()``
        hands on a block of pairs.
        """
        return (
            self.map_partitions(lambda _i, it: [(x, None) for x in it],
                                vector=as_pair_key_block)
            .reduce_by_key(lambda a, _b: a, num_partitions, vector="first")
            .keys()
        )

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Inner join; a narrow operation when both sides share the target
        partitioner (the mechanism behind Fig 6's shuffle avoidance)."""
        return JoinedRDD(self, other, num_partitions)

    # -- actions ------------------------------------------------------------------------------

    def collect(self) -> list:
        """All records, in partition order, at the driver."""
        parts = self.sc._scheduler.run_job(self, lambda _i, it: list(it))
        return [x for p in parts for x in p]

    def count(self) -> int:
        """Number of records."""
        return sum(self.sc._scheduler.run_job(self, lambda _i, it: len(it)))

    def reduce(self, f: Callable[[Any, Any], Any]) -> Any:
        """Combine all records (the paper's reduce microbenchmark action)."""
        def per_partition(_i: int, it: list) -> Any:
            acc = _MISSING
            for x in it:
                acc = x if acc is _MISSING else f(acc, x)
            return acc

        parts = [p for p in self.sc._scheduler.run_job(self, per_partition)
                 if p is not _MISSING]
        if not parts:
            raise SparkError("reduce() of empty RDD")
        acc = parts[0]
        for x in parts[1:]:
            acc = f(acc, x)
        return acc

    def fold(self, zero: Any, f: Callable[[Any, Any], Any]) -> Any:
        """Like reduce with a zero element (applied per partition + driver)."""
        parts = self.sc._scheduler.run_job(
            self, lambda _i, it: _fold_list(zero, f, it))
        acc = zero
        for p in parts:
            acc = f(acc, p)
        return acc

    def aggregate(self, zero: Any, seq: Callable, comb: Callable) -> Any:
        """Generalised fold with distinct within/between partition ops."""
        parts = self.sc._scheduler.run_job(
            self, lambda _i, it: _fold_list(zero, seq, it))
        acc = zero
        for p in parts:
            acc = comb(acc, p)
        return acc

    def sum(self) -> Any:
        """Sum of records."""
        return self.fold(0, lambda a, b: a + b)

    def count_by_key(self) -> dict:
        """Counts per key, returned to the driver as a dict."""
        parts = self.sc._scheduler.run_job(self, _count_keys)
        out: dict = {}
        for p in parts:
            for k, c in p.items():
                out[k] = out.get(k, 0) + c
        return out


def _fold_list(zero: Any, f: Callable, it: list) -> Any:
    acc = zero
    for x in it:
        acc = f(acc, x)
    return acc


def _count_keys(_i: int, it: list) -> dict:
    if type(it) is PairBlock and it.pairs:
        # columnar twin of the loop below: Python-int keys in
        # first-occurrence order, Python-int counts
        uniq, _, slot = first_ranks(it.keys)
        return dict(zip(uniq.tolist(),
                        np.bincount(slot, minlength=len(uniq)).tolist()))
    out: dict = {}
    for k, _v in it:
        out[k] = out.get(k, 0) + 1
    return out


# ---------------------------------------------------------------------------
# concrete RDDs
# ---------------------------------------------------------------------------


class ParallelizeRDD(RDD):
    """Driver-local data sliced into partitions (``sc.parallelize``).

    The slices are shipped inside the task closures, so dispatching tasks
    charges the driver for serialising and sending the data — the cost the
    paper's Fig 3 discussion attributes to "the use of the driver program
    ... to ensure completion and success of data distribution".
    """

    def __init__(self, sc: "SparkContext", data: list, num_partitions: int) -> None:
        super().__init__(sc, [], num_partitions)
        self._slices: list[list] = [[] for _ in range(num_partitions)]
        n = len(data)
        for i in range(num_partitions):
            start = (i * n) // num_partitions
            end = ((i + 1) * n) // num_partitions
            self._slices[i] = list(data[start:end])

    def compute(self, index: int, ctx: "TaskContext") -> Steps[list]:
        yield from ()  # steps like every compute; the slice never waits
        ctx.charge_records(len(self._slices[index]))
        return list(self._slices[index])

    def closure_payload(self, index: int) -> list:
        """Data shipped with the task (sized by the scheduler)."""
        return self._slices[index]


class TextFileRDD(RDD):
    """Lines of a simulated file; partitions follow HDFS blocks (locality!)
    or an even byte split for local/NFS files."""

    def __init__(self, sc: "SparkContext", scheme: str, path: str,
                 min_partitions: int | None = None) -> None:
        fs = sc.cluster.filesystems.get(scheme)
        if fs is None:
            raise SparkError(f"no filesystem mounted for scheme {scheme!r}")
        self.fs = fs
        self.path = path
        size = fs.size(path)
        from repro.fs.hdfs import HDFS

        if isinstance(fs, HDFS):
            locs = fs.block_locations(path)
            # Hadoop's FileInputFormat: when minPartitions exceeds the block
            # count, blocks are subdivided (splits inherit block locality).
            pieces = 1
            if min_partitions and len(locs) < min_partitions:
                pieces = -(-min_partitions // len(locs))
            self._splits = []
            self._preferred = []
            for s, e, nodes in locs:
                step = max(1, -(-(e - s) // pieces))
                # an empty file is one zero-byte block: one empty split
                for off in range(s, max(e, s + 1), step):
                    self._splits.append((off, min(e, off + step)))
                    self._preferred.append(nodes)
        else:
            n = (sc.default_parallelism if min_partitions is None
                 else min_partitions)
            chunk = -(-size // n) if size else 1
            self._splits = [
                (i * chunk, min(size, (i + 1) * chunk))
                for i in range(n)
                if i * chunk < size or (size == 0 and i == 0)
            ]
            self._preferred = [[] for _ in self._splits]
        super().__init__(sc, [], max(1, len(self._splits)))

    def compute(self, index: int, ctx: "TaskContext") -> Steps[list]:
        from repro.fs.records import read_split_records

        start, end = self._splits[index]
        raw = yield from read_split_records(self.fs, ctx.proc, self.path,
                                            start, end)
        ctx.charge_records(len(raw))
        # decode cost is part of the JVM text-parsing rate; the lines are
        # decoded on first use, so a count or a columnar parse never is
        ctx.charge_bytes(max(1, end - start), ctx.costs.parse_rate_jvm)
        return raw

    def preferred_nodes(self, index: int) -> list[int]:
        return list(self._preferred[index])


class MapPartitionsRDD(RDD):
    """Narrow one-to-one transformation (every narrow operator lowers
    here)."""

    def __init__(self, parent: RDD, f: Callable[[int, list], list],
                 preserves_partitioning: bool, cost: float,
                 vector: Callable | None = None) -> None:
        super().__init__(parent.sc, [NarrowDependency(parent)],
                         parent.num_partitions)
        self.f = f
        self.cost_per_record = cost
        #: declared columnar twin of ``f`` (``map``, ``map_values``,
        #: ``flat_map``, ``values``)
        self.vector = vector
        if preserves_partitioning:
            self.partitioner = parent.partitioner

    def compute(self, index: int, ctx: "TaskContext") -> Steps[list]:
        records = yield from ctx.iterator_steps(self.deps[0].parent, index)
        # A declared twin is offered every partition and answers None
        # where it is not defined; the charge is the same either way.
        out = None if self.vector is None else self.vector(records)
        ctx.charge_records(len(records), extra=self.cost_per_record)
        return self.f(index, records) if out is None else out


class ShuffledRDD(RDD):
    """Post-shuffle dataset, optionally aggregating (reduceByKey et al.)."""

    def __init__(self, parent: RDD, partitioner: HashPartitioner,
                 aggregator: Aggregator | None = None,
                 map_side_combine: bool = False) -> None:
        dep = ShuffleDependency(parent, partitioner, aggregator,
                                map_side_combine)
        super().__init__(parent.sc, [dep], partitioner.num_partitions)
        self.partitioner = partitioner

    @property
    def shuffle_dep(self) -> ShuffleDependency:
        return self.deps[0]  # type: ignore[return-value]

    def compute(self, index: int, ctx: "TaskContext") -> Steps[list]:
        dep = self.shuffle_dep
        records = yield from ctx.shuffle_read_steps(
            dep.shuffle_id, index, dep.parent.num_partitions)
        agg = dep.aggregator
        if agg is None:
            return records
        # after a map-side combine the values arriving are combiners
        create, merge = ((_identity, agg.merge_combiners)
                         if dep.map_side_combine
                         else (agg.create, agg.merge_value))
        out = merge_by_key(records, create, merge, agg.vector)
        ctx.charge_records(len(records))
        return out


def _cogroup_pairs(left, right) -> dict:
    """Scalar two-sided cogroup: ``{k: (vs, ws)}`` with keys in
    first-occurrence order over ``left``, then ``right``.  The reference
    the block join replays."""
    groups: dict[Any, tuple[list, list]] = {}
    get = groups.get
    for side, records in enumerate((left, right)):
        for k, v in records:
            g = get(k)
            if g is None:
                g = groups[k] = ([], [])
            g[side].append(v)
    return groups


class JoinedRDD(RDD):
    """``join``: the two keyed parents grouped by key and expanded to
    ``(k, (v, w))``.

    For each parent: if it is already partitioned by the target partitioner,
    the dependency is **narrow** (read the co-located partition directly —
    no data moves); otherwise it is a shuffle.  This is exactly how Spark
    decides, and it is the mechanism the tuned PageRank exploits.

    A left side of exact numeric pairs or of groups (unique keys) against
    a unique-keyed right side joins as columns
    (:func:`~repro.sim.blocks.hash_join`, a joined ``PairBlock`` out); any
    other partition takes the scalar :func:`_cogroup_pairs` and
    :func:`_join_expand`.  Charged as the grouping and then its
    expansion: the records of both sides, then one per group.
    """

    def __init__(self, left: RDD, right: RDD,
                 num_partitions: int | None = None) -> None:
        partitioner = HashPartitioner(
            max(left.num_partitions, right.num_partitions)
            if num_partitions is None else num_partitions)
        deps: list[Dependency] = [
            NarrowDependency(p) if p.partitioner == partitioner
            else ShuffleDependency(p, partitioner) for p in (left, right)]
        super().__init__(left.sc, deps, partitioner.num_partitions)
        self.partitioner = partitioner

    def _sides(self, index: int, ctx: "TaskContext") -> Steps[list]:
        """Both parents' records for partition ``index``: a co-partitioned
        side read in place, the other fetched from its shuffle."""
        sides = []
        for dep in self.deps:
            if isinstance(dep, ShuffleDependency):
                side = yield from ctx.shuffle_read_steps(
                    dep.shuffle_id, index, dep.parent.num_partitions)
            else:
                side = yield from ctx.iterator_steps(dep.parent, index)
            sides.append(side)
        return sides

    def compute(self, index: int, ctx: "TaskContext") -> Steps[list]:
        left, right = yield from self._sides(index, ctx)
        joined = hash_join(left, right)
        if joined is None:
            groups = list(_cogroup_pairs(left, right).items())
            joined = _join_expand(groups), len(groups)
        out, n_groups = joined
        ctx.charge_records(len(left) + len(right))
        ctx.charge_records(n_groups)
        return out
