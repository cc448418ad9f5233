"""Key partitioners and the deterministic hash they rely on.

Python's built-in ``hash`` for strings is randomised per interpreter run
(PYTHONHASHSEED), which would make simulations non-reproducible; all key
hashing here goes through :func:`stable_hash` instead.
"""

from __future__ import annotations

import zlib
from itertools import chain
from typing import Any

import numpy as np

from repro.errors import SparkError
from repro.sim.blocks import PairBlock, partition_pairs


def stable_hash(key: Any) -> int:
    """Deterministic 32-bit hash of a key (crc32 of its repr).

    Stable across runs and processes, unlike ``hash(str)``.  Integers hash
    to themselves (keeps small-int keys well spread under modulo).
    """
    if isinstance(key, int):  # a bool too: ``True & mask == int(True)``
        return key & 0x7FFFFFFF
    if isinstance(key, bytes):
        return zlib.crc32(key)
    return zlib.crc32(repr(key).encode())


def require_pair(record: Any) -> None:
    """Raise a keyed shuffle's one shape error unless ``record`` unpacks
    as ``(key, value)`` (on error paths: is it the record or user code?)."""
    try:
        _key, _value = record
    except (TypeError, ValueError):
        raise SparkError(
            f"keyed shuffle record is not a (key, value) pair: {record!r}"
        ) from None


def _concat(buckets: list[list]) -> tuple[list, np.ndarray]:
    """Bucket lists as one map output: their records in bucket order and
    the offsets where each bucket starts."""
    offsets = np.zeros(len(buckets) + 1, dtype=np.int64)
    np.cumsum(list(map(len, buckets)), out=offsets[1:])
    return list(chain.from_iterable(buckets)), offsets


class Partitioner:
    """Maps keys to partition ids in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise SparkError(f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def buckets(self, records) -> tuple:
        """``records`` cut by their keys (``record[0]``) into one bucket
        per partition, as a map output: the records in bucket order, each
        bucket in record order, and the ``num_partitions + 1`` offsets
        where each bucket starts."""
        part = self.partition
        out: list[list] = [[] for _ in range(self.num_partitions)]
        try:
            for rec in records:
                out[part(rec[0])].append(rec)
        except (TypeError, IndexError):
            require_pair(rec)
            raise
        return _concat(out)

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.num_partitions == other.num_partitions  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:  # allow use in sets/dicts
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Spark's default: ``stable_hash(key) % n``."""

    def partition(self, key: Any) -> int:
        return stable_hash(key) % self.num_partitions

    def buckets(self, records) -> tuple:
        """The generic cut with :func:`stable_hash` inlined for exact-int
        keys (the dominant shuffle path), and a ``PairBlock`` of pairs or
        of ``distinct``'s pair-keyed records cut columnar into the same
        buckets in the same order (see :mod:`repro.sim.blocks`)."""
        nparts = self.num_partitions
        if type(records) is PairBlock and (records.pairs or records.pair_keyed):
            return partition_pairs(records, nparts)
        out: list[list] = [[] for _ in range(nparts)]
        try:
            for rec in records:
                k = rec[0]
                if type(k) is int:
                    out[(k & 0x7FFFFFFF) % nparts].append(rec)
                else:
                    out[stable_hash(k) % nparts].append(rec)
        except (TypeError, IndexError):
            require_pair(rec)
            raise
        return _concat(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashPartitioner({self.num_partitions})"


class RangePartitioner(Partitioner):
    """Range partitioner over pre-computed bounds (used by ``sortBy``).

    ``bounds`` are the upper-exclusive split points: a key goes to the first
    partition whose bound exceeds it (last partition takes the rest).
    """

    def __init__(self, bounds: list, ascending: bool = True) -> None:
        super().__init__(len(bounds) + 1)
        self.bounds = list(bounds)
        self.ascending = ascending

    def partition(self, key: Any) -> int:
        import bisect

        idx = bisect.bisect_right(self.bounds, key)
        return idx if self.ascending else (self.num_partitions - 1 - idx)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RangePartitioner)
            and self.bounds == other.bounds
            and self.ascending == other.ascending
        )

    def __hash__(self) -> int:
        return hash(("range", tuple(self.bounds), self.ascending))
