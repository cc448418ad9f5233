"""The hash partitioner and the deterministic hash it relies on.

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


class HashPartitioner:
    """Spark's default partitioner: key ``k`` goes to partition
    ``stable_hash(k) % num_partitions``."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise SparkError(f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        return stable_hash(key) % self.num_partitions

    def buckets(self, records) -> tuple:
        """``records`` cut by their keys into one bucket per partition, as
        a map output: the records in bucket order, each bucket in record
        order, and the ``num_partitions + 1`` offsets where each bucket
        starts.  :func:`stable_hash` is inlined for exact-int keys (the
        dominant shuffle path), and a ``PairBlock`` of pairs or of
        ``distinct``'s pair-keyed records is cut columnar into the same
        buckets in the same order (see :mod:`repro.sim.blocks`).  A record
        that does not unpack as ``(key, value)`` raises ``SparkError``."""
        nparts = self.num_partitions
        if type(records) is PairBlock and (records.pairs or records.pair_keyed):
            return partition_pairs(records, nparts)
        out: list[list] = [[] for _ in range(nparts)]
        try:
            for rec in records:
                k, _ = rec
                if type(k) is int:
                    out[(k & 0x7FFFFFFF) % nparts].append(rec)
                else:
                    out[stable_hash(k) % nparts].append(rec)
        except (TypeError, ValueError):
            require_pair(rec)
            raise
        return _concat(out)

    def __eq__(self, other: object) -> bool:
        return (type(other) is HashPartitioner
                and self.num_partitions == other.num_partitions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashPartitioner({self.num_partitions})"
