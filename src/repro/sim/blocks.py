"""Columnar record blocks: the vectorized data plane (PR 6).

The simulator's data plane historically moved Python objects one at a
time: a text split became a ``list[bytes]``, a Spark partition a
``list[tuple]``, an MPI contribution vector a dense ``ndarray`` sliced
per destination rank.  Per-record Python overhead — not the scheduler —
dominated wall time, exactly the effect the surveyed papers report for
real Spark-on-HPC deployments (serialization and object churn).

This module introduces the block types that replace those hot lists with
numpy-backed columns, under one inviolable rule:

**The charge-replay rule.**  A block kernel may reorganize *host-side*
computation freely, but it must issue the exact same sequence of
virtual-time charges (same float values, same order, same owning
process) as the scalar path, and produce bitwise-identical record
values.  Anything observable in virtual time — event order, clock
values, fingerprints — is then unchanged by construction.

A block kernel runs only on input it can verify is eligible — exact
``(int, float)`` pairs, a text split whose every byte it has checked, a
plain ``HashPartitioner``, a unique-keyed join side — and every caller
keeps the scalar loop for everything else, so the scalar kernels are
production code, selected by the data.  The tests reach them the same
way: ``tests/test_blocks.py`` makes every input ineligible (it patches
:func:`pair_columns`, the one list→columns converter, and the line
pattern of :func:`parse_int_pairs`, the one text→columns converter) and
asserts byte-equal fingerprints and traces.

Block types
-----------
``RecordBlock``
    A split's worth of newline-delimited records backed by one ``bytes``
    buffer.  Slicing is zero-copy (offset views over the shared buffer);
    ``decode_all`` decodes the whole buffer in one C call instead of
    per-record.  Behaves as a ``Sequence[bytes]`` equal to the list of
    its lines.
``PairBlock``
    An ``int64`` key column beside an ``int64`` **or** ``float64`` value
    column: a parsed edge-list split (:func:`parse_int_pairs`) and the
    shuffle buckets / cached partitions it flows through carry ints,
    numeric aggregations carry floats.  Behaves as a ``Sequence`` of
    ``(int, int)`` or ``(int, float)`` tuples; slicing is zero-copy.  The
    float-only kernels (:func:`sum_by_key`, ``map_values`` twins, the
    right side of :func:`hash_join`) check the value dtype and leave an
    int-valued block to the scalar loop.  Its columns are never written
    after construction, so a block keeps the bucket cut
    :func:`partition_pairs` made of it.
``PairKeyBlock``
    ``distinct``'s shuffle records ``((k, v), None)`` over a
    :class:`PairBlock`'s two columns (:func:`as_pair_key_block`): merged
    first-occurrence-wins (:func:`first_occurrences`), bucketed by the
    hash of each ``(k, v)`` tuple (:func:`partition_pair_keys`) and sized
    in closed form, so ``keys()`` hands the distinct pairs on as a
    :class:`PairBlock`.  It never holds a NaN value.
``GroupBlock``
    The ``(k, [v, ...])`` groups of ``group_by_key`` as a key column, CSR
    offsets and one flat value column (:func:`group_pairs`, the same
    first-occurrence regroup :func:`hash_join` applies to its left side).
    Iterates with a fresh list per group, so it is sized and consumed as
    the scalar groups are.
``JoinedBlock`` / ``CoGroupBlock``
    The ``(k, (v, w))`` output of an inner join against a unique-keyed
    side as three columns, and the two-sided cogroup result that carries
    it (:func:`hash_join`).  Both iterate as
    exactly the scalar records.  A grouped left side makes the ``v``
    column ragged (a ``GroupBlock``); after ``values()`` the key column
    is dropped and the block iterates as the ``(v, w)`` records.
``ContribBlock``
    A sparse per-destination-rank PageRank contribution vector
    (indices + values + logical dense length).  Sized and summed as if
    it were the dense ``float64`` slice it replaces, so MPI eager /
    rendezvous protocol choices and combine charges are unchanged.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import repeat
from typing import Callable, Iterator
from zlib import crc32

import numpy as np

__all__ = [
    "RecordBlock",
    "PairBlock",
    "PairKeyBlock",
    "GroupBlock",
    "JoinedBlock",
    "CoGroupBlock",
    "ContribBlock",
    "sum_by_key",
    "as_pair_block",
    "as_pair_key_block",
    "first_occurrences",
    "pair_columns",
    "parse_int_pairs",
    "partition_pairs",
    "partition_pair_keys",
    "group_pairs",
    "hash_join",
]


# ---------------------------------------------------------------------------
# RecordBlock: newline-delimited byte records over one shared buffer
# ---------------------------------------------------------------------------


class RecordBlock(Sequence):
    """Records of a text split as one buffer plus lazy line offsets.

    Equal to (and substitutable for) the ``list[bytes]`` of lines a
    ``split(b"\n")`` of the buffer gives: no trailing newlines, trailing
    empty line dropped.  ``len`` is O(1) amortized (one ``bytes.count``);
    slicing returns a view sharing the buffer; full iteration materializes
    the line list once (a single C-level ``split``) and caches it.
    """

    __slots__ = ("_buf", "_starts", "_ends", "_lines")

    def __init__(self, buf: bytes,
                 _starts: np.ndarray | None = None,
                 _ends: np.ndarray | None = None) -> None:
        self._buf = buf
        self._starts = _starts
        self._ends = _ends
        self._lines: list[bytes] | None = None

    # -- construction -----------------------------------------------------

    @property
    def buffer(self) -> bytes:
        return self._buf

    def _offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Line [start, end) offsets into the buffer (computed lazily)."""
        if self._starts is None:
            buf = self._buf
            nl = np.flatnonzero(np.frombuffer(buf, dtype=np.uint8) == 0x0A)
            starts = np.empty(len(nl) + 1, dtype=np.int64)
            starts[0] = 0
            starts[1:] = nl + 1
            ends = np.empty_like(starts)
            ends[:-1] = nl
            ends[-1] = len(buf)
            if not buf or buf.endswith(b"\n"):
                starts = starts[:-1]
                ends = ends[:-1]
            self._starts, self._ends = starts, ends
        return self._starts, self._ends

    # -- Sequence protocol ------------------------------------------------

    def __len__(self) -> int:
        if self._lines is not None:
            return len(self._lines)
        if self._starts is not None:
            return len(self._starts)
        buf = self._buf
        n = buf.count(b"\n")
        if buf and not buf.endswith(b"\n"):
            n += 1
        return n

    def __getitem__(self, i):
        if isinstance(i, slice):
            starts, ends = self._offsets()
            view = RecordBlock(self._buf, starts[i], ends[i])
            if self._lines is not None:
                view._lines = self._lines[i]
            return view
        if self._lines is not None:
            return self._lines[i]
        starts, ends = self._offsets()
        # numpy wraps a negative index itself; only the range is ours to check
        if not -len(starts) <= i < len(starts):
            raise IndexError("RecordBlock index out of range")
        return self._buf[starts[i]:ends[i]]

    def _materialize(self) -> list[bytes]:
        if self._lines is None:
            if self._starts is None:
                lines = self._buf.split(b"\n")
                if lines and lines[-1] == b"":
                    lines.pop()
                self._lines = lines
            else:
                starts, ends = self._offsets()
                buf = self._buf
                self._lines = [buf[s:e] for s, e in
                               zip(starts.tolist(), ends.tolist())]
        return self._lines

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._materialize())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordBlock):
            return self._materialize() == other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RecordBlock({len(self)} records, {len(self._buf)} bytes)"

    # -- batch kernels ----------------------------------------------------

    def decode_all(self, encoding: str = "utf-8",
                   errors: str = "replace") -> list[str]:
        """Decode every record in one pass over the shared buffer.

        Bitwise-equal to ``[r.decode(encoding, errors) for r in self]``
        for utf-8: ``\\n`` is never part of a multibyte sequence and the
        decoder resets at it, so splitting before or after decoding
        yields the same strings.
        """
        if self._starts is not None:
            # Possibly a sliced view (its buffer is the parent's): decode
            # only the records the offsets cover.
            return [r.decode(encoding, errors) for r in self._materialize()]
        text = self._buf.decode(encoding, errors)
        out = text.split("\n")
        if out and out[-1] == "":
            out.pop()
        return out


# ---------------------------------------------------------------------------
# PairBlock: (int64 key, int64 | float64 value) columns for numeric pairs
# ---------------------------------------------------------------------------


class PairBlock(Sequence):
    """A Spark partition of ``(int key, int | float value)`` pairs, columnar.

    ``keys`` is ``int64``; ``values`` is ``int64`` (parsed edges) or
    ``float64`` (ranks, contributions).  Iteration and indexing yield
    plain Python ``(int, int)`` / ``(int, float)`` tuples so every scalar
    consumer (cogroup, collect, user lambdas) sees exactly what the
    list-of-tuples path produced.  Slicing returns a zero-copy column
    view.  The columns are never written after construction, which is
    what lets ``_buckets`` hold :func:`partition_pairs`' last answer.
    """

    __slots__ = ("keys", "values", "_buckets")

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        assert keys.dtype == np.int64
        assert values.dtype == np.int64 or values.dtype == np.float64
        self.keys = keys
        self.values = values
        #: ``(nparts, (records in bucket order, offsets))`` of the last
        #: :func:`partition_pairs` call
        self._buckets: "tuple[int, tuple[PairBlock, np.ndarray]] | None" = None

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PairBlock(self.keys[i], self.values[i])
        return (self.keys[i].item(), self.values[i].item())

    def __iter__(self):
        return iter(zip(self.keys.tolist(), self.values.tolist()))

    def to_pairs(self) -> "list[tuple[int, int | float]]":
        return list(zip(self.keys.tolist(), self.values.tolist()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairBlock):
            return (self.values.dtype == other.values.dtype
                    and np.array_equal(self.keys, other.keys)
                    and np.array_equal(self.values, other.values))
        if isinstance(other, list):
            return self.to_pairs() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PairBlock({len(self)} pairs)"


class PairKeyBlock(Sequence):
    """``distinct``'s shuffle records ``((k, v), None)``, columnar.

    The two columns of a :class:`PairBlock` (``int64`` keys beside
    ``int64`` or ``float64`` values), iterated and indexed as the records
    ``distinct``'s map side builds: each ``(k, v)`` pair is the key of a
    ``None`` value.  Every one descends from :func:`as_pair_key_block`,
    so no value is NaN.  Slicing is zero-copy.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        assert keys.dtype == np.int64
        assert values.dtype == np.int64 or values.dtype == np.float64
        self.keys = keys
        self.values = values

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PairKeyBlock(self.keys[i], self.values[i])
        return ((self.keys[i].item(), self.values[i].item()), None)

    def __iter__(self):
        return zip(zip(self.keys.tolist(), self.values.tolist()), repeat(None))

    def __repr__(self) -> str:
        return f"PairKeyBlock({len(self)} records)"


def as_pair_key_block(block) -> "PairKeyBlock | None":
    """``distinct``'s records over a pair block's columns, or ``None``.

    Defined on a :class:`PairBlock` with no NaN value.  A NaN is equal to
    nothing, itself included, so the scalar merge keeps every NaN row;
    such a partition, and anything that is not a pair block, stays on the
    scalar path.
    """
    if type(block) is not PairBlock or (
            block.values.dtype == np.float64
            and np.isnan(block.values).any()):
        return None
    return PairKeyBlock(block.keys, block.values)


def as_pair_block(records) -> "PairBlock | None":
    """Columnar view of a numeric pair partition, or ``None``.

    Converts a non-empty list of ``(int, float)`` pairs (the shape a
    declared ``vector="sum"`` aggregation asserts for its input) into a
    :class:`PairBlock`; returns ``None`` for anything else (an
    int-valued block included: the scalar sum of ints is an int) — see
    :func:`pair_columns` for the per-record check (mixed key types such
    as ``bool`` would serialize to different sizes, and a float64 detour
    would merge int keys past 2**53).
    """
    if isinstance(records, PairBlock):
        return records if records.values.dtype == np.float64 else None
    cols = pair_columns(records) if records else None
    if cols is None or cols[1].dtype != np.float64:
        return None
    return PairBlock(*cols)


def pair_columns(records) -> "tuple[np.ndarray, np.ndarray] | None":
    """``(int64 keys, values)`` columns of a pair partition, or ``None``.

    Trusts no declaration: *every* record must be an exact 2-tuple with
    an exact ``int`` key (``bool`` and numpy scalars are other types) and
    the values must be all exact ``int`` (``int64`` column) or all exact
    ``float`` (``float64``); an int outside ``int64`` is rejected too.
    The passes run in C (``map`` over ``type``/``len``), so the full
    check costs about what the conversion itself does.
    """
    if isinstance(records, PairBlock):
        return records.keys, records.values
    if type(records) is not list:
        return None
    if not records:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if set(map(type, records)) != {tuple} or set(map(len, records)) != {2}:
        return None
    ks = [r[0] for r in records]
    vs = [r[1] for r in records]
    vtypes = set(map(type, vs))
    if set(map(type, ks)) != {int} or vtypes not in ({int}, {float}):
        return None
    try:
        return (np.array(ks, dtype=np.int64),
                np.array(vs, dtype=np.int64 if vtypes == {int}
                         else np.float64))
    except OverflowError:
        return None


#: what :func:`parse_int_pairs` accepts: records of exactly two ASCII
#: decimal integers joined by one 0x20, newline-separated, the last newline
#: optional.  18 digits keep every value inside ``int64`` (the C parser
#: saturates silently beyond it); a bytes pattern's ``[0-9]`` is ASCII-only.
_INT_PAIR_LINES = re.compile(
    rb"(?:-?[0-9]{1,18} -?[0-9]{1,18}\n)*(?:-?[0-9]{1,18} -?[0-9]{1,18})?")


def parse_int_pairs(block: RecordBlock) -> "PairBlock | None":
    """Columnar twin of ``tuple(map(int, line.split()))`` over a text split.

    Trusts no declaration: one C-level pass proves every byte of the
    buffer fits :data:`_INT_PAIR_LINES`, and only then is the buffer
    parsed (also in C).  On such input ``int`` and the C parser agree
    digit for digit, so the block's records are exactly the tuples the
    scalar lambda yields.  Anything else — a sign ``+``, ``_``, a tab, a
    second space, ``\\r``, a non-ASCII digit, a third field, a value that
    might leave ``int64``, an empty line, an empty split — answers
    ``None`` and the scalar lambda runs.  So does a block whose offsets
    exist (it may be a sliced view: ``buffer`` is then the parent's).
    """
    if not isinstance(block, RecordBlock) or block._starts is not None:
        return None
    buf = block.buffer
    n = len(block)
    if n == 0 or _INT_PAIR_LINES.fullmatch(buf) is None:
        return None
    flat = np.fromstring(buf, dtype=np.int64, sep=" ")
    cols = flat.reshape(n, 2).T.copy()  # two contiguous columns
    return PairBlock(cols[0], cols[1])


def partition_pairs(block: PairBlock,
                    nparts: int) -> "tuple[PairBlock, np.ndarray]":
    """Hash-partition a PairBlock for ``nparts`` reducers, order-preserving.

    Returns the records in bucket order and the ``nparts + 1`` offsets
    where each bucket starts (see :func:`_cut`).  Replays the scalar loop
    exactly: bucket of an exact-int key under a ``HashPartitioner`` is
    ``(key & 0x7FFFFFFF) % nparts`` (the int64 bitwise AND agrees with
    Python's on two's-complement), and each bucket keeps its records in
    input order, as appending did.

    The block keeps the answer for its last ``nparts``: an iterative app
    re-shuffles the same cached block every iteration, and the cut of
    columns that are never written cannot go stale.  Callers must not
    write into the returned arrays.
    """
    memo = block._buckets
    if memo is not None and memo[0] == nparts:
        return memo[1]
    cut = _cut(block, (block.keys & 0x7FFFFFFF) % nparts, nparts)
    block._buckets = (nparts, cut)
    return cut


def partition_pair_keys(block: PairKeyBlock, nparts: int
                        ) -> "tuple[PairKeyBlock, np.ndarray]":
    """Hash-partition ``distinct``'s records by their ``(k, v)`` keys.

    Replays the scalar loop exactly: a tuple key under a
    ``HashPartitioner`` goes to ``stable_hash((k, v)) % nparts``, the
    ``crc32`` of the tuple's ``repr``.  The tuples are built from the
    Python ``int``/``float`` values ``tolist`` gives, the objects the
    scalar records hold (a numpy scalar's ``repr`` differs), and the
    hashing runs as C-level ``map`` chains.  Returns the records in
    bucket order and the bucket offsets, as :func:`_cut` does.
    """
    reprs = map(repr, zip(block.keys.tolist(), block.values.tolist()))
    hashes = np.fromiter(map(crc32, map(str.encode, reprs)),
                         dtype=np.int64, count=len(block))
    return _cut(block, hashes % nparts, nparts)


def _cut(block, bucket_ids: np.ndarray, nparts: int) -> tuple:
    """A map output the way Spark's sort shuffle writes one: ``block``'s
    records in bucket order, as one block of its own type, and the
    ``nparts + 1`` offsets where each bucket starts, so bucket ``r`` is
    records ``offsets[r]:offsets[r + 1]``.  The stable argsort keeps each
    bucket in record order, as appending did."""
    order = np.argsort(bucket_ids, kind="stable")
    offsets = np.zeros(nparts + 1, dtype=np.int64)
    np.cumsum(np.bincount(bucket_ids, minlength=nparts), out=offsets[1:])
    return type(block)(block.keys[order], block.values[order]), offsets


def first_occurrences(block: PairKeyBlock) -> PairKeyBlock:
    """Each distinct ``(k, v)`` row's first occurrence, in that order.

    The columnar twin of ``distinct``'s first-wins dict merge: the dict
    inserts keys in first-occurrence order and keeps the first key object
    it was given.  Rows compare as Python tuples do, so ``-0.0`` equals
    ``0.0`` and the first occurrence's bits survive.  The stable
    ``lexsort`` puts equal rows next to each other in record order; the
    first of each run is the row's first occurrence.
    """
    keys, values = block.keys, block.values
    order = np.lexsort((values, keys))
    sk, sv = keys[order], values[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (sk[1:] != sk[:-1]) | (sv[1:] != sv[:-1])
    first = np.sort(order[starts])
    return PairKeyBlock(keys[first], values[first])


def sum_by_key(keys: np.ndarray, values: np.ndarray) -> PairBlock:
    """Group-sum ``values`` by ``keys``, bit-identical to the dict loop.

    The scalar merge does ``out[k] = out[k] + v`` in record order, which
    for each key sums its values in first-to-last order and emits keys in
    first-occurrence order (dict insertion order).  We replay both:

    * ``np.add.at`` is the *unbuffered* scatter-add — it applies the
      additions strictly in index order, so per-key accumulation order
      matches the dict loop;
    * the first occurrence is **assigned** (not added to zero), so
      ``-0.0`` and NaN payloads survive bit-for-bit;
    * output slots are ordered by each key's first occurrence.
    """
    uniq, first_idx, inverse = np.unique(
        keys, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank_of = np.empty(len(uniq), dtype=np.int64)
    rank_of[order] = np.arange(len(uniq), dtype=np.int64)
    slots = rank_of[inverse]
    out_keys = uniq[order]
    out_vals = np.empty(len(uniq), dtype=np.float64)
    out_vals[rank_of] = values[first_idx]
    rest = np.ones(len(keys), dtype=bool)
    rest[first_idx] = False
    np.add.at(out_vals, slots[rest], values[rest])
    return PairBlock(out_keys, out_vals)


# ---------------------------------------------------------------------------
# Block hash-join: cogroup + inner join against a unique-keyed right side
# ---------------------------------------------------------------------------


class GroupBlock(Sequence):
    """``group_by_key`` output ``(k, [v, ...])`` as ragged (CSR) columns.

    ``keys`` is ``int64``, one per group, in first-occurrence order;
    group ``g``'s values are ``values[offsets[g]:offsets[g + 1]]``
    (``int64`` or ``float64``), and ``values`` is exactly the groups
    concatenated (``offsets[0] == 0``, ``offsets[-1] == len(values)``).
    Iteration and indexing yield ``(int, [v, ...])`` with a fresh Python
    list per group — what the scalar dict merge's ``list(out.items())``
    holds — so sampled sizing and every scalar consumer see no
    difference.  Any slice, a boolean mask or an index array selects
    groups and returns a compacted block.
    """

    __slots__ = ("keys", "offsets", "values")

    def __init__(self, keys: np.ndarray, offsets: np.ndarray,
                 values: np.ndarray) -> None:
        self.keys = keys
        self.offsets = offsets
        self.values = values

    def __len__(self) -> int:
        return len(self.keys)

    def lists(self) -> list[list]:
        """Every group's values, each as a fresh Python list."""
        flat = self.values.tolist()
        bounds = self.offsets.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            return self._take(i)
        n = len(self.keys)
        if not -n <= i < n:
            raise IndexError("GroupBlock index out of range")
        i %= n
        a, b = self.offsets[i], self.offsets[i + 1]
        return (self.keys[i].item(), self.values[a:b].tolist())

    def _take(self, i) -> "GroupBlock":
        offsets = self.offsets
        if isinstance(i, slice) and i.step in (None, 1):
            a, b, _ = i.indices(len(self.keys))
            sub = offsets[a:max(a, b) + 1]
            return GroupBlock(self.keys[a:max(a, b)], sub - sub[0],
                              self.values[sub[0]:sub[-1]])
        idx = np.arange(len(self.keys))[i]
        starts = offsets[idx]
        lengths = offsets[idx + 1] - starts
        out = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(lengths, out=out[1:])
        pos = np.repeat(starts - out[:-1], lengths) + np.arange(out[-1])
        return GroupBlock(self.keys[idx], out, self.values[pos])

    def __iter__(self):
        return iter(zip(self.keys.tolist(), self.lists()))

    def __repr__(self) -> str:
        return f"GroupBlock({len(self)} groups, {len(self.values)} values)"


def group_pairs(block: PairBlock) -> GroupBlock:
    """Columnar twin of ``group_by_key``'s dict merge over a pair block.

    The merge inserts keys in first-occurrence order and appends each
    key's values in record order: the stable first-occurrence regroup
    :func:`hash_join` applies to its left side, cut at the group
    boundaries.
    """
    uniq, _, slot, perm = _regroup(block.keys)
    offsets = np.zeros(len(uniq) + 1, dtype=np.int64)
    np.cumsum(np.bincount(slot, minlength=len(uniq)), out=offsets[1:])
    keys = block.keys[perm]
    return GroupBlock(keys[offsets[:-1]], offsets, block.values[perm])


class JoinedBlock(Sequence):
    """Inner-join output ``(k, (v, w))`` as three aligned columns.

    ``keys`` is ``int64``; ``left`` is the left side's value column —
    ``int64`` or ``float64``, or a :class:`GroupBlock` whose groups are
    the ``v`` lists when the left side was grouped — and ``right`` is
    ``float64``.  ``keys`` is ``None`` for the keyless ``(v, w)`` records
    ``values()`` leaves.  Iteration and indexing yield plain Python
    ``(int, (v, float))`` (or ``(v, float)``) tuples — exactly what the
    scalar ``_join_expand`` (and ``values()``) emit — so a consumer
    without a declared columnar twin sees no difference.
    """

    __slots__ = ("keys", "left", "right")

    def __init__(self, keys: "np.ndarray | None",
                 left: "np.ndarray | GroupBlock", right: np.ndarray) -> None:
        self.keys = keys
        self.left = left
        self.right = right

    def __len__(self) -> int:
        return len(self.right)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return JoinedBlock(None if self.keys is None else self.keys[i],
                               self.left[i], self.right[i])
        v = self.left[i]
        vw = (v[1] if type(self.left) is GroupBlock else v.item(),
              self.right[i].item())
        return vw if self.keys is None else (self.keys[i].item(), vw)

    def __iter__(self):
        left = self.left
        vws = zip(left.lists() if type(left) is GroupBlock else left.tolist(),
                  self.right.tolist())
        return vws if self.keys is None else zip(self.keys.tolist(), vws)

    def __repr__(self) -> str:
        return f"JoinedBlock({len(self)} records)"


class CoGroupBlock(Sequence):
    """A two-sided cogroup whose inner join is already computed.

    Stands in for the scalar ``[(k, (vs, ws)), ...]`` group list: ``len``
    is the number of groups (what the next operator is charged on),
    ``joined`` is the :class:`JoinedBlock` a ``join`` expands it to, and
    any other consumer gets the scalar group list, built on first use by
    ``rows`` (the scalar cogroup over the same two inputs).
    """

    __slots__ = ("joined", "n_groups", "_rows")

    def __init__(self, joined: JoinedBlock, n_groups: int,
                 rows: Callable[[], list]) -> None:
        self.joined = joined
        self.n_groups = n_groups
        self._rows: "Callable[[], list] | list" = rows

    def _materialize(self) -> list:
        if not isinstance(self._rows, list):
            self._rows = self._rows()
        return self._rows

    def __len__(self) -> int:
        return self.n_groups

    def __getitem__(self, i):
        return self._materialize()[i]

    def __iter__(self):
        return iter(self._materialize())

    def __repr__(self) -> str:
        return (f"CoGroupBlock({self.n_groups} groups, "
                f"{len(self.joined)} joined)")


def _regroup(keys: np.ndarray):
    """The stable first-occurrence regroup of a key column.

    Returns ``(uniq, inverse, slot, perm)``: the sorted distinct keys,
    each record's index into them, each record's group number (the rank
    of its key's first occurrence) and the stable permutation that lists
    the records group by group, each group in record order.
    """
    uniq, first_idx, inverse = np.unique(
        keys, return_index=True, return_inverse=True)
    rank_of = np.empty(len(uniq), dtype=np.int64)
    rank_of[np.argsort(first_idx, kind="stable")] = np.arange(
        len(uniq), dtype=np.int64)
    slot = rank_of[inverse]
    return uniq, inverse, slot, np.argsort(slot, kind="stable")


def hash_join(keys: np.ndarray, values: "np.ndarray | GroupBlock",
              right) -> "tuple[JoinedBlock, int] | None":
    """Inner-join a columnar left side against a unique-keyed right side.

    ``keys``/``values`` are the left side's columns; ``values`` may be a
    :class:`GroupBlock` keyed by ``keys`` (a grouped left side: each
    group is one ``v``).  ``right`` is a partition of ``(int, float)``
    pairs (a :class:`PairBlock` or a list, checked by
    :func:`pair_columns`).  Returns ``(joined, n_groups)`` —
    ``n_groups`` is ``|keys(L) ∪ keys(R)|``, the length of the cogroup's
    group list — or ``None`` when the right side is not such a partition
    or one of its keys repeats (then ``ws`` has several entries and the
    output is no longer a filter of the left side); the scalar loop
    handles those.  The right side is checked first, so refusing it
    costs no regroup of the left.

    The scalar cogroup inserts keys in first-occurrence order and appends
    each key's values in record order; ``_join_expand`` then walks the
    groups in that order.  With unique right keys every left record
    whose key is present pairs with exactly one ``w``, so the output is
    the left side stably sorted by the rank of each key's first
    occurrence, filtered by presence: the scalar order.  When no left key
    repeats (always, for a grouped side) that sort is the identity; a
    grouped left side stays grouped, its :class:`GroupBlock` filtered.
    """
    cols = pair_columns(right)
    if cols is None or cols[1].dtype != np.float64:
        return None
    rkeys, rvalues = cols
    nr = len(rkeys)
    order = np.argsort(rkeys, kind="stable")
    sorted_keys = rkeys[order]
    if not (sorted_keys[1:] != sorted_keys[:-1]).all():
        return None
    uniq, idx, _, perm = _regroup(keys)
    if len(uniq) < len(keys):
        keys, values, idx = keys[perm], values[perm], idx[perm]
    if nr == 0:  # nothing to probe: every left key is unmatched
        return JoinedBlock(keys[:0], values[:0], rvalues), len(uniq)
    pos = np.minimum(np.searchsorted(sorted_keys, uniq), nr - 1)
    found = sorted_keys[pos] == uniq
    n_common = int(np.count_nonzero(found))
    w_of_uniq = rvalues[order[pos]]  # meaningful where ``found``
    if n_common < len(uniq):  # drop left records whose key has no match
        keep = found[idx]
        keys, values, idx = keys[keep], values[keep], idx[keep]
    return (JoinedBlock(keys, values, w_of_uniq[idx]),
            len(uniq) + nr - n_common)


# ---------------------------------------------------------------------------
# ContribBlock: sparse PageRank contributions that charge like dense
# ---------------------------------------------------------------------------


class ContribBlock:
    """Sparse stand-in for a dense per-rank contribution slice.

    ``idx``/``vals`` hold the touched positions of a logical dense
    ``float64[length]`` vector whose untouched entries are exactly
    ``0.0``.  It reports the *dense* byte size, so nbytes-driven charges
    and the eager/rendezvous protocol choice match the dense path, while
    transport skips materializing (and copying) the zeros.

    Summation (``reduce_scatter_block``) densifies on the first add and
    then scatter-adds only touched positions.  The dense path would add
    an explicit ``0.0`` at every untouched position; skipping it is a
    bitwise no-op because ``x + 0.0 == x`` for every float ``x`` except
    ``-0.0`` (and quiet-NaN payloads).  Producers must therefore never
    emit ``-0.0`` or NaN values — PageRank contributions are strictly
    positive, and the differential CI job enforces the invariant
    end-to-end.
    """

    __slots__ = ("idx", "vals", "length")
    __array_ufunc__ = None  # keep numpy from broadcasting over us

    def __init__(self, idx: np.ndarray, vals: np.ndarray, length: int) -> None:
        self.idx = idx
        self.vals = vals
        self.length = length

    @property
    def nbytes(self) -> int:
        return 8 * self.length  # the dense float64 slice it stands in for

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.length, dtype=np.float64)
        out[self.idx] = self.vals
        return out

    def __add__(self, other):
        if isinstance(other, ContribBlock):
            acc = _Accum(self.to_dense())
            return acc + other
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, np.ndarray):
            out = other.copy()
            np.add.at(out, self.idx, self.vals)
            return out
        return NotImplemented

    def __repr__(self) -> str:
        return f"ContribBlock({len(self.idx)}/{self.length} touched)"


class _Accum:
    """Owned dense accumulator produced mid-reduction.

    ``ContribBlock + ContribBlock`` returns one of these; further
    ``_Accum + ContribBlock`` adds accumulate **in place** (the array is
    private to the reduction), avoiding a dense copy per reduction step.
    Sized like the array it wraps so the final combine charge matches.
    """

    __slots__ = ("array",)
    __array_ufunc__ = None

    def __init__(self, array: np.ndarray) -> None:
        self.array = array

    @property
    def nbytes(self) -> int:
        return self.array.nbytes

    def to_dense(self) -> np.ndarray:
        return self.array

    def __add__(self, other):
        if isinstance(other, ContribBlock):
            np.add.at(self.array, other.idx, other.vals)
            return self
        return NotImplemented
