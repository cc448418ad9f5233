"""Columnar record blocks: the vectorized data plane.

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
unique-keyed join side — and every caller
keeps the scalar loop for everything else, so the scalar kernels are
production code, selected by the data.  The tests reach them the same
way: ``tests/test_blocks.py`` makes every input ineligible (it patches
:func:`pair_columns`, the one list→columns converter, and the line
pattern of :func:`parse_int_pairs`, the one text→columns converter) and
asserts byte-equal fingerprints and traces.

Block types
-----------
``RecordBlock``
    A text split: one ``bytes`` buffer, read as the ``Sequence[str]`` of
    its lines, decoded (utf-8, malformed bytes replaced) in one C call on
    first use.  Every split reader — Spark, Hadoop, MPI, OpenMP — reads
    lines through it.
``PairBlock``
    The one keyed block: an ``int64`` key column beside an ``int64`` or
    ``float64`` value column.  Optional columns shape record ``i``, built
    from the inside out:

    * ``v = values[i]``, or with CSR ``offsets`` the fresh list
      ``values[offsets[i]:offsets[i + 1]]`` (:func:`group_pairs`);
    * ``(v, right[i])`` with a ``float64`` ``right`` (:func:`hash_join`);
    * ``(keys[i], ·)`` unless ``keys`` is ``None`` (a join's ``values()``);
    * ``((k, v), None)`` when ``pair_keyed`` (``distinct``'s records,
      :func:`as_pair_key_block`; never a NaN value).

    A parsed split (:func:`parse_int_pairs`), a shuffle bucket, a cached
    partition, a grouping and a join all iterate as exactly the scalar
    records.  Kernels dispatch on the shape (``pairs``, ``groups``,
    ``joined``, ``pair_keyed``), never on a class; the float-only ones
    (:func:`sum_by_key`, ``map_values`` twins, :func:`hash_join`'s right
    side) also check the value dtype.
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
from typing import Iterator
from zlib import crc32

import numpy as np

__all__ = [
    "RecordBlock",
    "PairBlock",
    "ContribBlock",
    "sum_by_key",
    "as_pair_block",
    "as_pair_key_block",
    "first_occurrences",
    "first_ranks",
    "pair_columns",
    "parse_int_pairs",
    "partition_pairs",
    "group_pairs",
    "hash_join",
]


# ---------------------------------------------------------------------------
# RecordBlock: a text split's buffer, read as its decoded lines
# ---------------------------------------------------------------------------


class RecordBlock(Sequence):
    """A text split: its ``bytes`` buffer, read as the ``Sequence[str]``
    of its lines.

    The one rule for turning a split into lines: the buffer decodes as
    utf-8 with malformed bytes replaced (U+FFFD), splits at ``"\\n"``,
    and a trailing empty line is dropped.  ``len`` counts newlines and
    never decodes; indexing and iteration decode once, on first use, and
    keep the list.  A columnar kernel (:func:`parse_int_pairs`) reads
    ``buffer`` instead.
    """

    __slots__ = ("_buf", "_lines")

    def __init__(self, buf: bytes) -> None:
        self._buf = buf
        self._lines: list[str] | None = None

    @property
    def buffer(self) -> bytes:
        return self._buf

    def __len__(self) -> int:
        if self._lines is not None:
            return len(self._lines)
        buf = self._buf
        n = buf.count(b"\n")
        if buf and not buf.endswith(b"\n"):
            n += 1
        return n

    def __getitem__(self, i):
        return self.decode_all()[i]

    def __iter__(self) -> Iterator[str]:
        return iter(self.decode_all())

    def __repr__(self) -> str:
        return f"RecordBlock({len(self)} records, {len(self._buf)} bytes)"

    def decode_all(self) -> list[str]:
        """The split's lines, decoded in one pass over the buffer.

        Equal to decoding each ``split(b"\\n")`` record on its own:
        ``\\n`` is never part of a multibyte utf-8 sequence and the
        decoder resets at it, so splitting before or after decoding
        yields the same strings.
        """
        if self._lines is None:
            lines = self._buf.decode("utf-8", "replace").split("\n")
            if lines[-1] == "":
                lines.pop()
            self._lines = lines
        return self._lines


# ---------------------------------------------------------------------------
# PairBlock: an int64 key column beside value columns, for keyed records
# ---------------------------------------------------------------------------


class PairBlock(Sequence):
    """A Spark partition of keyed records, columnar (see the module
    docstring for the record shapes).

    Iteration and indexing yield plain Python objects, exactly what the
    list path held.  A step-1 slice is a zero-copy view; any other slice,
    a boolean mask or an index array compacts the block.  The columns are
    never written after construction, which is what lets ``_buckets``
    hold :func:`partition_pairs`' last answer.
    """

    __slots__ = ("keys", "values", "offsets", "right", "pair_keyed",
                 "_buckets")

    def __init__(self, keys: "np.ndarray | None", values: np.ndarray, *,
                 offsets: "np.ndarray | None" = None,
                 right: "np.ndarray | None" = None,
                 pair_keyed: bool = False) -> None:
        assert keys is None or keys.dtype == np.int64
        assert values.dtype == np.int64 or values.dtype == np.float64
        self.keys = keys
        self.values = values
        #: CSR group bounds: record ``i``'s value is the list
        #: ``values[offsets[i]:offsets[i + 1]]``
        self.offsets = offsets
        #: a join's ``w`` column, paired with each record's value
        self.right = right
        #: whether the records are ``distinct``'s ``((k, v), None)``
        self.pair_keyed = pair_keyed
        #: ``(nparts, (records in bucket order, offsets))`` of the last
        #: :func:`partition_pairs` call
        self._buckets: "tuple[int, tuple[PairBlock, np.ndarray]] | None" = None

    @property
    def pairs(self) -> bool:
        """Whether the records are ``(k, v)`` pairs of the two columns."""
        return (self.offsets is None and self.right is None
                and not self.pair_keyed and self.keys is not None)

    @property
    def groups(self) -> bool:
        """Whether the records are ``group_by_key``'s ``(k, [v, ...])``."""
        return (self.offsets is not None and self.right is None
                and self.keys is not None)

    @property
    def joined(self) -> bool:
        """Whether the records are a join's ``(k, (v, w))``, or its
        ``(v, w)`` once ``values()`` has dropped the keys."""
        return self.right is not None

    def __len__(self) -> int:
        offsets = self.offsets
        return len(self.values) if offsets is None else len(offsets) - 1

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            return self._take(i)
        n = len(self)
        if not -n <= i < n:
            raise IndexError("PairBlock index out of range")
        i %= n
        if self.offsets is None:
            rec = self.values[i].item()
        else:
            rec = self.values[self.offsets[i]:self.offsets[i + 1]].tolist()
        if self.right is not None:
            rec = (rec, self.right[i].item())
        if self.keys is not None:
            rec = (self.keys[i].item(), rec)
        return (rec, None) if self.pair_keyed else rec

    def _take(self, i) -> "PairBlock":
        """The records a slice, a boolean mask or an index array selects,
        as a block of the same shape."""
        values, offsets = self.values, self.offsets
        if offsets is None:
            values = values[i]
        elif isinstance(i, slice) and i.step in (None, 1):
            a, b, _ = i.indices(len(offsets) - 1)
            i = slice(a, max(a, b))
            sub = offsets[a:i.stop + 1]
            offsets, values = sub - sub[0], values[sub[0]:sub[-1]]
        else:  # gather the selected groups' values into fresh CSR columns
            i = np.arange(len(offsets) - 1)[i]
            starts = offsets[i]
            lengths = offsets[i + 1] - starts
            offsets = np.zeros(len(i) + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            values = values[np.repeat(starts - offsets[:-1], lengths)
                            + np.arange(offsets[-1])]
        return PairBlock(None if self.keys is None else self.keys[i], values,
                         offsets=offsets,
                         right=None if self.right is None else self.right[i],
                         pair_keyed=self.pair_keyed)

    def __iter__(self):
        recs = self.values.tolist()
        if self.offsets is not None:
            bounds = self.offsets.tolist()
            recs = [recs[a:b] for a, b in zip(bounds, bounds[1:])]
        if self.right is not None:
            recs = zip(recs, self.right.tolist())
        if self.keys is not None:
            recs = zip(self.keys.tolist(), recs)
        if self.pair_keyed:
            recs = zip(recs, repeat(None))
        return iter(recs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairBlock):
            # equal numbers of another type are another partition
            return (self.values.dtype == other.values.dtype
                    and list(self) == list(other))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PairBlock({len(self)} records)"


def as_pair_key_block(block) -> "PairBlock | None":
    """``distinct``'s records over a pair block's columns, or ``None``.

    Defined on a block of ``(k, v)`` pairs with no NaN value.  A NaN is
    equal to nothing, itself included, so the scalar merge keeps every NaN
    row; such a partition, and anything that is not a pair block, stays on
    the scalar path.
    """
    if type(block) is not PairBlock or not block.pairs or (
            block.values.dtype == np.float64
            and np.isnan(block.values).any()):
        return None
    return PairBlock(block.keys, block.values, pair_keyed=True)


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
    if type(records) is PairBlock:
        return (records if records.pairs
                and records.values.dtype == np.float64 else None)
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
    if type(records) is PairBlock:
        return (records.keys, records.values) if records.pairs else None
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
    ``None`` and the scalar lambda runs.
    """
    if not isinstance(block, RecordBlock):
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
    """Hash-partition a block of pairs for ``nparts`` reducers, as
    Spark's sort shuffle writes a map output: the records in bucket
    order, as one block of the same kind, and the ``nparts + 1`` offsets
    where each bucket starts (bucket ``r`` is ``offsets[r]:offsets[r+1]``).

    Replays the ``HashPartitioner`` loop exactly.  An exact-int key goes
    to ``(key & 0x7FFFFFFF) % nparts`` (the int64 AND agrees with
    Python's on two's-complement); a ``pair_keyed`` block's ``(k, v)`` to
    the ``crc32`` of its ``repr``, built from the ``int``/``float`` objects
    ``tolist`` gives, as the scalar records hold (a numpy scalar's
    ``repr`` differs).  The stable argsort keeps each bucket in record
    order, as appending did.

    The block keeps the answer for its last ``nparts``: an iterative app
    re-shuffles the same cached block every iteration, and the cut of
    columns that are never written cannot go stale.  Callers must not
    write into the returned arrays.
    """
    memo = block._buckets
    if memo is not None and memo[0] == nparts:
        return memo[1]
    if block.pair_keyed:
        reprs = map(repr, zip(block.keys.tolist(), block.values.tolist()))
        bucket_ids = np.fromiter(map(crc32, map(str.encode, reprs)),
                                 dtype=np.int64, count=len(block)) % nparts
    else:
        bucket_ids = (block.keys & 0x7FFFFFFF) % nparts
    offsets = np.zeros(nparts + 1, dtype=np.int64)
    np.cumsum(np.bincount(bucket_ids, minlength=nparts), out=offsets[1:])
    cut = block[np.argsort(bucket_ids, kind="stable")], offsets
    block._buckets = (nparts, cut)
    return cut


def first_occurrences(block: PairBlock) -> PairBlock:
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
    return block[np.sort(order[starts])]


def first_ranks(keys: np.ndarray):
    """The first-occurrence ranking a dict merge inserts keys in.

    Returns ``(uniq, firsts, slot)``: the distinct keys in
    first-occurrence order, the index of each one's first occurrence, and
    each record's group number (the rank of its key in ``uniq``).
    """
    uniq, first_idx, inverse = np.unique(
        keys, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank_of = np.empty(len(uniq), dtype=np.int64)
    rank_of[order] = np.arange(len(uniq), dtype=np.int64)
    return uniq[order], first_idx[order], rank_of[inverse]


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
    uniq, firsts, slots = first_ranks(keys)
    out_vals = values[firsts].astype(np.float64, copy=False)
    rest = np.ones(len(keys), dtype=bool)
    rest[firsts] = False
    np.add.at(out_vals, slots[rest], values[rest])
    return PairBlock(uniq, out_vals)


# ---------------------------------------------------------------------------
# grouping and the block hash-join against a unique-keyed right side
# ---------------------------------------------------------------------------


def group_pairs(block: PairBlock) -> PairBlock:
    """Columnar twin of ``group_by_key``'s dict merge over a pair block.

    The merge inserts keys in first-occurrence order and appends each
    key's values in record order: the stable first-occurrence regroup
    :func:`hash_join` applies to its left side, cut at the group
    boundaries.
    """
    uniq, _, slot = first_ranks(block.keys)
    offsets = np.zeros(len(uniq) + 1, dtype=np.int64)
    np.cumsum(np.bincount(slot, minlength=len(uniq)), out=offsets[1:])
    return PairBlock(uniq, block.values[np.argsort(slot, kind="stable")],
                     offsets=offsets)


def hash_join(left, right) -> "tuple[PairBlock, int] | None":
    """Inner-join a columnar left side against a unique-keyed right side.

    ``left`` is a partition of exact numeric pairs (a list or a block,
    checked by :func:`pair_columns`) or a block of groups (unique keys:
    each group is one ``v``); ``right`` is a partition of ``(int,
    float)`` pairs.  Returns ``(joined, n_groups)`` — ``joined`` is the
    left side with the matched ``w`` as its ``right`` column, and
    ``n_groups`` is ``|keys(L) ∪ keys(R)|``, the length of the cogroup's
    group list — or ``None`` when either side is not such a partition or
    a right key repeats (then ``ws`` has several entries and the output
    is no longer a filter of the left side); the scalar loop handles
    those.  The right side is checked first, so refusing it costs no
    regroup of the left.

    The scalar cogroup inserts keys in first-occurrence order and appends
    each key's values in record order; ``_join_expand`` then walks the
    groups in that order.  With unique right keys every left record
    whose key is present pairs with exactly one ``w``, so the output is
    the left side stably sorted by the rank of each key's first
    occurrence, filtered by presence: the scalar order.  When no left key
    repeats (always, for a grouped side) that sort is the identity; a
    grouped left side stays grouped, its groups filtered.
    """
    cols = pair_columns(right)
    if cols is None or cols[1].dtype != np.float64:
        return None
    if not (type(left) is PairBlock and left.groups):
        lcols = pair_columns(left)
        if lcols is None:
            return None
        left = PairBlock(*lcols)
    rkeys, rvalues = cols
    nr = len(rkeys)
    order = np.argsort(rkeys, kind="stable")
    sorted_keys = rkeys[order]
    if not (sorted_keys[1:] != sorted_keys[:-1]).all():
        return None
    uniq, _, slot = first_ranks(left.keys)
    if len(uniq) < len(left):
        perm = np.argsort(slot, kind="stable")
        left, slot = left[perm], slot[perm]
    n_common, w = 0, rvalues
    if nr == 0:  # nothing to probe: every left key is unmatched
        left = left[:0]
    else:
        pos = np.minimum(np.searchsorted(sorted_keys, uniq), nr - 1)
        found = sorted_keys[pos] == uniq
        n_common = int(np.count_nonzero(found))
        if n_common < len(uniq):  # drop left records whose key has no match
            keep = found[slot]
            left, slot = left[keep], slot[keep]
        w = rvalues[order[pos]][slot]  # each key's ``w`` where ``found``
    return (PairBlock(left.keys, left.values, offsets=left.offsets, right=w),
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
