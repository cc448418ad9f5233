"""The columnar data plane: block kernels, and the net that holds them
to the scalar loops.

* Kernel tests pin each kernel in :mod:`repro.sim.blocks` to the exact
  scalar semantics it replays where a corner needs a name: ``-0.0`` and
  NaN bits, hostile edge-list lines, int64 ends, repeated join keys, and
  each twin's and kernel's domain (:class:`TestShapeRefusals`).
* :class:`TestGeneratedKeyedPrograms` is the one generated net of the
  columnar ≡ scalar contract (DESIGN.md §6): generated keyed programs,
  a text source with one malformed line and a persisted PageRank loop
  give the same records, app time and trace with and without
  :func:`ineligible_inputs`, which reaches the scalar loops the way
  production does, by input the block kernels cannot take.
* The differentials kept beside it run what the net does not:
  ``distinct`` over pair-block partitions in every example, and the
  miniature Fig 4/6/7 and traced app runs (MPI's sparse contributions,
  the apps' parse of HDFS splits, BigDataBench's grouped loop).
"""

from __future__ import annotations

import hashlib
import importlib
import math
import operator
import re
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.pagerank import spark_hibench as hibench
from repro.apps.pagerank.spark_bigdatabench import _contrib, _contrib_block
from repro.core import figures
from repro.fs.content import BytesContent
from repro.platform import Dataset, ScenarioSpec, fingerprint_result
import repro.sim.blocks as blocks
from repro.sim.blocks import (
    ContribBlock,
    PairBlock,
    RecordBlock,
    as_pair_block,
    as_pair_key_block,
    first_occurrences,
    group_pairs,
    hash_join,
    pair_columns,
    parse_int_pairs,
    partition_pairs,
    sum_by_key,
)
from repro.spark.rdd import (_append, _cogroup_pairs, _count_keys,
                             _identity, _join_expand, _join_values,
                             _pair_keys, _values_twin)
from repro.spark.partitioner import HashPartitioner
from repro.spark.shuffle import (_block_kind, bucket_sizes, estimate_nbytes,
                                 merge_by_key)
from repro.workloads.graphs import GraphSpec
from repro.workloads.stackexchange import StackExchangeSpec

# ---------------------------------------------------------------------------
# RecordBlock
# ---------------------------------------------------------------------------


@contextmanager
def ineligible_inputs():
    """Make every input ineligible for the Spark block kernels.

    ``pair_columns`` is the one list→columns converter and
    ``parse_int_pairs`` the one text→columns converter: with the first
    answering ``None`` and the second's line pattern matching nothing, the
    parse, the bucketing and combining writes, the reduce-side merge,
    the join and every declared twin run their scalar loops — exactly
    as they do in production for a malformed line or for records that are
    not exact numeric pairs.  The patch proves itself: a ``with`` body
    that constructs a :class:`PairBlock` of any shape fails.
    """
    built: Counter[str] = Counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.sim.blocks.pair_columns", lambda records: None)
        # whoever imported the kernel: no split fits a pattern nothing fits
        patch.setattr("repro.sim.blocks._INT_PAIR_LINES", re.compile(rb"(?!)"))
        assert as_pair_block([(1, 2.0)]) is None
        assert parse_int_pairs(RecordBlock(b"1 2\n")) is None

        def recording_init(self, *args, _init=PairBlock.__init__, **kwargs):
            built[repr(sorted(kwargs))] += 1
            _init(self, *args, **kwargs)

        patch.setattr(PairBlock, "__init__", recording_init)
        yield
    assert not built, f"blocks built from ineligible inputs: {dict(built)}"


def scalar_lines(buf: bytes) -> list[str]:
    """The reference record list for a split buffer: split at newlines,
    then decode each record on its own."""
    lines = buf.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    return [r.decode("utf-8", "replace") for r in lines]


class TestRecordBlock:
    # the last: a malformed byte, a multibyte character, a truncated one
    BUFS = [b"", b"a", b"a\n", b"a\nbb\nccc", b"a\nbb\nccc\n", b"\n\nx\n",
            b"a\xff\n\xc3\xa9\n\xc3\n"]

    @pytest.mark.parametrize("buf", BUFS)
    def test_equals_scalar_split(self, buf):
        assert list(RecordBlock(buf)) == scalar_lines(buf)

    @pytest.mark.parametrize("buf", BUFS)
    def test_len_with_and_without_offsets(self, buf):
        block = RecordBlock(buf)
        n = len(block)  # counts newlines, nothing decoded yet
        assert n == len(scalar_lines(buf))
        list(block)  # decode
        assert len(block) == n

    def test_indexing_and_slicing(self):
        buf = b"a\nbb\nccc\ndddd\n"
        block = RecordBlock(buf)
        ref = scalar_lines(buf)
        assert block[0] == "a" and block[-1] == "dddd"
        assert block[-4] == ref[-4] == "a"
        assert block[1:3] == ref[1:3] == ["bb", "ccc"]
        assert block[::2] == ref[::2]
        assert block.buffer is buf
        # out of range raises as the list does
        for i in (-5, 4, -9):
            with pytest.raises(IndexError):
                ref[i]
            with pytest.raises(IndexError):
                block[i]
        assert list(block) == ref
        with pytest.raises(IndexError):
            RecordBlock(b"a\nb\nc\n")[-5]

    @pytest.mark.parametrize("buf", BUFS)
    def test_decode_all_matches_per_record(self, buf):
        assert RecordBlock(buf).decode_all() == scalar_lines(buf)

    def test_multibyte_utf8_survives_batch_decode(self):
        buf = "héllo\nwörld\n".encode()
        assert RecordBlock(buf).decode_all() == ["héllo", "wörld"]


# ---------------------------------------------------------------------------
# parse_int_pairs: the verified columnar parse of an edge-list split
# ---------------------------------------------------------------------------


def scalar_parse(block: RecordBlock) -> list:
    """What the apps' parse lambda yields for the split."""
    return [tuple(map(int, line.split())) for line in block.decode_all()]


#: lines the kernel must refuse — whether the scalar parse reads them as a
#: pair ("+5 3", "1  2", "1 2\r", "１ ２"), as something else ("1 2 3", "7",
#: "") or not at all ("1_0 2" parses, "1.5 2" raises)
_HOSTILE = ["+5 3", "1_0 2", "1\t2", "1  2", "1 2\r", "１ ２", "1 2 3", "7",
            "", " 1 2", "1 2 ", "9223372036854775808 1",
            "1 -9223372036854775809", "0x1 2", "1.5 2", "- 1", "1 -"]
_INTS = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-50, 50))
_EDGE_LINES = st.builds("{} {}".format, _INTS, _INTS)


class TestParseIntPairs:
    @given(lines=st.lists(_EDGE_LINES, min_size=1, max_size=30),
           hostile=st.lists(st.tuples(st.integers(0, 30),
                                      st.sampled_from(_HOSTILE)), max_size=2),
           trailing_newline=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_none_or_exactly_the_scalar_tuples(self, lines, hostile,
                                               trailing_newline):
        for at, line in hostile:
            lines.insert(min(at, len(lines)), line)
        buf = "\n".join(lines).encode() + (b"\n" if trailing_newline else b"")
        block = RecordBlock(buf)
        got = parse_int_pairs(block)
        if got is None:
            return
        want = scalar_parse(RecordBlock(buf))  # hostile lines may raise here
        assert got.keys.dtype == got.values.dtype == np.int64
        assert _bits(got) == _bits(want)
        assert len(got) == len(block)

    @given(lines=st.lists(st.builds("{} {}".format,
                                    st.integers(-10**18 + 1, 10**18 - 1),
                                    st.integers(-10**18 + 1, 10**18 - 1)),
                          min_size=1, max_size=30),
           trailing_newline=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_well_formed_lines_take_the_block_path(self, lines,
                                                   trailing_newline):
        buf = "\n".join(lines).encode() + (b"\n" if trailing_newline else b"")
        got = parse_int_pairs(RecordBlock(buf))
        assert got is not None
        assert _bits(got) == _bits(scalar_parse(RecordBlock(buf)))

    @pytest.mark.parametrize("line", _HOSTILE)
    def test_each_hostile_line_is_refused(self, line):
        buf = ("3 4\n" + line + "\n5 6\n").encode()
        assert parse_int_pairs(RecordBlock(buf)) is None

    def test_leading_zeros_and_negative_zero_parse_as_int_does(self):
        block = parse_int_pairs(RecordBlock(b"007 -0\n-12 000\n"))
        assert _bits(block) == _bits([(7, 0), (-12, 0)])

    def test_refuses_a_sliced_view_and_other_inputs(self):
        assert parse_int_pairs(RecordBlock(b"")) is None
        assert parse_int_pairs(RecordBlock(b"\n")) is None
        assert parse_int_pairs(["1 2"]) is None
        assert parse_int_pairs(RecordBlock(b"1 2\n3 4\n5 6\n")) == \
            [(1, 2), (3, 4), (5, 6)]


# ---------------------------------------------------------------------------
# PairBlock + kernels
# ---------------------------------------------------------------------------


#: every record shape a :class:`PairBlock` takes, as ``(pairs, right) ->
#: (block, the scalar records it stands for)``: the pairs themselves,
#: ``distinct``'s pair-keyed records, ``group_by_key``'s groups, and the
#: join against ``right`` with or without keys over a flat or a grouped
#: left side
SHAPES = {
    "pairs": lambda pairs, right: (PairBlock(*pair_columns(pairs)), pairs),
    "pair_keyed": lambda pairs, right: (
        as_pair_key_block(PairBlock(*pair_columns(_nan_free(pairs)))),
        [(kv, None) for kv in _nan_free(pairs)]),
    "groups": lambda pairs, right: (_grouped(pairs), scalar_groups(pairs)),
    "joined": lambda pairs, right: (
        hash_join(pairs, right)[0],
        _join_expand(list(_cogroup_pairs(pairs, right).items()))),
    "joined_groups": lambda pairs, right: (
        hash_join(_grouped(pairs), right)[0],
        _join_expand(list(_cogroup_pairs(scalar_groups(pairs),
                                         right).items()))),
    "joined_values": lambda pairs, right: _keyless(
        *SHAPES["joined"](pairs, right)),
    "joined_groups_values": lambda pairs, right: _keyless(
        *SHAPES["joined_groups"](pairs, right)),
}


def _nan_free(pairs) -> list:
    return [(k, v) for k, v in pairs if v == v]


def _keyless(joined, records) -> tuple:
    """``values()`` of a joined block and of its scalar records."""
    return _join_values(joined), [vw for _, vw in records]


class TestPairBlock:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("dtype", ["int", "float"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reads_as_the_scalar_records(self, shape, dtype, data):
        values = (st.integers(-2**63, 2**63 - 1) if dtype == "int"
                  else _FLOATS)
        pairs = data.draw(_int_pair_lists(values=values))
        block, want = SHAPES[shape](pairs, data.draw(_unique_rights()))
        n = len(want)
        assert type(block) is PairBlock and len(block) == n
        assert _bits(block) == _bits(want)
        assert _bits(block[i] for i in range(-n, n)) == _bits(want + want)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                block[i]
        for s in (slice(None, None, 2), slice(1, None, 3), slice(-3, None),
                  slice(None, None, -1), slice(3, 1), slice(1, -1),
                  slice(-2, 1, -1)):
            assert _bits(block[s]) == _bits(want[s])
        assert block[1:].values.base is not None  # a step-1 slice is a view
        mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        assert _bits(block[np.array(mask, dtype=bool)]) == _bits(
            [r for r, m in zip(want, mask) if m])
        picks = data.draw(st.lists(st.integers(-n, n - 1), max_size=8)
                          if n else st.just([]))
        assert _bits(block[np.array(picks, dtype=np.int64)]) == _bits(
            [want[j] for j in picks])
        assert estimate_nbytes(block) == estimate_nbytes(want)

    def test_roundtrip_and_scalar_types(self):
        pairs = [(3, 1.5), (-1, 2.0), (3, 0.25)]
        block = PairBlock(*pair_columns(pairs))
        assert list(block) == pairs
        assert block == pairs
        k, v = block[1]
        assert type(k) is int and type(v) is float
        assert all(type(k) is int and type(v) is float for k, v in block)

    def test_int_values_stay_ints(self):
        pairs = [(3, 7), (-1, 2**62), (3, -5)]
        block = PairBlock(*pair_columns(pairs))
        assert block.values.dtype == np.int64
        assert _bits(block) == _bits(pairs)
        assert _bits(block[i] for i in range(3)) == _bits(pairs)
        assert _bits(block[1:]) == _bits(pairs[1:])
        # equal numbers of another type are another partition
        assert block != PairBlock(block.keys, block.values.astype(np.float64))

    def test_slice_is_zero_copy_view(self):
        block = PairBlock(*pair_columns([(i, float(i)) for i in range(6)]))
        view = block[2:5]
        assert isinstance(view, PairBlock)
        assert view.keys.base is not None  # numpy view, not a copy
        assert list(view) == [(2, 2.0), (3, 3.0), (4, 4.0)]


class TestAsPairBlock:
    def test_accepts_int_float_pairs(self):
        block = as_pair_block([(1, 2.0), (2, 3.5)])
        assert isinstance(block, PairBlock)
        assert list(block) == [(1, 2.0), (2, 3.5)]

    def test_passthrough_for_existing_block(self):
        block = PairBlock(*pair_columns([(1, 1.0)]))
        assert as_pair_block(block) is block

    def test_int_valued_block_is_not_a_sum_input(self):
        # sum_by_key allocates float64: ints must take the scalar combine
        assert as_pair_block(PairBlock(*pair_columns([(1, 1)]))) is None

    def test_large_int_keys_stay_exact(self):
        # a float64 detour would silently round 2**53 + 1 onto 2**53,
        # merging two keys the scalar dict keeps distinct
        block = as_pair_block([(2 ** 53, 1.0), (2 ** 53 + 1, 2.0)])
        assert block.keys.tolist() == [2 ** 53, 2 ** 53 + 1]

    @pytest.mark.parametrize("records", [
        [],                         # empty: nothing to vectorize
        [(True, 1.0)],              # bool key serializes differently
        [(1, 1)],                   # int payload, not float
        [(1.0, 1.0)],               # float key
        [(1, 2.0, 3.0)],            # wrong arity
        ["ab"],                     # not tuples at all
        [(1, 1.0), (2.5, 1.0), (2, 1.0)],  # non-integral key mid-list
        [(1, 1.0), (2 ** 64, 1.0)],  # key overflows int64
        [(1, 1.0), "xy"],           # mixed shapes
        (1, 2.0),                   # not a list
    ])
    def test_rejects_non_pair_shapes(self, records):
        assert as_pair_block(records) is None


def _buckets(records, offsets) -> list:
    """A map output (records in bucket order, offsets) as its buckets."""
    bounds = offsets.tolist()
    return [records[a:b] for a, b in zip(bounds, bounds[1:])]


class TestPartitionPairs:
    def test_matches_scalar_hash_partitioning(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(-10**6, 10**6, size=500).tolist()
        pairs = [(int(k), float(i)) for i, k in enumerate(keys)]
        nparts = 7
        buckets = [[] for _ in range(nparts)]
        for k, v in pairs:  # the scalar writer's append loop
            buckets[(k & 0x7FFFFFFF) % nparts].append((k, v))
        out = _buckets(*partition_pairs(PairBlock(*pair_columns(pairs)),
                                        nparts))
        assert len(out) == nparts
        for got, want in zip(out, buckets):
            assert list(got) == want

    def test_a_block_keeps_its_buckets_per_width(self):
        keys = np.arange(-40, 60, 3, dtype=np.int64)
        block = PairBlock(keys, keys * 0.5)

        def cut(block, nparts):
            return _buckets(*partition_pairs(block, nparts))

        def fresh(nparts):
            return cut(PairBlock(keys.copy(), keys * 0.5), nparts)

        out = partition_pairs(block, 4)
        assert partition_pairs(block, 4) is out
        # another width is cut afresh, from the same columns
        assert cut(block, 3) == fresh(3)
        assert cut(block, 4) == fresh(4)
        # a slice is a new block with no buckets of its own yet
        assert cut(block[1:], 4) == cut(
            PairBlock(keys[1:].copy(), keys[1:] * 0.5), 4)


#: ``distinct``'s inputs: few keys (duplicate-heavy) plus keys near
#: +-2**62 and the int64 ends; values with both zeros and ``int64`` ends
_DKEYS = st.one_of(st.integers(0, 4), st.sampled_from(
    [2**62 - 1, 2**62, -2**62, -2**62 - 1, 2**63 - 1, -2**63]))
_DFLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, math.inf]),
                     st.floats(allow_nan=False))
_DINTS = st.one_of(st.integers(0, 3), st.integers(-2**63, 2**63 - 1))


@st.composite
def _distinct_partition(draw):
    """One partition of ``(int, int)`` or ``(int, float)`` pairs; a float
    partition sometimes holds a NaN."""
    values = draw(st.sampled_from([_DFLOATS, _DINTS]))
    pairs = draw(st.lists(st.tuples(_DKEYS, values), max_size=30))
    if values is _DFLOATS and pairs and draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(pairs) - 1))
        # a fresh NaN object, as a block's records materialise: tuple
        # equality matches one NaN *object* to itself, so a shared
        # ``math.nan`` would give the list input an identity the block
        # input cannot carry
        pairs[at] = (pairs[at][0], float("nan"))
    return pairs


class TestPairKeyBlock:
    @pytest.mark.parametrize("records", [
        PairBlock(np.array([1, 2]), np.array([0.5, math.nan])),  # a NaN
        [(1, 0.5)],                                              # a list
        PairBlock(np.array([1]), np.array([2]), offsets=np.array([0, 1])),
    ])
    def test_defined_on_nan_free_pair_blocks_only(self, records):
        assert as_pair_key_block(records) is None

    def test_the_first_zero_survives(self):
        pairs = [(1, -0.0), (2, 0.0), (1, 0.0), (2, -0.0), (1, -0.0)]
        got = first_occurrences(
            as_pair_key_block(PairBlock(*pair_columns(pairs))))
        assert [(k, v.hex()) for (k, v), _ in got] == [
            (1, "-0x0.0p+0"), (2, "0x0.0p+0")]


class TestSumByKey:
    @staticmethod
    def dict_merge(pairs):
        out: dict[int, float] = {}
        for k, v in pairs:  # the scalar combiner
            out[k] = out[k] + v if k in out else v
        return list(out.items())

    def test_matches_dict_merge(self):
        rng = np.random.default_rng(11)
        pairs = [(int(k), float(v)) for k, v in
                 zip(rng.integers(0, 40, size=300),
                     rng.standard_normal(300))]
        block = PairBlock(*pair_columns(pairs))
        got = sum_by_key(block.keys, block.values)
        want = self.dict_merge(pairs)
        # first-occurrence key order and bit-exact sums
        assert got.keys.tolist() == [k for k, _ in want]
        assert got.values.tobytes() == \
            np.array([v for _, v in want], dtype=np.float64).tobytes()

    def test_negative_zero_and_nan_survive(self):
        pairs = [(5, -0.0), (3, math.nan), (7, 1.0)]
        block = PairBlock(*pair_columns(pairs))
        got = sum_by_key(block.keys, block.values)
        assert got.keys.tolist() == [5, 3, 7]
        assert math.copysign(1.0, got.values[0]) == -1.0  # -0.0 assigned
        assert math.isnan(got.values[1])

    def test_accumulation_order_is_record_order(self):
        # 0.1 + 0.2 + 0.3 != 0.1 + (0.2 + 0.3) in float64: the kernel must
        # add left-to-right like the dict loop, not in any other order
        pairs = [(1, 0.1), (1, 0.2), (1, 0.3)]
        block = PairBlock(*pair_columns(pairs))
        got = sum_by_key(block.keys, block.values)
        assert got.values[0].hex() == ((0.1 + 0.2) + 0.3).hex()


# ---------------------------------------------------------------------------
# block hash-join vs the scalar cogroup + _join_expand
# ---------------------------------------------------------------------------

#: few distinct keys (so duplicates and misses on either side are common),
#: including ones a float64 detour would merge
_KEYS = st.sampled_from([0, 1, 2, 3, 5, 8, -7, 2**53, 2**53 + 1, 2**62])
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


def _left_lists():
    def of(values):
        return st.lists(st.tuples(_KEYS, values), max_size=40)
    return st.one_of(of(st.integers(-2**63, 2**63 - 1)), of(_FLOATS))


def _unique_rights():
    return st.lists(st.tuples(_KEYS, _FLOATS), max_size=12,
                    unique_by=lambda kv: kv[0])


def _bits(records):
    """Records with every float spelled out, so ``-0.0`` and NaN compare."""
    def bits(x):
        if type(x) in (tuple, list):
            return tuple(bits(y) for y in x)
        return x.hex() if type(x) is float else (type(x).__name__, x)
    return [bits(r) for r in records]


class TestHashJoin:
    # Kept beside the net, whose joins all meet one fixed right side: these
    # draw the right side too (empty, so ``hash_join``'s ``nr == 0``
    # branch, and missing keys) against left keys repeated around 2**53.
    @given(left=_left_lists(), right=_unique_rights(),
           right_as_block=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_cogroup_and_expand(self, left, right,
                                               right_as_block):
        groups = list(_cogroup_pairs(left, right).items())
        want = _join_expand(groups)
        rside = PairBlock(*pair_columns(right)) if right_as_block else right
        got = hash_join(left, rside)
        assert got is not None
        joined, n_groups = got
        # the three numbers the charges are made of, then every record
        assert n_groups == len(groups)
        assert len(joined) == len(want)
        assert _bits(joined) == _bits(want)
        assert _bits(joined[i] for i in range(len(joined))) == _bits(want)
        assert _bits(joined[1:]) == _bits(want[1:])

    @pytest.mark.parametrize("right", [
        [(1, 1.0), (2, 2.0), (1, 3.0)],   # a right key repeats
        [(1, 1.0), (True, 2.0)],          # bool key
        [(1.0, 1.0)],                     # float key
        [(1, 1)],                         # int payload on the right
        [(1, 1.0, 2.0)],                  # not a 2-tuple
        [(1, 1.0), [2, 2.0]],             # a list record
        ((1, 1.0),),                      # not a list
    ])
    def test_other_right_sides_take_the_scalar_path(self, right, monkeypatch):
        # refused before the left side is regrouped
        def no_regroup(keys):
            raise AssertionError("regrouped the left side")

        monkeypatch.setattr("repro.sim.blocks.first_ranks", no_regroup)
        assert hash_join([(1, 10), (2, 20), (1, 11)], right) is None

    @pytest.mark.parametrize("left", [
        [(True, 1)],                      # bool key
        [(1.0, 1)],                       # float key
        [(1, 1), (2, 2.0)],               # mixed value types
        [(1, "a")],                       # non-numeric value
        [(1, 2, 3)],                      # not a 2-tuple
        [(2**63, 1)],                     # key beyond int64
        [(1, 2**63)],                     # value beyond int64
        [(1, np.float64(1.0))],           # numpy scalar, not float
    ])
    def test_other_left_sides_are_not_columnar(self, left):
        assert pair_columns(left) is None


# ---------------------------------------------------------------------------
# grouping kernel, ragged join and the BigDataBench contribution twin
# ---------------------------------------------------------------------------


def scalar_groups(pairs) -> list:
    """``group_by_key``'s reduce-side dict merge, as ``ShuffledRDD`` runs it."""
    out: dict = {}
    for k, v in pairs:
        prev = out.get(k)
        out[k] = [v] if prev is None else _append(prev, v)
    return list(out.items())


@st.composite
def _int_pair_lists(draw, values=None):
    """Exact int-keyed pairs over a few keys — negative ones, ones beyond
    2**53, often a single key, often none — with all-int64 or all-float
    values."""
    pool = draw(st.lists(st.one_of(_KEYS, st.integers(-2**63, 2**63 - 1)),
                         min_size=1, max_size=6))
    if values is None:
        values = draw(st.sampled_from([st.integers(-2**63, 2**63 - 1),
                                       _FLOATS]))
    return draw(st.lists(st.tuples(st.sampled_from(pool), values),
                         max_size=40))


def _grouped(pairs) -> PairBlock:
    return group_pairs(PairBlock(*pair_columns(pairs)))


def count_group_blocks(monkeypatch) -> list:
    """A list that grows by one per block with group offsets built from
    now on."""
    built: list = []
    init = PairBlock.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("offsets") is not None:
            built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PairBlock, "__init__", counting_init)
    return built


class TestGroupPairs:
    @pytest.mark.parametrize("n_keys", [0, 1, 19, 21, 500, 4321])
    def test_sampled_size_equals_the_lists(self, n_keys):
        # past 20 groups estimate_nbytes samples records[::step][:20]
        rng = np.random.default_rng(n_keys)
        keys = rng.integers(-2**62, 2**62, size=n_keys)
        picks = rng.integers(0, max(n_keys, 1), size=3 * n_keys)
        pairs = [(int(keys[j]), int(v)) for j, v in
                 zip(picks, rng.integers(-9, 9, size=3 * n_keys))]
        want = scalar_groups(pairs)
        got = _grouped(pairs)
        assert estimate_nbytes(got) == estimate_nbytes(want)
        step = max(1, n_keys // 20)
        assert _bits(got[::step][:20]) == _bits(want[::step][:20])

    def test_groups_are_fresh_lists_and_selections_compact(self):
        pairs = [(5, 1), (-2, 2), (5, 3), (2**53 + 1, 4), (-2, 5)]
        got = _grouped(pairs)
        assert list(got) == [(5, [1, 3]), (-2, [2, 5]), (2**53 + 1, [4])]
        first = list(got)
        first[0][1].append(99)
        got[0][1].append(99)
        assert list(got) == scalar_groups(pairs)
        picked = got[np.array([2, 0])]
        assert list(picked) == [(2**53 + 1, [4]), (5, [1, 3])]
        assert picked.offsets.tolist() == [0, 1, 3]
        assert list(got[np.array([False, True, True])]) == list(got)[1:]
        assert got.values.dtype == np.int64
        assert _grouped([(1, 0.5), (1, -0.0)]).values.dtype == np.float64
        assert list(_grouped([])) == []


class TestRaggedJoin:
    def test_a_grouped_side_prepares_as_itself(self):
        # unique keys: the regroup is the identity, and with every key
        # matched nothing is filtered either
        grouped = _grouped([(3, 1), (-1, 2), (3, 4)])
        joined, _ = hash_join(grouped, [(-1, 0.5), (3, 1.5)])
        assert joined.keys is grouped.keys
        assert joined.offsets is grouped.offsets
        assert joined.values is grouped.values

    def test_values_twin_is_defined_on_keyed_joins_only(self):
        assert _join_values(PairBlock(*pair_columns([(1, 1.0)]))) is None
        joined, _ = hash_join([(1, 2)], [(1, 0.5)])
        keyless = _join_values(joined)
        assert list(keyless) == [(2, 0.5)]
        assert _join_values(keyless) is None


class TestContribTwin:
    @given(pairs=_int_pair_lists(values=st.integers(-2**63, 2**63 - 1)),
           right=_unique_rights())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_the_flat_map(self, pairs, right):
        # int64 columns even when empty (pair_columns types [] as floats)
        grouped = group_pairs(PairBlock(
            *(np.array([r[i] for r in pairs], dtype=np.int64)
              for i in (0, 1))))
        joined, _ = hash_join(grouped, right)
        values = _join_values(joined)
        want = [y for x in values for y in _contrib(x)]
        got = _contrib_block(values)
        assert type(got) is PairBlock and got.values.dtype == np.float64
        assert _bits(got) == _bits(want)  # floats compared by float.hex

    def test_undefined_blocks_stay_scalar(self):
        joined, _ = hash_join([(1, 2)], [(1, 0.5)])
        assert _contrib_block(_join_values(joined)) is None  # not grouped
        floats = _grouped([(1, 2.5)])
        joined, _ = hash_join(floats, [(1, 0.5)])
        assert _contrib_block(joined) is None                # keyed
        assert _contrib_block(_join_values(joined)) is None  # float urls
        empty = PairBlock(np.array([1]), np.empty(0, dtype=np.int64),
                          offsets=np.array([0, 0]))
        joined, _ = hash_join(empty, [(1, 0.5)])
        with pytest.raises(ZeroDivisionError):
            [y for x in _join_values(joined) for y in _contrib(x)]
        assert _contrib_block(_join_values(joined)) is None


class TestHiBenchContribTwin:
    def test_bitwise_the_scalar_division(self):
        # rank / d and rank * (1 / d) differ on about a third of random
        # ranks at these degrees (never at a power of two)
        rng = np.random.default_rng(5)
        deg = {src: (3, 5, 6, 7)[src % 4] for src in range(400)}
        links = [(src, int(dst)) for src, d in deg.items()
                 for dst in rng.integers(0, 400, size=d)]
        ranks = [(src, float(r)) for src, r in
                 zip(deg, rng.uniform(0.15, 3.0, size=len(deg)))]
        deg_col = np.array([deg[src] for src in range(400)], dtype=np.int64)
        joined, _ = hash_join(links, ranks)
        # HiBench's scalar ``contrib`` closure, record by record
        want = [(dst, rank / deg[src]) for src, (dst, rank) in joined]
        got = hibench._contrib_block(joined, deg_col)
        assert type(got) is PairBlock and got.values.dtype == np.float64
        assert _bits(got) == _bits(want)


class TestTextPipeline:
    """A text split through the RDD API."""

    def test_count_of_a_text_file_decodes_nothing(self, monkeypatch):
        def no_decode(self, *args):
            raise AssertionError("count() decoded the split")

        monkeypatch.setattr(RecordBlock, "decode_all", no_decode)
        session = ScenarioSpec(
            nodes=1, procs_per_node=2,
            datasets=(Dataset("pairs.txt", BytesContent(b"a b\nc d\ne f\n"),
                              on=("local",)),),
        ).session()
        n = session.spark(app_startup=0.1).run(
            lambda sc: sc.text_file("local://pairs.txt", 2).count()).value
        assert n == 3


def run_traced(app, scale: int, datasets=()):
    """``app(sc)`` on a traced two-node session: its result records (as
    :func:`_bits`), the app time and the trace digest."""
    session = ScenarioSpec(nodes=2, procs_per_node=2, hb=True,
                           datasets=datasets).session()
    res = session.spark(app_startup=0.1, record_scale=scale).run(app)
    digest = hashlib.sha256()
    for ev in session.trace.events:
        digest.update(f"{ev.time.hex()}|{ev.proc}|{ev.kind}|"
                      f"{sorted(ev.detail.items())!r}\n".encode())
    return _bits(res.value), res.app_elapsed.hex(), digest.hexdigest()


def run_keyed_program(parts, program, scale: int):
    """``program(sc, rdd)`` over an RDD whose partitions are ``parts``, by
    :func:`run_traced`.  A partition is a pair block where
    ``pair_columns`` takes it (so a list under :func:`ineligible_inputs`),
    else the list itself."""
    def partition(i, _it):
        cols = blocks.pair_columns(parts[i])
        return list(parts[i]) if cols is None else PairBlock(*cols)

    return run_traced(lambda sc: program(sc, sc.parallelize(
        list(range(len(parts))), len(parts)).map_partitions(partition)),
        scale)


class TestDistinctOverPairBlocks:
    """``distinct`` over pair-block partitions: the columnar shuffle
    (pair-keyed blocks both sides, a block of pairs out) against the scalar
    one, by records, app time and trace."""

    @staticmethod
    def run(parts, nparts: int, scale: int):
        return run_keyed_program(
            parts, lambda _sc, rdd: rdd.distinct(nparts).collect(), scale)

    # Kept beside the net, which puts ``distinct`` on pair blocks only in
    # the programs that draw it; here every example does.
    @given(parts=st.lists(_distinct_partition(), min_size=1, max_size=5),
           nparts=st.integers(1, 5), scale=st.sampled_from([1, 3]))
    @settings(max_examples=40, deadline=None)
    def test_columnar_equals_scalar(self, parts, nparts, scale):
        with ineligible_inputs():
            scalar = self.run(parts, nparts, scale)
        assert self.run(parts, nparts, scale) == scalar

    def test_only_nan_partitions_stay_scalar(self, monkeypatch):
        import repro.spark.shuffle as shuffle

        merged = []

        def counting(block):
            merged.append(len(block))
            return first_occurrences(block)

        monkeypatch.setattr(shuffle, "first_occurrences", counting)
        parts = [[(1, -0.0), (1, 0.0), (2, 1.0)], [(1, math.nan), (1, 0.0)],
                 [], [(1, 0.0), (3, 2.0)]]
        with ineligible_inputs():
            scalar = self.run(parts, 2, 1)
        assert not merged
        assert self.run(parts, 2, 1) == scalar
        # the NaN partition's combine ran the dict loop; the empty one and
        # the two others the kernel.  Every record hashes to reduce
        # partition 1, whose input holds the NaN partition's list, so the
        # reduce side merges with the dict loop
        assert sorted(merged) == [0, 2, 3]
        # the first zero's bits survive the map side, and the NaN row
        assert (("int", 1), "-0x0.0p+0") in scalar[0]
        assert (("int", 1), "nan") in scalar[0]


#: generated keyed programs' keys: a few small ones, so that keys repeat
#: and merge, and ones at and past 2**53 (a float64 detour would merge
#: them) and past int64 (no column holds them)
_PKEYS = st.one_of(st.integers(-2, 5), st.sampled_from(
    [2**53, 2**53 + 1, 2**62, -2**63, 2**64]))
#: the float and str keys a quarter of the partitions mix in: no column
#: takes them, and ``1.0`` merges with ``1``
_PXKEYS = st.sampled_from([1.0, -0.0, 0.5, math.inf, "a", "b", ""])
_PINTS = st.one_of(st.integers(-3, 3), st.sampled_from([2**62, -2**63, 2**63]))
_PFLOATS = st.one_of(st.sampled_from(
    [0.0, -0.0, 1.5, math.inf, -math.inf, math.nan]), st.floats())


@st.composite
def _keyed_partition(draw):
    """One partition of ``(int, int)`` or ``(int, float)`` pairs, or of
    both mixed, and now and then with float and str keys; a quarter of
    the time :func:`_distinct_partition`'s, in which a key repeats with
    different values out of sorted order (what ``distinct``'s columnar
    merge must keep apart, in first-occurrence order).  Every float
    value is a fresh object, as a block's records materialise (see
    :func:`_distinct_partition` on NaN identity)."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_distinct_partition())
    keys = draw(st.sampled_from([_PKEYS] * 3 + [_PKEYS | _PXKEYS]))
    values = draw(st.sampled_from([_PINTS, _PFLOATS, _PINTS | _PFLOATS]))
    pairs = draw(st.lists(st.tuples(keys, values), max_size=12))
    return [(k, np.float64(v).item() if type(v) is float else v)
            for k, v in pairs]


def _num(v):
    """A group's values summed, any other value as it is."""
    return sum(v) if type(v) is list else v


#: the right side every generated ``join`` meets: unique keys
_RIGHT = [(k, k / 4) for k in (-2, 0, 1, 3, 5, 2**53)]


def _first_value(kv):
    """A record with its value, or its group's first value."""
    k, v = kv
    return k, v[0] if type(v) is list else v


def _first_values(block):
    """``map(_first_value)``'s twin: a block of pairs as it is and a block
    of groups' first values; ``None`` on anything else."""
    if type(block) is not PairBlock:
        return None
    if block.groups:
        return PairBlock(block.keys, block.values[block.offsets[:-1]])
    return block if block.pairs else None


#: name -> the keyed op ``(sc, rdd, nparts) -> rdd``
KEYED_OPS = {
    "reduce_by_key": lambda sc, rdd, n: rdd.reduce_by_key(operator.add, n),
    "reduce_by_key(sum)": lambda sc, rdd, n: rdd.reduce_by_key(
        operator.add, n, vector="sum"),
    "group_by_key": lambda sc, rdd, n: rdd.group_by_key(n),
    "distinct": lambda sc, rdd, n: rdd.distinct(n),
    "join": lambda sc, rdd, n: rdd.join(sc.parallelize(_RIGHT, 2), n)
    .map_values(lambda vw: _num(vw[0]) * vw[1]),
    # key 1 repeats on the right: the scalar join
    "join(repeated key)": lambda sc, rdd, n: rdd.join(
        sc.parallelize(_RIGHT + [(1, 0.75)], 2), n)
    .map_values(lambda vw: _num(vw[0]) * vw[1]),
    "join.values": lambda sc, rdd, n: rdd.join(sc.parallelize(_RIGHT, 2), n)
    .values().map(lambda vw: (_num(vw[0]), vw[1])),
    "keys": lambda sc, rdd, n: rdd.keys().map(lambda k: (k, 1)),
    "map(twin)": lambda sc, rdd, n: rdd.map(_first_value,
                                            vector=_first_values),
    "map_values": lambda sc, rdd, n: rdd.map_values(
        lambda v: v * 0.5, vector=lambda a: a * 0.5),
    # an int64 column would wrap where the int does not: the twin is
    # declared over floats, so an int-valued block must stay scalar
    "map_values(2**62)": lambda sc, rdd, n: rdd.map_values(
        lambda v: v * 2**62, vector=lambda a: a * 2**62),
    "count_by_key": lambda sc, rdd, n: sc.parallelize(
        list(rdd.count_by_key().items()), n),
    "persist": lambda sc, rdd, n: (rdd.persist(), rdd.count())[0],
    # the unaggregated shuffle, at a count no other op uses (so never a
    # no-op): after a grouping its map outputs are list-valued records
    "partition_by": lambda sc, rdd, n: rdd.partition_by(n + 1),
}

#: the ops that keep a group's list values as they are
_KEEP_GROUPS = {"persist", "partition_by"}
#: the ops that take a group's list values as they are
_TAKE_GROUPS = {"join", "join(repeated key)", "join.values", "keys",
                "map(twin)", "count_by_key"} | _KEEP_GROUPS


#: edge-list fields the text twin parses: small keys that repeat, and ones
#: at and past 2**53 within its 18 digits
_TEXT_INTS = st.one_of(st.integers(-2, 5), st.sampled_from(
    [2**53, 2**53 + 1, -10**17]))


class _Degrees:
    """Out-degrees indexed by an int64 key column, as the dense column
    HiBench's contribution twin reads (generated keys are too sparse for
    one)."""

    def __init__(self, deg: dict) -> None:
        ints = sorted(k for k in deg
                      if type(k) is int and -2**63 <= k < 2**63)
        self.keys = np.array(ints, dtype=np.int64)
        self.counts = np.array([deg[k] for k in ints], dtype=np.int64)

    def __getitem__(self, keys: np.ndarray) -> np.ndarray:
        return self.counts[np.searchsorted(self.keys, keys)]


class TestGeneratedKeyedPrograms:
    """Generated programs of 1-3 keyed ops over generated pair partitions
    give the same records (float bits included), app time and trace with
    and without :func:`ineligible_inputs`: every merge kernel, block cut,
    block join and twin against its scalar loop, each twin offered lists
    and blocks it is not defined on."""

    @staticmethod
    def program(ops, nparts: int):
        def run(sc, rdd):
            grouped = False
            for op in ops:
                if grouped and op not in _TAKE_GROUPS:
                    rdd = rdd.map_values(sum)
                rdd = KEYED_OPS[op](sc, rdd, nparts)
                grouped = (op == "group_by_key"
                           or (grouped and op in _KEEP_GROUPS))
            return rdd.collect()
        return run

    @given(parts=st.lists(_keyed_partition(), min_size=1, max_size=4),
           ops=st.lists(st.sampled_from(sorted(KEYED_OPS)), min_size=1,
                        max_size=3),
           nparts=st.integers(1, 4), scale=st.sampled_from([1, 3]))
    # distinct's hard case, every run: key 3 repeats with a larger value
    # first, so its first occurrences are neither one per key nor sorted
    @example(parts=[[(3, 1.5), (1, 0.5), (3, -2.0), (1, 0.5)]],
             ops=["distinct"], nparts=1, scale=1)
    @settings(max_examples=150, deadline=None)
    def test_columnar_equals_scalar(self, parts, ops, nparts, scale):
        program = self.program(ops, nparts)
        with ineligible_inputs():
            scalar = run_keyed_program(parts, program, scale)
        assert run_keyed_program(parts, program, scale) == scalar

    @given(lines=st.lists(st.tuples(_TEXT_INTS, _TEXT_INTS), min_size=1,
                          max_size=24),
           bad=st.integers(0, 23), nsplits=st.integers(1, 4),
           ops=st.lists(st.sampled_from(sorted(KEYED_OPS)), min_size=1,
                        max_size=3),
           nparts=st.integers(1, 4), scale=st.sampled_from([1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_a_text_source_with_one_malformed_line(self, lines, bad, nsplits,
                                                   ops, nparts, scale):
        """An edge-list file whose one line has a second space (the
        scalar parse reads the same edge): exactly that line's split is
        parsed per record, every other split columnar."""
        bad %= len(lines)
        text = "".join(f"{k}{'  ' if i == bad else ' '}{v}\n"
                       for i, (k, v) in enumerate(lines))
        datasets = (Dataset("edges.txt", BytesContent(text.encode()),
                            on=("local",)),)
        program = self.program(ops, nparts)
        answers: list = []

        def parse(split):
            answers.append((split, parse_int_pairs(split)))
            return answers[-1][1]

        def app(sc):
            return program(sc, sc.text_file("local://edges.txt", nsplits).map(
                lambda line: tuple(map(int, line.split())), vector=parse))

        with ineligible_inputs():
            scalar = run_traced(app, scale, datasets)
        answers.clear()
        assert run_traced(app, scale, datasets) == scalar
        assert len({split.buffer for split, answer in answers
                    if answer is None and len(split)}) == 1

    @given(parts=st.lists(_keyed_partition(), min_size=1, max_size=4),
           iterations=st.integers(1, 3), nparts=st.integers(1, 4),
           scale=st.sampled_from([1, 3]))
    @settings(max_examples=40, deadline=None)
    def test_a_persisted_pagerank_loop(self, parts, iterations, nparts,
                                       scale):
        """HiBench's loop over persisted links: the seed twin and
        ``distinct``, then per iteration the join, the contribution twin
        and the summing ``reduce_by_key``."""
        def program(sc, links):
            links = links.persist()
            deg = links.count_by_key()
            degrees = _Degrees(deg)

            def contrib(src_dst_rank):
                src, (dst, rank) = src_dst_rank
                return (dst, rank / deg[src])

            ranks = links.map(lambda e: (e[0], 1.0),
                              vector=hibench._seed_block).distinct(nparts)
            for _ in range(iterations):
                ranks = links.join(ranks, nparts).map(
                    contrib, vector=lambda joined: hibench._contrib_block(
                        joined, degrees)).reduce_by_key(
                    operator.add, nparts, vector="sum").map_values(
                    lambda r: 0.15 + 0.85 * r,
                    vector=lambda r: 0.15 + 0.85 * r)
            return ranks.collect()

        with ineligible_inputs():
            scalar = run_keyed_program(parts, program, scale)
        assert run_keyed_program(parts, program, scale) == scalar


class TestBlockDispatch:
    """Who takes a block path: only ``join`` joins columns, and a declared
    twin is offered every partition."""

    #: float-valued pair blocks; the right side is ``_RIGHT``
    PARTS = [[(1, 0.5), (3, 1.5), (1, 2.0)], [(5, -0.0), (2, 4.0)]]

    def test_only_join_calls_the_block_join(self, monkeypatch):
        import repro.spark.rdd as rdd_module

        calls: list = []

        def counting(*args):
            calls.append(1)
            return hash_join(*args)

        monkeypatch.setattr(rdd_module, "hash_join", counting)
        ops = {"join": 3, "group_by_key": 0}
        got = {}
        for op in ops:
            calls.clear()
            run_keyed_program(self.PARTS, lambda sc, rdd, op=op:
                              KEYED_OPS[op](sc, rdd, 3).collect(), 1)
            got[op] = len(calls)
        # once per reduce partition, and by nothing but a join
        assert got == ops

    def test_a_twin_is_offered_the_groups(self):
        offered: list = []

        def twin(block):
            offered.append("groups" if type(block) is PairBlock
                           and block.groups else type(block).__name__)
            return _first_values(block)

        def program(_sc, rdd):
            return rdd.group_by_key(2).map(_first_value, vector=twin).collect()

        with ineligible_inputs():
            scalar = run_keyed_program(self.PARTS, program, 1)
        assert offered == ["list", "list"]
        offered.clear()
        assert run_keyed_program(self.PARTS, program, 1) == scalar
        assert offered == ["groups", "groups"]


#: the refusal matrix's inputs: int and float pairs with a repeated key,
#: and a unique-keyed right side that misses a left key
_ML = [(1, 10), (2, 20), (1, 11), (5, 7)]
_MF = [(1, 0.5), (2, -0.0), (1, 2.5), (5, 1.5)]
_MR = [(1, 0.25), (5, 4.0), (9, 1.0)]


#: a block of every shape in :data:`SHAPES`, int- and float-valued
MATRIX_SHAPES = {
    f"{dtype}_{shape}": lambda build=build, pairs=pairs: build(pairs, _MR)[0]
    for dtype, pairs in (("int", _ML), ("float", _MF))
    for shape, build in SHAPES.items()}
_PAIRS = {"int_pairs", "float_pairs"}
_PAIR_KEYS = {"int_pair_keyed", "float_pair_keyed"}
_KEYED_JOINS = {"int_joined", "float_joined", "int_joined_groups",
                "float_joined_groups"}

#: entry -> (the entry over a block, the shapes it answers a block on)
TWINS = {
    "pair_columns": (pair_columns, _PAIRS),
    "as_pair_block": (as_pair_block, {"float_pairs"}),
    "as_pair_key_block": (as_pair_key_block, _PAIRS),
    "hash_join(left)": (lambda b: hash_join(b, _MR),
                        _PAIRS | {"int_groups", "float_groups"}),
    "_values_twin": (_values_twin(lambda a: a * 0.5), {"float_pairs"}),
    "_join_values": (_join_values, _KEYED_JOINS),
    "_pair_keys": (_pair_keys, _PAIR_KEYS),
    "hibench._seed_block": (hibench._seed_block, _PAIRS),
    "hibench._contrib_block": (lambda b: hibench._contrib_block(
        b, np.ones(10, dtype=np.int64)), {"int_joined"}),
    "bigdatabench._contrib_block": (_contrib_block,
                                    {"int_joined_groups_values"}),
}

#: entry -> (the kernel it may call, the entry over records, the shapes
#: it calls the kernel on)
KERNELS = {
    "HashPartitioner.buckets": (
        "repro.spark.partitioner.partition_pairs",
        lambda r: [_bits(b) for b in _buckets(*HashPartitioner(3).buckets(r))],
        _PAIRS | _PAIR_KEYS),
    "merge_by_key(sum)": (
        "repro.spark.shuffle.sum_by_key",
        lambda r: _bits(merge_by_key(r, _identity, operator.add, "sum")),
        {"float_pairs"}),
    "merge_by_key(group)": (
        "repro.spark.shuffle.group_pairs",
        lambda r: _bits(merge_by_key(r, lambda v: [v], _append, "group")),
        _PAIRS),
    "merge_by_key(first)": (
        "repro.spark.shuffle.first_occurrences",
        lambda r: _bits(merge_by_key(r, _identity, lambda a, _b: a, "first")),
        _PAIR_KEYS),
    "_count_keys": (
        "repro.spark.rdd.first_ranks",
        lambda r: _bits(_count_keys(0, r).items()), _PAIRS),
}


def _outcome(run, records):
    """``run(records)``, or the type of the exception it raised."""
    try:
        return run(records)
    except Exception as exc:  # the scalar loop's own error is an answer
        return type(exc)


class TestShapeRefusals:
    """One class means one risk: an entry defined on some record shapes
    must not take another for one of them.  Offered a block of every
    shape, a twin answers ``None``, and a kernel's caller runs its scalar
    loop to the records' answer, wherever the entry is not defined."""

    @pytest.mark.parametrize("shape", sorted(MATRIX_SHAPES))
    @pytest.mark.parametrize("entry", sorted(TWINS))
    def test_a_twin_answers_none_off_its_shapes(self, entry, shape):
        twin, defined = TWINS[entry]
        answer = twin(MATRIX_SHAPES[shape]())
        assert (answer is not None) == (shape in defined)

    @pytest.mark.parametrize("shape", sorted(MATRIX_SHAPES))
    @pytest.mark.parametrize("entry", sorted(KERNELS))
    def test_a_kernel_runs_on_its_shapes_only(self, entry, shape,
                                              monkeypatch):
        target, run, defined = KERNELS[entry]
        block = MATRIX_SHAPES[shape]()
        want = _outcome(run, list(block))
        module, name = target.rsplit(".", 1)
        kernel = getattr(importlib.import_module(module), name)
        calls: list = []

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(target, counting)
        assert _outcome(run, block) == want
        assert bool(calls) == (shape in defined)

    @pytest.mark.parametrize("shape", sorted(MATRIX_SHAPES))
    def test_only_pairs_and_pair_keys_are_sized_in_closed_form(self, shape):
        block = MATRIX_SHAPES[shape]()
        closed = _block_kind(block) is not None
        assert closed == (shape in _PAIRS | _PAIR_KEYS)
        sizes = bucket_sizes(block, np.array([0, len(block)]), 1)
        assert sizes.tolist() == [estimate_nbytes(list(block))]


class TestClosedFormSizing:
    @given(n=st.integers(0, 200), scale=st.sampled_from([1, 7, 62]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_sampled_estimate(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(-2**62, 2**62, size=n)
        for values in (rng.standard_normal(n),              # (int, float)
                       rng.integers(-2**62, 2**62, size=n)):  # (int, int)
            # the pairs, and distinct's ((k, v), None) records over them
            for block in (PairBlock(keys, values),
                          PairBlock(keys, values, pair_keyed=True)):
                sizes = bucket_sizes(
                    block, np.array([0, n, n]), scale).tolist()
                # the block's sampled estimate, and the tuple list's
                assert sizes == [estimate_nbytes(block) * scale, 0]
                assert sizes[0] == estimate_nbytes(list(block)) * scale


# ---------------------------------------------------------------------------
# ContribBlock
# ---------------------------------------------------------------------------


class TestContribBlock:
    @staticmethod
    def contrib(idx, vals, length):
        return ContribBlock(np.asarray(idx, dtype=np.int64),
                            np.asarray(vals, dtype=np.float64), length)

    def test_sizes_as_the_dense_slice(self):
        blk = self.contrib([1], [2.0], 100)
        assert blk.nbytes == np.zeros(100, dtype=np.float64).nbytes

    def test_to_dense(self):
        blk = self.contrib([0, 3], [1.5, 2.5], 5)
        assert blk.to_dense().tolist() == [1.5, 0.0, 0.0, 2.5, 0.0]

    def test_reduce_chain_matches_dense_sum(self):
        rng = np.random.default_rng(3)
        length = 50
        blocks, dense = [], []
        for _ in range(4):
            idx = np.unique(rng.integers(0, length, size=20)).astype(np.int64)
            vals = np.abs(rng.standard_normal(len(idx))) + 0.1
            blocks.append(ContribBlock(idx, vals, length))
            dense.append(blocks[-1].to_dense())
        acc = blocks[0]
        ref = dense[0]
        for blk, d in zip(blocks[1:], dense[1:]):
            acc = acc + blk  # the reduce_scatter combine chain
            ref = ref + d
        assert acc.to_dense().tobytes() == ref.tobytes()

    def test_radd_onto_dense_array(self):
        base = np.array([1.0, 2.0, 3.0])
        out = base + self.contrib([2], [0.5], 3)
        assert out.tolist() == [1.0, 2.0, 3.5]
        assert base.tolist() == [1.0, 2.0, 3.0]  # left operand copied


# ---------------------------------------------------------------------------
# differentials: scalar kernels vs block kernels
# ---------------------------------------------------------------------------

#: miniature figure runs, big enough to exercise every vectorized layer
#: (RecordBlock splits, PairBlock shuffles, sparse MPI contributions)
MINI = {
    "fig4": lambda: figures.fig4(
        proc_counts=(4, 8), procs_per_node=4, logical_size=10**8,
        spec=StackExchangeSpec(n_posts=1500)),
    "fig6": lambda: figures.fig6(
        node_counts=(1, 2), procs_per_node=2,
        graph=GraphSpec(n_vertices=600, out_degree=3),
        iterations=2, spark_physical_vertices=600),
    # the wide HiBench path: block join -> declared contrib twin ->
    # combining write, re-shuffled every iteration
    "fig7": lambda: figures.fig7(
        node_counts=(1, 2), procs_per_node=2,
        graph=GraphSpec(n_vertices=600, out_degree=3),
        iterations=3, spark_physical_vertices=600),
}


class TestDifferentialFingerprints:
    # Kept beside the net: a figure runs MPI's sparse contributions and
    # BigDataBench's grouped loop, which no generated program runs.
    @pytest.mark.parametrize("fig", sorted(MINI))
    def test_scalar_and_blocks_fingerprints_match(self, fig):
        with ineligible_inputs():
            scalar_fp = fingerprint_result(MINI[fig]())
        assert fingerprint_result(MINI[fig]()) == scalar_fp

    def test_fig6_groups_columnar_only_when_eligible(self, monkeypatch):
        """The fig6 fingerprint differential above compares the grouped
        path with the scalar one: ineligible inputs build no groups
        and never answer the contribution twin, eligible ones do both."""
        import repro.apps.pagerank.spark_bigdatabench as bigdatabench

        built, answered = count_group_blocks(monkeypatch), []

        def counting_twin(block):
            out = _contrib_block(block)
            answered.append(out is not None)
            return out

        monkeypatch.setattr(bigdatabench, "_contrib_block", counting_twin)
        with ineligible_inputs():
            MINI["fig6"]()
        assert not built and not any(answered)
        MINI["fig6"]()
        assert built and any(answered)

    def test_fig7_buckets_each_cached_block_once(self, monkeypatch):
        """HiBench re-shuffles its cached ``links`` blocks every iteration;
        each is bucketed once, and the later iterations reuse the buckets
        the block keeps."""
        import repro.spark.partitioner as partitioner

        partition = partitioner.partition_pairs
        seen: list = []  # [block, nparts, every bucket list it answered]

        def counting(block, nparts):
            entry = next((e for e in seen
                          if e[0] is block and e[1] == nparts), None)
            if entry is None:
                entry = [block, nparts, []]
                seen.append(entry)
            entry[2].append(partition(block, nparts))
            return entry[2][-1]

        monkeypatch.setattr(partitioner, "partition_pairs", counting)
        MINI["fig7"]()  # 3 iterations
        reshuffled = [answers for _, _, answers in seen if len(answers) > 1]
        assert reshuffled and all(len(a) == 3 for a in reshuffled)
        # built once: every later answer is the first bucket list itself
        assert all(b is a[0] for a in reshuffled for b in a)


def _traced_pagerank(app_name: str = "spark_pagerank_bigdatabench") -> list:
    """One traced Spark PageRank run's events (PairBlock-heavy)."""
    import repro.apps
    from repro.workloads.graphs import ring_edge_list_content

    graph = GraphSpec(n_vertices=200, out_degree=4)
    content = ring_edge_list_content(graph)
    session = ScenarioSpec(
        nodes=2, procs_per_node=4, hb=True,
        datasets=(Dataset("edges.txt", BytesContent(
            content.read(0, content.size)), on=("hdfs",)),)).session()
    result = getattr(repro.apps, app_name).run_in(
        session, "hdfs://edges.txt", graph.n_vertices, 4, iterations=2)
    return [(e.time, e.proc, e.kind) for e in session.trace.events], result


def _traced_hibench() -> list:
    """The HiBench twin (a block join every iteration)."""
    return _traced_pagerank("spark_pagerank_hibench")


def _traced_answers_count() -> list:
    """One traced Spark AnswersCount run's events (RecordBlock-heavy)."""
    from repro.apps import spark_answers_count
    from repro.workloads.stackexchange import stackexchange_content

    content = stackexchange_content(StackExchangeSpec(n_posts=500))
    session = ScenarioSpec(
        nodes=2, procs_per_node=4, hb=True,
        datasets=(Dataset("posts.txt", content),)).session()
    result = spark_answers_count.run_in(session, "hdfs://posts.txt", 4,
                                        executor_nodes=[0, 1])
    return [(e.time, e.proc, e.kind) for e in session.trace.events], result


class TestDifferentialTraces:
    # Kept beside the net: the apps' parse of HDFS splits and BigDataBench's
    # grouped loop, compared by event stream and result.
    @pytest.mark.parametrize("traced", [_traced_pagerank,
                                        _traced_hibench,
                                        _traced_answers_count])
    def test_event_streams_identical_scalar_vs_blocks(self, traced):
        with ineligible_inputs():
            scalar = traced()
        # same events at the same (bit-exact) virtual times, same owners,
        # and the same result
        assert traced() == scalar
