"""The columnar data plane: block kernels + scalar-vs-blocks differentials.

Two halves:

* unit tests pinning each kernel in :mod:`repro.sim.blocks` to the exact
  scalar semantics it replays (record splitting, dict-merge group-sum,
  hash partitioning, sparse contribution adds) — including the ``-0.0``
  and NaN bit-preservation corners the charge-replay rule depends on;
* differential tests running miniature Fig 4 / Fig 6 / Fig 7 workloads on
  the scalar kernels vs the block kernels and asserting byte-identical
  result fingerprints plus identical trace-event streams.  The scalar
  kernels are reached the way production reaches them — by input the
  block kernels cannot take (:func:`ineligible_inputs`).
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.pagerank.spark_bigdatabench import _contrib, _contrib_block
from repro.core import figures
from repro.platform import Dataset, ScenarioSpec, fingerprint_result
import repro.sim.blocks as blocks
from repro.sim.blocks import (
    CoGroupBlock,
    ContribBlock,
    GroupBlock,
    JoinedBlock,
    PairBlock,
    PairKeyBlock,
    RecordBlock,
    as_pair_block,
    as_pair_key_block,
    first_occurrences,
    group_pairs,
    hash_join,
    pair_columns,
    parse_int_pairs,
    partition_pair_keys,
    partition_pairs,
    sum_by_key,
)
from repro.spark.rdd import (_append, _cogroup_pairs, _count_keys,
                             _join_expand, _join_values)
from repro.spark.partitioner import HashPartitioner, RangePartitioner
from repro.spark.shuffle import ShuffleWriter, estimate_nbytes
from repro.workloads.graphs import GraphSpec
from repro.workloads.stackexchange import StackExchangeSpec

# ---------------------------------------------------------------------------
# RecordBlock
# ---------------------------------------------------------------------------


#: the blocks the Spark kernels build; none may exist under
#: :func:`ineligible_inputs`
_KERNEL_BLOCKS = (PairBlock, PairKeyBlock, GroupBlock, JoinedBlock,
                  CoGroupBlock)


@contextmanager
def ineligible_inputs():
    """Make every input ineligible for the Spark block kernels.

    ``pair_columns`` is the one list→columns converter and
    ``parse_int_pairs`` the one text→columns converter: with the first
    answering ``None`` and the second's line pattern matching nothing, the
    parse, the bucketing and combining writes, the reduce-side merge,
    the cogroup and every declared twin run their scalar loops — exactly
    as they do in production for a malformed line or for records that are
    not exact numeric pairs.  The patch proves itself: a ``with`` body
    that constructs any of :data:`_KERNEL_BLOCKS` fails.
    """
    built: Counter[str] = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for module in ("repro.sim.blocks", "repro.spark.rdd"):
            patch.setattr(f"{module}.pair_columns", lambda records: None)
        # whoever imported the kernel: no split fits a pattern nothing fits
        patch.setattr("repro.sim.blocks._INT_PAIR_LINES", re.compile(rb"(?!)"))
        assert as_pair_block([(1, 2.0)]) is None
        assert parse_int_pairs(RecordBlock(b"1 2\n")) is None
        for cls in _KERNEL_BLOCKS:
            def recording_init(self, *args, _init=cls.__init__):
                built[type(self).__name__] += 1
                _init(self, *args)
            patch.setattr(cls, "__init__", recording_init)
        yield
    assert not built, f"blocks built from ineligible inputs: {dict(built)}"


def scalar_lines(buf: bytes) -> list[bytes]:
    """The reference record list for a split buffer."""
    lines = buf.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    return lines


class TestRecordBlock:
    BUFS = [b"", b"a", b"a\n", b"a\nbb\nccc", b"a\nbb\nccc\n", b"\n\nx\n"]

    @pytest.mark.parametrize("buf", BUFS)
    def test_equals_scalar_split(self, buf):
        assert RecordBlock(buf) == scalar_lines(buf)

    @pytest.mark.parametrize("buf", BUFS)
    def test_len_with_and_without_offsets(self, buf):
        block = RecordBlock(buf)
        n = len(block)  # O(1) count path, offsets not yet built
        assert n == len(scalar_lines(buf))
        list(block)  # materialize
        assert len(block) == n

    def test_indexing_and_slicing(self):
        buf = b"a\nbb\nccc\ndddd\n"
        block = RecordBlock(buf)
        ref = scalar_lines(buf)
        assert block[0] == b"a" and block[-1] == b"dddd"
        assert block[-4] == ref[-4] == b"a"
        view = block[1:3]
        assert isinstance(view, RecordBlock)
        assert view == ref[1:3]
        assert view.buffer is buf  # zero-copy: shares the split buffer
        assert list(block[::2]) == ref[::2]
        # out of range raises as the list does, before and after the
        # block materialises its lines (a negative index is wrapped once)
        for i in (-5, 4, -9):
            with pytest.raises(IndexError):
                ref[i]
            with pytest.raises(IndexError):
                block[i]
        assert list(block) == ref
        with pytest.raises(IndexError):
            block[-5]
        with pytest.raises(IndexError):
            RecordBlock(b"a\nb\nc\n")[-5]

    @pytest.mark.parametrize("buf", BUFS)
    def test_decode_all_matches_per_record(self, buf):
        block = RecordBlock(buf)
        assert block.decode_all() == [r.decode("utf-8", "replace")
                                      for r in scalar_lines(buf)]

    def test_decode_all_on_sliced_view(self):
        block = RecordBlock(b"a\nbb\nccc\n")[1:]
        assert block.decode_all() == ["bb", "ccc"]

    def test_decode_all_on_slice_of_iterated_block(self):
        # the view inherits the parent's materialized lines; it must still
        # decode its own two records, not the shared buffer
        block = RecordBlock(b"a\nb\nc\nd\n")
        list(block)
        view = block[1:3]
        assert len(view) == 2
        assert view.decode_all() == ["b", "c"]

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
        # a view's ``buffer`` is the parent's: parsing it would yield the
        # parent's records
        parent = RecordBlock(b"1 2\n3 4\n5 6\n")
        view = parent[1:]
        assert parse_int_pairs(view) is None
        assert scalar_parse(view) == [(3, 4), (5, 6)]
        assert parse_int_pairs(RecordBlock(b"")) is None
        assert parse_int_pairs(RecordBlock(b"\n")) is None
        assert parse_int_pairs(["1 2"]) is None
        assert parse_int_pairs(RecordBlock(b"1 2\n3 4\n5 6\n")) == \
            [(1, 2), (3, 4), (5, 6)]


# ---------------------------------------------------------------------------
# PairBlock + kernels
# ---------------------------------------------------------------------------


class TestPairBlock:
    def test_roundtrip_and_scalar_types(self):
        pairs = [(3, 1.5), (-1, 2.0), (3, 0.25)]
        block = PairBlock(*pair_columns(pairs))
        assert block.to_pairs() == pairs
        assert block == pairs
        k, v = block[1]
        assert type(k) is int and type(v) is float
        assert all(type(k) is int and type(v) is float for k, v in block)

    def test_int_values_stay_ints(self):
        pairs = [(3, 7), (-1, 2**62), (3, -5)]
        block = PairBlock(*pair_columns(pairs))
        assert block.values.dtype == np.int64
        assert _bits(block) == _bits(pairs) == _bits(block.to_pairs())
        assert _bits(block[i] for i in range(3)) == _bits(pairs)
        assert _bits(block[1:]) == _bits(pairs[1:])
        # equal numbers of another type are another partition
        assert block != PairBlock(block.keys, block.values.astype(np.float64))

    def test_slice_is_zero_copy_view(self):
        block = PairBlock(*pair_columns([(i, float(i)) for i in range(6)]))
        view = block[2:5]
        assert isinstance(view, PairBlock)
        assert view.keys.base is not None  # numpy view, not a copy
        assert view.to_pairs() == [(2, 2.0), (3, 3.0), (4, 4.0)]


class TestAsPairBlock:
    def test_accepts_int_float_pairs(self):
        block = as_pair_block([(1, 2.0), (2, 3.5)])
        assert isinstance(block, PairBlock)
        assert block.to_pairs() == [(1, 2.0), (2, 3.5)]

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
            assert got.to_pairs() == want

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


class TestCountKeys:
    @given(pairs=st.lists(st.tuples(st.sampled_from([0, 1, 5, -7, 2**62]),
                                    st.integers(-3, 3)), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_block_counts_equal_the_scalar_loop(self, pairs):
        want = _count_keys(0, pairs)
        got = _count_keys(0, PairBlock(*pair_columns(pairs)))
        # same dict, same (first-occurrence) order, Python ints throughout
        assert _bits(got.items()) == _bits(want.items())


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
    @staticmethod
    def dict_merge(pairs):
        """``distinct``'s first-wins merge: a dict keeps the first key
        object it was given."""
        return list(dict.fromkeys(pairs))

    def test_iterates_indexes_and_slices_as_the_records(self):
        pairs = [(3, 1.5), (-1, -0.0), (3, 1.5)]
        block = as_pair_key_block(PairBlock(*pair_columns(pairs)))
        want = [(kv, None) for kv in pairs]
        assert _bits(block) == _bits(want)
        assert _bits(block[i] for i in range(3)) == _bits(want)
        assert _bits(block[1:]) == _bits(want[1:])
        assert block[1:].keys.base is not None  # zero-copy view

    @pytest.mark.parametrize("records", [
        PairBlock(np.array([1, 2]), np.array([0.5, math.nan])),  # a NaN
        [(1, 0.5)],                                              # a list
        GroupBlock(np.array([1]), np.array([0, 1]), np.array([2])),
    ])
    def test_defined_on_nan_free_pair_blocks_only(self, records):
        assert as_pair_key_block(records) is None

    @given(pairs=_distinct_partition().filter(
        lambda ps: not any(v != v for _, v in ps)))
    @settings(max_examples=200, deadline=None)
    def test_first_occurrences_equal_the_dict_merge(self, pairs):
        block = as_pair_key_block(PairBlock(*pair_columns(pairs)))
        got = first_occurrences(block)
        assert type(got) is PairKeyBlock
        assert _bits(k for k, _ in got) == _bits(self.dict_merge(pairs))

    def test_the_first_zero_survives(self):
        pairs = [(1, -0.0), (2, 0.0), (1, 0.0), (2, -0.0), (1, -0.0)]
        got = first_occurrences(
            as_pair_key_block(PairBlock(*pair_columns(pairs))))
        assert [(k, v.hex()) for (k, v), _ in got] == [
            (1, "-0x0.0p+0"), (2, "0x0.0p+0")]

    @given(pairs=_distinct_partition().filter(
        lambda ps: not any(v != v for _, v in ps)),
        nparts=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_partition_pair_keys_matches_the_scalar_hash(self, pairs,
                                                          nparts):
        block = as_pair_key_block(PairBlock(*pair_columns(pairs)))
        buckets = [[] for _ in range(nparts)]
        part = HashPartitioner(nparts).partition
        for rec in block:  # the scalar writer's append loop
            buckets[part(rec[0])].append(rec)
        out = _buckets(*partition_pair_keys(block, nparts))
        assert all(type(b) is PairKeyBlock for b in out)
        assert [_bits(b) for b in out] == [_bits(b) for b in buckets]


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
    @given(left=_left_lists(), right=_unique_rights(),
           right_as_block=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_cogroup_and_expand(self, left, right,
                                               right_as_block):
        groups = list(_cogroup_pairs(left, right).items())
        want = _join_expand(0, groups)
        rside = PairBlock(*pair_columns(right)) if right_as_block else right
        got = hash_join(*pair_columns(left), rside)
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

        monkeypatch.setattr("repro.sim.blocks._regroup", no_regroup)
        left = pair_columns([(1, 10), (2, 20), (1, 11)])
        assert hash_join(*left, right) is None

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

    def test_cogroup_block_iterates_as_the_scalar_groups(self):
        left, right = [(1, 10), (2, 20), (1, 11)], [(1, 0.5), (3, 1.5)]
        rows = lambda: list(_cogroup_pairs(left, right).items())  # noqa: E731
        block = CoGroupBlock(
            *hash_join(*pair_columns(left), right), rows)
        assert len(block) == 3
        assert list(block) == rows() and block[0] == (1, ([10, 11], [0.5]))
        assert _join_expand(0, block) is block.joined
        assert isinstance(block.joined, JoinedBlock)
        assert list(block.joined) == [(1, (10, 0.5)), (1, (11, 0.5))]

    def test_rdd_join_family_is_unchanged_by_the_block_path(self):
        """End to end through the RDD API: an eligible join, its undeclared
        consumers (plain cogroup, outer join, a lambda after the join) and
        an ineligible one agree with the scalar plane."""
        from repro.cluster import Cluster
        from tests.conftest import TESTING_MACHINE, forced_trace
        from repro.spark import SparkContext

        edges = [(i % 7, (i * 5) % 11) for i in range(60)]
        ranks = [(k, 1.0 + k / 4) for k in range(0, 9, 2)]

        def app(sc):
            links, rk = sc.parallelize(edges, 4), sc.parallelize(ranks, 3)
            return (links.join(rk, 4).collect(),
                    links.join(rk, 4).map(lambda r: r[1][1] * 2).collect(),
                    links.cogroup(rk, 4).collect(),
                    links.left_outer_join(rk, 4).collect(),
                    links.join(sc.parallelize(ranks + [(2, 9.0)], 3),
                               4).collect())

        def run():
            sc = SparkContext(Cluster(TESTING_MACHINE.with_nodes(2),
                                      trace=forced_trace()),
                              executors_per_node=2, app_startup=0.1)
            res = sc.run(app)
            return res.app_elapsed, res.value

        with ineligible_inputs():
            scalar = run()
        assert run() == scalar


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


def _grouped(pairs) -> GroupBlock:
    return group_pairs(PairBlock(*pair_columns(pairs)))


def count_group_blocks(monkeypatch) -> list:
    """A list that grows by one per ``GroupBlock`` built from now on."""
    built: list = []
    init = GroupBlock.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(GroupBlock, "__init__", counting_init)
    return built


class TestGroupPairs:
    @given(pairs=_int_pair_lists())
    @settings(max_examples=200, deadline=None)
    def test_iterates_indexes_and_slices_as_the_dict_merge(self, pairs):
        want = scalar_groups(pairs)
        got = _grouped(pairs)
        assert len(got) == len(want)
        assert _bits(got) == _bits(want)
        n = len(want)
        assert _bits(got[i] for i in range(-n, n)) == _bits(want + want)
        for s in (slice(None, None, 2), slice(1, None, 3), slice(-3, None),
                  slice(None, None, -1), slice(3, 1), slice(1, -1)):
            assert _bits(got[s]) == _bits(want[s])
        assert estimate_nbytes(got) == estimate_nbytes(want)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                got[i]

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
    @given(pairs=_int_pair_lists(), right=_unique_rights(),
           right_as_block=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_cogroup_and_expand(self, pairs, right,
                                               right_as_block):
        grouped = _grouped(pairs)
        groups = list(_cogroup_pairs(list(grouped), right).items())
        want = _join_expand(0, groups)
        rside = PairBlock(*pair_columns(right)) if right_as_block else right
        joined, n_groups = hash_join(grouped.keys, grouped, rside)
        assert n_groups == len(groups)
        assert len(joined) == len(want)
        assert _bits(joined) == _bits(want)
        assert _bits(joined[i] for i in range(len(joined))) == _bits(want)
        assert _bits(joined[1::2]) == _bits(want[1::2])
        # values(): the keyless twin iterates as the scalar comprehension
        values = _join_values(joined)
        want_values = [v for _, v in want]
        assert len(values) == len(want_values)
        assert _bits(values) == _bits(want_values)
        assert _bits(values[i] for i in range(len(values))) == \
            _bits(want_values)
        assert _bits(values[::-1]) == _bits(want_values[::-1])

    def test_a_grouped_side_prepares_as_itself(self):
        # unique keys: the regroup is the identity, and with every key
        # matched nothing is filtered either
        grouped = _grouped([(3, 1), (-1, 2), (3, 4)])
        joined, _ = hash_join(grouped.keys, grouped, [(-1, 0.5), (3, 1.5)])
        assert joined.left is grouped and joined.keys is grouped.keys

    def test_values_twin_is_defined_on_keyed_joins_only(self):
        assert _join_values(PairBlock(*pair_columns([(1, 1.0)]))) is None
        joined, _ = hash_join(*pair_columns([(1, 2)]), [(1, 0.5)])
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
        joined, _ = hash_join(grouped.keys, grouped, right)
        values = _join_values(joined)
        want = [y for x in values for y in _contrib(x)]
        got = _contrib_block(values)
        assert type(got) is PairBlock and got.values.dtype == np.float64
        assert _bits(got) == _bits(want)  # floats compared by float.hex

    def test_undefined_blocks_stay_scalar(self):
        joined, _ = hash_join(*pair_columns([(1, 2)]), [(1, 0.5)])
        assert _contrib_block(_join_values(joined)) is None  # not grouped
        floats = _grouped([(1, 2.5)])
        joined, _ = hash_join(floats.keys, floats, [(1, 0.5)])
        assert _contrib_block(joined) is None                # keyed
        assert _contrib_block(_join_values(joined)) is None  # float urls
        empty = GroupBlock(np.array([1]), np.array([0, 0]),
                           np.empty(0, dtype=np.int64))
        joined, _ = hash_join(empty.keys, empty, [(1, 0.5)])
        with pytest.raises(ZeroDivisionError):
            [y for x in _join_values(joined) for y in _contrib(x)]
        assert _contrib_block(_join_values(joined)) is None


class TestTextPipeline:
    """End to end through the RDD API: a text split parsed by the verified
    kernel, then every consumer an int-valued block can reach."""

    #: 160 six-byte lines: four 40-line local splits, the first all
    #: negative keys
    LINES = ([f"-{1 + i % 9} {10 + i}" for i in range(40)]
             + [f"{10 + i % 13} {10 + i % 90}" for i in range(120)])

    @staticmethod
    def halve_negatives(kv):
        return (kv[0], kv[1] * 0.5) if kv[0] < 0 else kv

    @staticmethod
    def halve_negatives_block(block):
        # defined where one branch covers the partition: the map output is
        # float-valued for split 0 and int-valued for the others
        if (block.keys < 0).all():
            return PairBlock(block.keys, block.values * 0.5)
        return block if (block.keys >= 0).all() else None

    def run(self, twins: bool):
        from repro.fs.content import BytesContent

        def twin(fn):
            return fn if twins else None

        def app(sc):
            text = sc.text_file("local://pairs.txt", 4)
            parsed = text.map(lambda line: tuple(map(int, line.split())),
                              vector=twin(parse_int_pairs)).cache()
            mixed = parsed.map(self.halve_negatives,
                               vector=twin(self.halve_negatives_block))
            return (
                text.count(), text.collect()[38:42], text.map(len).sum(),
                parsed.count_by_key(), parsed.collect(),
                # float-only kernels must leave an int-valued block alone:
                # the int sum stays an int, and int64 would wrap here
                parsed.reduce_by_key(lambda a, b: a + b, 3,
                                     vector="sum").collect(),
                parsed.map_values(lambda v: v * 2**62,
                                  vector=twin(lambda v: v * 2**62)).collect(),
                parsed.group_by_key(3).collect(),
                parsed.join(parsed.map_values(lambda v: v + 1), 3).count(),
                parsed.map(lambda e: (e[0], 1.0), vector=twin(
                    lambda b: PairBlock(b.keys, np.ones(len(b))))
                ).distinct(3).collect(),
                # the cached block's buckets, cut at one width, then another
                parsed.partition_by(2).collect(),
                parsed.partition_by(3).collect(),
                # one reduce partition fed int- and float-valued buckets
                mixed.partition_by(3).collect(),
                mixed.reduce_by_key(lambda a, b: a + b, 3,
                                    vector="sum").collect(),
            )

        session = ScenarioSpec(
            nodes=2, procs_per_node=2,
            datasets=(Dataset("pairs.txt", BytesContent(
                "\n".join(self.LINES).encode() + b"\n"), on=("local",)),),
        ).session()
        res = session.spark(app_startup=0.1).run(app)
        return res.app_elapsed, [
            _bits(v.items() if type(v) is dict
                  else v if type(v) is list else [v]) for v in res.value]

    def test_scalar_and_columnar_agree(self):
        with ineligible_inputs():
            scalar = self.run(twins=False)
        assert self.run(twins=True) == scalar

    def test_count_of_a_text_file_decodes_nothing(self, monkeypatch):
        def no_decode(self, *args):
            raise AssertionError("count() decoded the split")

        monkeypatch.setattr(RecordBlock, "decode_all", no_decode)
        from repro.fs.content import BytesContent

        session = ScenarioSpec(
            nodes=1, procs_per_node=2,
            datasets=(Dataset("pairs.txt", BytesContent(b"a b\nc d\ne f\n"),
                              on=("local",)),),
        ).session()
        n = session.spark(app_startup=0.1).run(
            lambda sc: sc.text_file("local://pairs.txt", 2).count()).value
        assert n == 3


def run_keyed_program(parts, program, scale: int):
    """``program(sc, rdd)`` over an RDD whose partitions are ``parts``:
    its collected records (as :func:`_bits`), the app time and the trace
    digest.  A partition is a pair block where ``pair_columns`` takes it
    (so a list under :func:`ineligible_inputs`), else the list itself."""
    def partition(i, _it):
        cols = blocks.pair_columns(parts[i])
        return list(parts[i]) if cols is None else PairBlock(*cols)

    session = ScenarioSpec(nodes=2, procs_per_node=2, hb=True).session()
    res = session.spark(app_startup=0.1, record_scale=scale).run(
        lambda sc: program(sc, sc.parallelize(
            list(range(len(parts))), len(parts)).map_partitions(partition)))
    digest = hashlib.sha256()
    for ev in session.trace.events:
        digest.update(f"{ev.time.hex()}|{ev.proc}|{ev.kind}|"
                      f"{sorted(ev.detail.items())!r}\n".encode())
    return _bits(res.value), res.app_elapsed.hex(), digest.hexdigest()


class TestDistinctOverPairBlocks:
    """``distinct`` over pair-block partitions: the columnar shuffle
    (``PairKeyBlock`` both sides, a ``PairBlock`` out) against the scalar
    one, by records, app time and trace."""

    @staticmethod
    def run(parts, nparts: int, scale: int):
        return run_keyed_program(
            parts, lambda _sc, rdd: rdd.distinct(nparts).collect(), scale)

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
_PINTS = st.one_of(st.integers(-3, 3), st.sampled_from([2**62, -2**63, 2**63]))
_PFLOATS = st.one_of(st.sampled_from(
    [0.0, -0.0, 1.5, math.inf, -math.inf, math.nan]), st.floats())


@st.composite
def _keyed_partition(draw):
    """One partition of ``(int, int)`` or ``(int, float)`` pairs, or of
    both mixed.  Every float is a fresh object, as a block's records
    materialise (see :func:`_distinct_partition` on NaN identity)."""
    values = draw(st.sampled_from([_PINTS, _PFLOATS, _PINTS | _PFLOATS]))
    pairs = draw(st.lists(st.tuples(_PKEYS, values), max_size=12))
    return [(k, np.float64(v).item() if type(v) is float else v)
            for k, v in pairs]


def _num(v):
    """A group's values summed, any other value as it is."""
    return sum(v) if type(v) is list else v


#: the right side every generated ``join`` meets: unique keys
_RIGHT = [(k, k / 4) for k in (-2, 0, 1, 3, 5, 2**53)]

#: name -> the keyed op ``(sc, rdd, nparts) -> rdd``
KEYED_OPS = {
    "reduce_by_key": lambda sc, rdd, n: rdd.reduce_by_key(operator.add, n),
    "reduce_by_key(sum)": lambda sc, rdd, n: rdd.reduce_by_key(
        operator.add, n, vector="sum"),
    "group_by_key": lambda sc, rdd, n: rdd.group_by_key(n),
    "distinct": lambda sc, rdd, n: rdd.distinct(n),
    "aggregate_by_key": lambda sc, rdd, n: rdd.aggregate_by_key(
        0, operator.add, operator.add, n),
    "join": lambda sc, rdd, n: rdd.join(sc.parallelize(_RIGHT, 2), n)
    .map_values(lambda vw: _num(vw[0]) * vw[1]),
    "map_values": lambda sc, rdd, n: rdd.map_values(
        lambda v: v * 0.5, vector=lambda a: a * 0.5),
    "count_by_key": lambda sc, rdd, n: sc.parallelize(
        list(rdd.count_by_key().items()), n),
    "persist": lambda sc, rdd, n: (rdd.persist(), rdd.count())[0],
    # list-record map outputs: a range cut, and a cogroup's shuffled side
    "partition_by(range)": lambda sc, rdd, n: rdd.partition_by(
        RangePartitioner(list(range(n - 1)))),
    "cogroup": lambda sc, rdd, n: rdd.cogroup(sc.parallelize(_RIGHT, 2), n)
    .map_values(lambda vws: sum(vws[0]) + sum(vws[1])),
}

#: the ops that keep a group's list values as they are
_KEEP_GROUPS = {"persist", "partition_by(range)"}
#: the ops that take a group's list values as they are
_TAKE_GROUPS = {"join", "count_by_key"} | _KEEP_GROUPS


class TestGeneratedKeyedPrograms:
    """Generated programs of 1-3 keyed ops over generated pair partitions
    give the same records (float bits included), app time and trace with
    and without :func:`ineligible_inputs`: every merge kernel, block cut,
    block join and twin against its scalar loop."""

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
    @settings(max_examples=150, deadline=None)
    def test_columnar_equals_scalar(self, parts, ops, nparts, scale):
        program = self.program(ops, nparts)
        with ineligible_inputs():
            scalar = run_keyed_program(parts, program, scale)
        assert run_keyed_program(parts, program, scale) == scalar


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
                          PairKeyBlock(keys, values)):
                sizes = ShuffleWriter._sizes(
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
    @pytest.mark.parametrize("fig", sorted(MINI))
    def test_scalar_and_blocks_fingerprints_match(self, fig):
        with ineligible_inputs():
            scalar_fp = fingerprint_result(MINI[fig]())
        assert fingerprint_result(MINI[fig]()) == scalar_fp

    def test_fig6_groups_columnar_only_when_eligible(self, monkeypatch):
        """The fig6 fingerprint differential above compares the grouped
        path with the scalar one: ineligible inputs build no GroupBlock
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


def _traced_pagerank(app_name: str = "spark_pagerank_bigdatabench",
                     edit=lambda edges: edges, **kwargs) -> list:
    """One traced Spark PageRank run's events (PairBlock-heavy);
    ``edit`` rewrites the edge-list bytes before they are staged."""
    import repro.apps
    from repro.fs.content import BytesContent
    from repro.workloads.graphs import ring_edge_list_content

    graph = GraphSpec(n_vertices=200, out_degree=4)
    content = ring_edge_list_content(graph)
    session = ScenarioSpec(
        nodes=2, procs_per_node=4, hb=True,
        datasets=(Dataset("edges.txt", BytesContent(
            edit(content.read(0, content.size))), on=("hdfs",)),)).session()
    result = getattr(repro.apps, app_name).run_in(
        session, "hdfs://edges.txt", graph.n_vertices, 4, iterations=2,
        **kwargs)
    return [(e.time, e.proc, e.kind) for e in session.trace.events], result


def _traced_hibench() -> list:
    """The HiBench twin (block join + JoinedBlock every iteration)."""
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
    @pytest.mark.parametrize("traced", [_traced_pagerank,
                                        _traced_hibench,
                                        _traced_answers_count])
    def test_event_streams_identical_scalar_vs_blocks(self, traced):
        with ineligible_inputs():
            scalar = traced()
        # same events at the same (bit-exact) virtual times, same owners,
        # and the same result
        assert traced() == scalar

    @staticmethod
    def malformed_line_run(monkeypatch, app_name: str, module) -> None:
        """``app_name`` over a file with one line the text twin refuses (a
        second space — the scalar parse reads the same edge): that split
        is parsed per record, the others stay columnar, and the mixed
        list / block buckets give the all-scalar run's events and ranks."""
        def edit(edges: bytes) -> bytes:
            lines = edges.split(b"\n")
            lines[len(lines) // 2] = lines[len(lines) // 2].replace(
                b" ", b"  ")
            return b"\n".join(lines)

        def run():
            return _traced_pagerank(app_name, edit, collect_ranks=True)

        with ineligible_inputs():
            scalar = run()
        answers = []

        def recording(block):
            answers.append(parse_int_pairs(block))
            return answers[-1]

        monkeypatch.setattr(module, "parse_int_pairs", recording)
        assert run() == scalar
        refused = [a for a in answers if a is None]
        assert len(refused) == 1 and len(answers) > 1

    def test_one_malformed_line_sends_only_its_split_to_the_scalar_parse(
            self, monkeypatch):
        import repro.apps.pagerank.spark_hibench as hibench

        self.malformed_line_run(monkeypatch, "spark_pagerank_hibench",
                                hibench)

    def test_one_malformed_line_in_bigdatabench_reaches_the_scalar_group(
            self, monkeypatch):
        # the refused split's list buckets reach every reduce partition,
        # so the grouping, the join, values() and flat_map(_contrib) all
        # run their scalar loops on this file
        import repro.apps.pagerank.spark_bigdatabench as bigdatabench

        built = count_group_blocks(monkeypatch)
        self.malformed_line_run(monkeypatch, "spark_pagerank_bigdatabench",
                                bigdatabench)
        assert not built
