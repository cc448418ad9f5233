"""The shuffle's map outputs and reduce fetches against the per-bucket
reference (``tests/shuffle_oracle.py``).

A map output is one record-ordered block (or list) plus reduce offsets,
and a reduce fetch is one slice of the shuffle's reduce-major layout.
Generated map outputs — pair blocks and ``distinct``'s key blocks with
``int64`` and ``float64`` values, lists, kinds mixed across maps, empty
buckets, empty maps, source nodes with nothing for a reducer — must give
the per-bucket shuffle's records (float bits included), result types,
per-node byte sums in node order, totals and hb accesses.  The layout is
dropped when an output is registered again or lost, and the blocks a
fetch hands out are read-only views of it.
"""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.costs import DEFAULT_COSTS
from repro.sim.blocks import PairBlock
from repro.spark import SparkContext
from repro.spark import scheduler as sched
from repro.spark.partitioner import HashPartitioner
from repro.spark.shuffle import MapOutputTracker, ShuffleReader, ShuffleWriter
from tests.conftest import TESTING_MACHINE, forced_trace
from tests.shuffle_oracle import reference_read, reference_write

SHUFFLE = 3


def _bits(records):
    """Records with every float spelled out, so ``-0.0`` and NaN compare."""
    def bits(x):
        if type(x) in (tuple, list):
            return tuple(bits(y) for y in x)
        return x.hex() if type(x) is float else (type(x).__name__, x)
    return [bits(r) for r in records]


def _run(steps):
    """Run a shuffle side's step body on the stubs, which never wait: it
    returns without yielding a request."""
    try:
        req = next(steps)
    except StopIteration as stop:
        return stop.value
    raise AssertionError(f"a step over the stubs yielded {req!r}")


class Recorder:
    """The proc, nodes, trace and network a shuffle side charges, as one
    call log (every byte count with its type).  The writer and reader
    under test call the step forms (``transmit_steps``), the reference
    the blocking names; both log the same entry."""

    def __init__(self) -> None:
        self.log: list = []
        self.clock = 0.0
        self.hb = True

    # proc
    def compute(self, seconds):
        self.log.append(("compute", float(seconds).hex()))
        self.clock += seconds

    def compute_bytes(self, nbytes, rate):
        self.log.append(("compute_bytes", nbytes, type(nbytes), rate))
        self.clock += nbytes / rate

    def advance_clock_to(self, t):
        self.log.append(("advance", t.hex()))
        self.clock = t

    # trace
    def access(self, _proc, kind, location):
        self.log.append(("access", kind, location))

    # network
    def transmit(self, _proc, fabric, src, dst, nbytes, label):
        self.log.append(("transmit", fabric, src, dst, nbytes, type(nbytes),
                         label))

    def transmit_steps(self, proc, fabric, src, dst, nbytes, label):
        self.transmit(proc, fabric, src, dst, nbytes, label)
        yield from ()


class Node:
    def __init__(self, node_id: int, rec: Recorder) -> None:
        self.id = node_id
        self.trace = rec
        self._rec = rec

    def stream_bytes(self, _proc, nbytes, *, label=""):
        self._rec.log.append(("stream", self.id, nbytes, type(nbytes), label))

    def stream_bytes_steps(self, proc, nbytes, *, label=""):
        self.stream_bytes(proc, nbytes, label=label)
        yield from ()


def _env(executor_nodes: list[int], scale: int, transport: str):
    rec = Recorder()
    nodes = {n: Node(n, rec) for n in set(executor_nodes)}
    executors = [SimpleNamespace(executor_id=i, node=nodes[n])
                 for i, n in enumerate(executor_nodes)]
    env = SimpleNamespace(
        costs=DEFAULT_COSTS, record_scale=scale, shuffle_transport=transport,
        shuffle_fabric="fabric", tracker=MapOutputTracker(),
        executors=executors, cluster=SimpleNamespace(network=rec))
    return env, rec


def _bucket_lists(records, nparts: int) -> list:
    """The per-bucket reference cut: the scalar hash loop, and a block
    map's buckets each rebuilt as a block of its type and dtype."""
    part = HashPartitioner(nparts).partition
    lists: list[list] = [[] for _ in range(nparts)]
    for rec in records:
        lists[part(rec[0])].append(rec)
    if type(records) is list:
        return lists
    pairs = [[r[0] if records.pair_keyed else r for r in b] for b in lists]
    return [PairBlock(np.array([k for k, _ in b], dtype=np.int64),
                      np.array([v for _, v in b], dtype=records.values.dtype),
                      pair_keyed=records.pair_keyed)
            for b in pairs]


class Shuffle:
    """One shuffle run both ways: the writer and reader under test on one
    recorder, the per-bucket reference on another."""

    def __init__(self, executor_nodes: list[int], nparts: int,
                 scale: int = 1, transport: str = "socket") -> None:
        self.nparts = nparts
        self.env, self.rec = _env(executor_nodes, scale, transport)
        self.ref_env, self.ref_rec = _env(executor_nodes, scale, transport)
        self.ref_outputs: dict[int, tuple] = {}
        self.dep = SimpleNamespace(
            shuffle_id=SHUFFLE, map_side_combine=False, aggregator=None,
            partitioner=HashPartitioner(nparts))

    def write(self, map_id: int, executor_id: int, records) -> None:
        _run(ShuffleWriter(self.env).write_steps(
            self.rec, self.env.executors[executor_id], self.dep, map_id,
            records))
        self.ref_outputs[map_id] = reference_write(
            self.ref_rec, self.ref_env.executors[executor_id], self.ref_env,
            SHUFFLE, map_id, len(records),
            _bucket_lists(records, self.nparts))

    def lose(self, executor_id: int) -> None:
        lost = self.env.tracker.unregister_executor(executor_id)
        assert sorted(lost) == sorted(
            (SHUFFLE, m) for m, out in self.ref_outputs.items()
            if out[0] == executor_id)
        for _, map_id in lost:
            del self.ref_outputs[map_id]

    def read(self, reduce_id: int, executor_id: int = 0):
        """The fetch under test and the reference's, compared call by
        call; returns the fetched records."""
        n_maps = len(self.ref_outputs)
        assert self.env.tracker.complete(SHUFFLE, n_maps)
        got = _run(ShuffleReader(self.env).read_steps(
            self.rec, self.env.executors[executor_id], SHUFFLE, reduce_id,
            n_maps))
        want = reference_read(
            self.ref_rec, self.ref_env.executors[executor_id], self.ref_env,
            SHUFFLE, reduce_id,
            [self.ref_outputs[m] for m in range(n_maps)])
        assert type(got) is type(want)
        if type(want) is not list:
            assert got.values.dtype == want.values.dtype
        assert _bits(got) == _bits(want)
        assert self.rec.log == self.ref_rec.log
        return got


#: few keys (buckets repeat and stay empty), and ones past 2**53
_KEYS = st.one_of(st.integers(-3, 6), st.sampled_from([2**53 + 1, -2**62]))
_FLOATS = st.floats(allow_nan=False)
_INTS = st.integers(-2**63, 2**63 - 1)


@st.composite
def _map_output(draw):
    """One map's records: a pair block, a key block or a list, maybe
    empty."""
    kind = draw(st.sampled_from(["pairs", "keys", "list"]))
    if kind == "list":
        return draw(st.lists(st.tuples(
            st.one_of(_KEYS, st.sampled_from(["a", "b"])),
            st.one_of(_INTS, st.floats(), st.none())), max_size=8))
    floats = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(_KEYS, _FLOATS if floats else _INTS),
                          max_size=8))
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs],
                      dtype=np.float64 if floats else np.int64)
    if kind == "keys":
        return PairBlock(keys, values, pair_keyed=True)
    if floats and pairs and draw(st.booleans()):
        values[draw(st.integers(0, len(pairs) - 1))] = math.nan
    return PairBlock(keys, values)


class TestReduceMajorRead:
    @given(maps=st.lists(st.tuples(_map_output(), st.integers(0, 3)),
                         min_size=1, max_size=6),
           nodes=st.lists(st.integers(0, 2), min_size=4, max_size=4),
           nparts=st.integers(1, 5), scale=st.sampled_from([1, 3]),
           transport=st.sampled_from(["socket", "rdma"]),
           order=st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_bucket_shuffle(self, maps, nodes, nparts, scale,
                                           transport, order):
        shuffle = Shuffle(nodes, nparts, scale, transport)
        for map_id, (records, executor_id) in enumerate(maps):
            shuffle.write(map_id, executor_id, records)
        assert shuffle.rec.log == shuffle.ref_rec.log
        reducers = list(range(nparts)) * 2
        order.shuffle(reducers)
        for reduce_id in reducers:
            shuffle.read(reduce_id, executor_id=order.randrange(4))

    def test_the_result_kind_follows_the_reducers_nonempty_buckets(self):
        """Float pairs on two maps, int pairs on a third, a list on a
        fourth and an empty map: each reducer's input is a block only
        where its non-empty buckets share a kind and a dtype."""
        shuffle = Shuffle([0, 1, 2], nparts=4)
        floats = PairBlock(np.array([0, 1, 2, 3]), np.array([.5, -0., 1., 2.]))
        ints = PairBlock(np.array([1, 2]), np.array([7, 8]))
        shuffle.write(0, 0, floats)
        shuffle.write(1, 1, floats[:1])
        shuffle.write(2, 2, ints)
        shuffle.write(3, 0, [(3, "x")])
        shuffle.write(4, 1, PairBlock(np.array([], dtype=np.int64),
                                      np.array([])))
        kinds = [type(shuffle.read(r)).__name__ for r in range(4)]
        assert kinds == ["PairBlock", "list", "list", "list"]
        assert _bits(shuffle.read(1)) == _bits([(1, -0.0), (1, 7)])

    def test_a_node_with_nothing_for_a_reducer_still_sends_a_byte(self):
        shuffle = Shuffle([0, 1], nparts=2)
        shuffle.write(0, 0, PairBlock(np.array([0, 1]), np.array([1., 2.])))
        shuffle.write(1, 1, PairBlock(np.array([0, 2]), np.array([3., 4.])))
        shuffle.read(1, executor_id=0)
        assert ("transmit", "fabric", 1, 0, 1, int,
                "shuffle:3->1") in shuffle.rec.log

    def test_nothing_arrives_as_an_empty_list(self):
        shuffle = Shuffle([0], nparts=3)
        shuffle.write(0, 0, PairBlock(np.array([1]), np.array([1.])))
        assert shuffle.read(0) == []


class TestLayoutLifetime:
    @staticmethod
    def pairs(*keys, value=1.0):
        return PairBlock(np.array(keys, dtype=np.int64),
                         np.full(len(keys), value))

    def test_a_map_registered_again_reaches_later_fetches(self):
        shuffle = Shuffle([0, 1], nparts=2)
        shuffle.write(0, 0, self.pairs(0, 1, 2))
        shuffle.write(1, 1, [(0, "a"), (1, "b")])
        shuffle.read(0)  # lays the shuffle out
        shuffle.write(0, 1, self.pairs(0, 1, 3, value=2.0))
        shuffle.write(1, 0, [(1, "c")])
        for reduce_id in (0, 1, 0):
            shuffle.read(reduce_id)
        assert shuffle.read(1)[0] == (1, 2.0)

    def test_a_lost_executors_maps_rerun_and_reach_later_fetches(self):
        shuffle = Shuffle([0, 0, 1], nparts=3)
        shuffle.write(0, 0, self.pairs(0, 1, 2))
        shuffle.write(1, 1, self.pairs(1, 4))
        shuffle.write(2, 2, [(2, "x"), (5, "y")])
        for reduce_id in range(3):
            shuffle.read(reduce_id)
        shuffle.lose(1)
        assert not shuffle.env.tracker.complete(SHUFFLE, 3)
        assert shuffle.env.tracker.missing_maps(SHUFFLE, 3) == [1]
        # the re-run map writes other records, from another node
        shuffle.write(1, 2, self.pairs(1, 2, 7, value=-0.0))
        for reduce_id in (2, 1, 0, 1):
            shuffle.read(reduce_id)
        assert _bits(shuffle.read(1)) == _bits(
            [(1, 1.0), (1, -0.0), (7, -0.0)])

    def test_the_layout_holds_the_records_once(self):
        shuffle = Shuffle([0, 1], nparts=2)
        shuffle.write(0, 0, self.pairs(0, 1))
        shuffle.write(1, 1, self.pairs(1, 2))
        outputs = shuffle.env.tracker._outputs
        shuffle.read(0)
        assert all(out[1] is None for out in outputs.values())
        # registering again hands every map back its records
        shuffle.write(1, 1, self.pairs(3))
        assert [out[1].keys.tolist() for out in outputs.values()] == [
            [0, 1], [3]]

    def test_stats_count_the_write_side(self):
        shuffle = Shuffle([0, 1], nparts=2)
        shuffle.write(0, 0, self.pairs(0, 1, 2))
        shuffle.write(1, 1, [(0, "a")])
        before = shuffle.env.tracker.shuffle_stats()
        shuffle.read(0)
        assert shuffle.env.tracker.shuffle_stats() == before
        sizes = [sum(out[1]) for out in shuffle.ref_outputs.values()]
        assert before == {SHUFFLE: {"maps": 2, "records": 4,
                                    "nbytes": sum(sizes)}}


class TestFetchedBlocksAreReadOnly:
    def test_columns_refuse_writes(self):
        shuffle = Shuffle([0, 1], nparts=2)
        shuffle.write(0, 0, PairBlock(np.array([0, 2]), np.array([1., 2.])))
        shuffle.write(1, 1, PairBlock(np.array([0]), np.array([3.])))
        got = shuffle.read(0)
        assert type(got) is PairBlock
        assert not got.keys.flags.writeable
        assert not got.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got.values[0] = 0.0
        assert _bits(shuffle.read(0)) == _bits([(0, 1.0), (2, 2.0), (0, 3.0)])

    def test_a_reduce_task_gets_read_only_columns(self):
        sc = SparkContext(
            Cluster(TESTING_MACHINE, trace=forced_trace()),
            executors_per_node=2, app_startup=0.1)

        def flags(_i, records):
            if type(records) is not PairBlock:
                return []
            return [(records.keys.flags.writeable,
                     records.values.flags.writeable)]

        def app(sc):
            pairs = sc.parallelize(list(range(40)), 4).map_partitions(
                lambda _i, xs: PairBlock(np.array(xs, dtype=np.int64),
                                         np.array(xs, dtype=np.float64)))
            return pairs.partition_by(3).map_partitions(flags).collect()

        assert sc.run(app).value == [(False, False)] * 3


class TestRecoveryReachesTheReduces:
    def test_reduces_after_a_rerun_see_the_new_map_outputs(self):
        """An executor is lost after the shuffle's first fetch; the job
        re-runs its maps, which write other records, and every record a
        reduce hands out comes from the latest run of its map."""
        sc = SparkContext(
            Cluster(TESTING_MACHINE, trace=forced_trace()),
            executors_per_node=2, app_startup=0.1)
        runs: Counter[int] = Counter()
        armed = [True]

        def tag(i, records):
            runs[i] += 1
            return [(k, (i, runs[i])) for k in records]

        def app(sc):
            shuffled = sc.parallelize(list(range(40)), 4)\
                .map_partitions(tag).partition_by(4)
            shuffle_id = shuffled.shuffle_dep.shuffle_id

            def poison(kv):
                if armed[0]:
                    armed[0] = False
                    assert sc.env.tracker.unregister_executor(executor_id=0)
                    raise sched.FetchFailedError(shuffle_id)
                return kv

            return shuffled.map(poison).collect()

        out = sc.run(app).value
        assert sorted(k for k, _ in out) == list(range(40))
        assert max(runs.values()) == 2
        assert all(run == runs[m] for _, (m, run) in out)
