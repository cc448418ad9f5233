"""RDD semantics: every transformation/action vs a plain-Python reference."""

from __future__ import annotations

import operator
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.errors import SimProcessError, SparkError
from repro.fs import HDFS, LineContent, LocalFS
from repro.spark import SparkContext
from tests.conftest import TESTING_MACHINE


def make_sc(nodes=2, executors_per_node=2, **kw):
    cl = Cluster(TESTING_MACHINE.with_nodes(nodes))
    kw.setdefault("app_startup", 0.1)
    return SparkContext(cl, executors_per_node=executors_per_node, **kw)


def run_app(app, **kw):
    return make_sc(**kw).run(app).value


class TestBasicTransformations:
    def test_map(self):
        got = run_app(lambda sc: sc.parallelize(range(10), 4).map(lambda x: x * x).collect())
        assert got == [x * x for x in range(10)]

    def test_flat_map(self):
        got = run_app(lambda sc: sc.parallelize(["a b", "c d e"], 2)
                      .flat_map(str.split).collect())
        assert got == ["a", "b", "c", "d", "e"]

    def test_chained_transformations(self):
        def app(sc):
            return (sc.parallelize(range(100), 8)
                    .map(lambda x: x + 1)
                    .flat_map(lambda x: [x] if x % 2 == 0 else [])
                    .map(lambda x: x // 2)
                    .collect())

        assert run_app(app) == [x // 2 for x in range(1, 101) if x % 2 == 0]

    def test_map_values_and_keys(self):
        def app(sc):
            rdd = sc.parallelize([("a", 1), ("b", 2)], 2)
            return (rdd.map_values(lambda v: v * 10).collect(),
                    rdd.keys().collect(), rdd.values().collect())

        vals, keys, values = run_app(app)
        assert vals == [("a", 10), ("b", 20)]
        assert keys == ["a", "b"]
        assert values == [1, 2]

    def test_distinct(self):
        got = run_app(lambda sc: sc.parallelize([1, 2, 2, 3, 3, 3], 3).distinct().collect())
        assert sorted(got) == [1, 2, 3]


class TestActions:
    def test_count_and_sum(self):
        def app(sc):
            rdd = sc.parallelize(range(100), 8)
            return rdd.count(), rdd.sum()

        assert run_app(app) == (100, 4950)

    def test_reduce(self):
        got = run_app(lambda sc: sc.parallelize(range(1, 11), 4).reduce(lambda a, b: a * b))
        assert got == 3628800

    def test_reduce_empty_raises(self):
        def app(sc):
            return sc.parallelize([], 2).reduce(lambda a, b: a + b)

        with pytest.raises(SimProcessError) as ei:
            run_app(app)
        assert isinstance(ei.value.__cause__, SparkError)

    def test_fold_and_aggregate(self):
        def app(sc):
            rdd = sc.parallelize(range(10), 3)
            folded = rdd.fold(0, lambda a, b: a + b)
            agg = rdd.aggregate((0, 0),
                                lambda acc, x: (acc[0] + x, acc[1] + 1),
                                lambda a, b: (a[0] + b[0], a[1] + b[1]))
            return folded, agg

        assert run_app(app) == (45, (45, 10))

    def test_count_by_key(self):
        def app(sc):
            return sc.parallelize([("a", 1), ("a", 2), ("b", 3)],
                                  2).count_by_key()

        assert run_app(app) == {"a": 2, "b": 1}

    def test_accumulator_added_in_a_map(self):
        def app(sc):
            acc = sc.accumulator(0)
            sc.parallelize(range(50), 4).map(lambda x: acc.add(x)).count()
            return acc.value

        assert run_app(app) == sum(range(50))


class TestShuffles:
    def test_reduce_by_key(self):
        def app(sc):
            pairs = sc.parallelize([(i % 5, 1) for i in range(100)], 8)
            return dict(pairs.reduce_by_key(lambda a, b: a + b, 4).collect())

        assert run_app(app) == {k: 20 for k in range(5)}

    def test_group_by_key(self):
        def app(sc):
            pairs = sc.parallelize([("a", 1), ("b", 2), ("a", 3)], 3)
            return {k: sorted(v) for k, v in pairs.group_by_key(2).collect()}

        assert run_app(app) == {"a": [1, 3], "b": [2]}

    def test_group_by_key_is_linear_in_one_keys_values(self):
        # a str key takes the scalar merge; copying the accumulator per
        # value made it quadratic (100 k values: 13.6 s), appending in
        # place takes well under a second
        n = 120_000

        def app(sc):
            pairs = sc.parallelize([("hot", i) for i in range(n)], 4)
            return pairs.group_by_key(2).collect()

        start = time.perf_counter()
        [(key, values)] = run_app(app)
        elapsed = time.perf_counter() - start
        assert key == "hot" and values == list(range(n))
        assert elapsed < 6.0, f"group_by_key took {elapsed:.1f} s"

    def test_join(self):
        def app(sc):
            left = sc.parallelize([("a", 1), ("b", 2), ("a", 3)], 2)
            right = sc.parallelize([("a", "x"), ("c", "y")], 2)
            return sorted(left.join(right, 2).collect())

        assert run_app(app) == [("a", (1, "x")), ("a", (3, "x"))]

    def test_partition_by_sets_partitioner(self):
        def app(sc):
            rdd = sc.parallelize([(i, i) for i in range(20)], 4).partition_by(5)
            again = rdd.partition_by(5)
            return rdd.num_partitions, again is rdd, sorted(rdd.collect())

        n, same, recs = run_app(app)
        assert n == 5
        assert same  # already partitioned: no-op, no extra shuffle
        assert recs == [(i, i) for i in range(20)]

    @staticmethod
    def _reverse_each_group(_i, it):
        """A consumer that reverses every group's value list in place."""
        out = []
        for k, vs in it:
            vs.reverse()
            out.append((k, tuple(vs)))
        return out

    #: name -> the RDD one action runs twice; each consumer mutates the
    #: records it is handed, as a Spark task may mutate what it fetched
    REPEATED = {
        "partition_by": lambda sc: sc.parallelize(
            [(3, "a"), (1, "b"), (2, "c"), (5, "d")], 2).partition_by(2)
        .map_partitions(lambda _i, it: (it.reverse(), it)[1]),
        "join": lambda sc: sc.parallelize(
            [(1, "a"), (2, "b"), (1, "c"), (2, "d")], 2)
        .partition_by(2).cache()
        .join(sc.parallelize([(1, "x"), (2, "y")], 2).partition_by(2), 2)
        .map_partitions(lambda _i, it: (it.reverse(), it)[1]),
        "group_by_key": lambda sc: sc.parallelize(
            [(1, "a"), (2, "b"), (1, "c"), (2, "d"), (1, "e")], 2)
        .group_by_key(2).map_partitions(TestShuffles._reverse_each_group),
    }

    @pytest.mark.parametrize("name", sorted(REPEATED))
    def test_an_action_run_twice_sees_the_same_records(self, name):
        """A second action recomputes from fresh shuffle records: what the
        first action's consumer did to its input does not leak into it."""
        def app(sc):
            rdd = self.REPEATED[name](sc)
            return rdd.collect(), rdd.collect()

        first, second = run_app(app)
        assert first and second == first

    @given(data=st.lists(st.tuples(st.integers(0, 10), st.integers(-5, 5)),
                         max_size=60),
           nparts=st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_reduce_by_key_matches_reference(self, data, nparts):
        def app(sc):
            return dict(sc.parallelize(data, nparts)
                        .reduce_by_key(lambda a, b: a + b, 3).collect())

        ref: dict = {}
        for k, v in data:
            ref[k] = ref.get(k, 0) + v
        assert run_app(app) == ref

    @given(chain=st.lists(st.sampled_from(["map", "filter", "flatmap"]),
                          max_size=4),
           n=st.integers(0, 40))
    @settings(max_examples=15, deadline=None)
    def test_narrow_chains_match_reference(self, chain, n):
        ops = {
            "map": (lambda rdd: rdd.map(lambda x: x + 1),
                    lambda xs: [x + 1 for x in xs]),
            "filter": (lambda rdd: rdd.flat_map(
                           lambda x: [x] if x % 2 == 0 else []),
                       lambda xs: [x for x in xs if x % 2 == 0]),
            "flatmap": (lambda rdd: rdd.flat_map(lambda x: [x, -x]),
                        lambda xs: [y for x in xs for y in (x, -x)]),
        }

        def app(sc):
            rdd = sc.parallelize(range(n), 3)
            for op in chain:
                rdd = ops[op][0](rdd)
            return rdd.collect()

        ref = list(range(n))
        for op in chain:
            ref = ops[op][1](ref)
        assert run_app(app) == ref


class TestKeyedErrors:
    """A keyed shuffle's record that does not unpack as ``(key, value)``
    raises one ``SparkError`` naming it, on whichever side of the shuffle
    meets it; an exception of the user's own functions reaches the driver
    unchanged."""

    #: name -> (the malformed record, the keyed op meeting it): the
    #: map-side combine, the bucketing, or the reduce-side merge
    SHAPES = {
        "reduce_by_key over triples": (
            (1, 2, 3), lambda rdd: rdd.reduce_by_key(operator.add)),
        "reduce_by_key(sum) over triples": (
            (1, 2, 3),
            lambda rdd: rdd.reduce_by_key(operator.add, vector="sum")),
        "group_by_key over triples": (
            (1, 2, 3), lambda rdd: rdd.group_by_key()),
        "reduce_by_key over ints": (
            7, lambda rdd: rdd.reduce_by_key(operator.add)),
        "group_by_key over ints": (7, lambda rdd: rdd.group_by_key()),
        # the unaggregated shuffle: the bucketing alone meets the record
        "partition_by over strs": ("abc", lambda rdd: rdd.partition_by(2)),
    }

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_a_non_pair_record_raises_one_spark_error(self, name):
        bad, op = self.SHAPES[name]
        with pytest.raises(SimProcessError) as ei:
            run_app(lambda sc: op(
                sc.parallelize([(1, 2.0), bad, (2, 3.0)], 2)).collect())
        cause = ei.value.__cause__
        assert type(cause) is SparkError
        assert str(cause) == (
            f"keyed shuffle record is not a (key, value) pair: {bad!r}")

    #: key 1 twice in map partition 0 and once in partition 1
    PAIRS = [(1, 2), (1, 3), (1, 4), (2, 5)]

    #: name -> (records, partitions, the op with ``boom`` as one function)
    USER = {
        "create on the map side": (PAIRS, 2, lambda rdd, boom: rdd
                                   .combine_by_key(boom, operator.add,
                                                   operator.add)),
        "merge_value on the map side": (PAIRS, 2, lambda rdd, boom: rdd
                                        .reduce_by_key(boom)),
        "merge_combiners on the reduce side": (
            PAIRS, 2, lambda rdd, boom: rdd.combine_by_key(
                lambda v: v, operator.add, boom)),
        "merge_value on the reduce side": (
            PAIRS, 2, lambda rdd, boom: rdd.combine_by_key(
                lambda v: v, boom, operator.add, map_side_combine=False)),
        "a merge failing before a malformed record": (
            [(1, 2), (1, 3), (1, 2, 3)], 1,
            lambda rdd, boom: rdd.reduce_by_key(boom)),
    }

    @pytest.mark.parametrize("name", sorted(USER))
    def test_a_user_error_reaches_the_driver_unchanged(self, name):
        records, nparts, op = self.USER[name]
        raised: list[TypeError] = []

        def boom(*args):
            raised.append(TypeError(f"boom{args!r}"))
            raise raised[-1]

        with pytest.raises(SimProcessError) as ei:
            run_app(lambda sc: op(sc.parallelize(records, nparts),
                                  boom).collect())
        # reported by the task, not crashing its executor
        assert ei.value.process_name == "spark:driver"
        assert any(ei.value.__cause__ is exc for exc in raised)


class TestTextFile:
    def test_hdfs_partitions_follow_blocks(self):
        cl = Cluster(TESTING_MACHINE)
        h = HDFS(cl, block_size=1000, replication=2)
        h.create("t.txt", LineContent(lambda i: f"line-{i:03d}", 200))
        sc = SparkContext(cl, executors_per_node=2, app_startup=0.1)

        def app(sc):
            rdd = sc.text_file("hdfs://t.txt")
            return rdd.num_partitions, rdd.collect()

        nparts, lines = sc.run(app).value
        assert nparts == len(h.blocks("t.txt"))
        assert lines == [f"line-{i:03d}" for i in range(200)]

    def test_local_file_read(self):
        cl = Cluster(TESTING_MACHINE)
        fs = LocalFS(cl)
        fs.create_replicated("l.txt", LineContent(lambda i: str(i), 50))
        sc = SparkContext(cl, executors_per_node=2, app_startup=0.1)
        got = sc.run(lambda sc: sc.text_file("local://l.txt", 4).collect()).value
        assert got == [str(i) for i in range(50)]
