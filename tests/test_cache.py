"""The content-addressed artifact cache (``repro.cache``).

Covers the store primitives (atomic publish, mmap open, checksum
verification), key derivation (canonical encoding, cross-process
stability), the result codec's exactness, and the end-to-end discipline:
cold, warm, ``--no-cache`` and ``--refresh`` runs of one experiment are
byte-identical, and corrupted or version-mismatched entries are detected
and regenerated, never served.

Property-based round-trips use Hypothesis when it is installed and skip
cleanly when it is not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False

import repro.cache as cache
import repro.cache.store as store_mod
from repro.__main__ import main as cli
from repro.cache import (ArtifactStore, UncacheableError, cache_key,
                         code_version, decode_result, encode_result,
                         encode_value, keyed_content, resolve_content)
from repro.core.report import FigureResult, Series, TableResult
from repro.fs.content import LineContent, MappedContent
from repro.platform import CachePlan, Unit, run_suite, unit_cache_key
from repro.sim.blocks import RecordBlock
from repro.workloads.stackexchange import StackExchangeSpec


@pytest.fixture
def cache_store(tmp_path, monkeypatch):
    """An active store under ``tmp_path``, hermetically torn down."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    prev_active = store_mod._active
    prev_init = store_mod._initialized
    store = cache.configure(tmp_path / "store")
    yield store
    cache.configure(None)  # fires invalidation hooks (generator memos)
    store_mod._active = prev_active
    store_mod._initialized = prev_init


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------


class TestKeys:
    def test_injective_across_types(self):
        values = [None, True, False, 1, 1.0, "1", b"1", (1,), [1], {1},
                  {"a": 1}, 0, 0.0, -0.0, ""]
        encodings = [encode_value(v) for v in values]
        assert len(set(encodings)) == len(encodings)

    def test_dict_and_set_order_independent(self):
        assert encode_value({"a": 1, "b": 2}) == encode_value({"b": 2, "a": 1})
        assert encode_value({3, 1, 2}) == encode_value({2, 3, 1})

    def test_float_exactness(self):
        assert encode_value(0.1) != encode_value(0.1 + 1e-17) or \
            0.1 == 0.1 + 1e-17
        assert encode_value(0.5) != encode_value(0.5000000000000001)

    def test_dataclass_spec_encodes_fields(self):
        a = encode_value(StackExchangeSpec(n_posts=10))
        b = encode_value(StackExchangeSpec(n_posts=11))
        assert a != b
        assert "StackExchangeSpec" in a

    def test_unencodable_raises(self):
        with pytest.raises(UncacheableError):
            encode_value(object())
        with pytest.raises(UncacheableError):
            encode_value(lambda: None)
        with pytest.raises(UncacheableError):
            cache_key("x", {"fn": print})

    def test_subclass_rejected(self):
        class MyInt(int):
            pass

        with pytest.raises(UncacheableError):
            encode_value(MyInt(3))

    def test_key_is_hex_sha256(self):
        key = cache_key("dataset", "name", {"n": 1})
        assert len(key) == 64
        int(key, 16)

    def test_key_stable_across_processes(self):
        """The same inputs must key identically in a fresh interpreter."""
        parts = ("unit-result", "abcd", "fig4",
                 {"proc_counts": (8,), "logical_size": 10**9,
                  "spec": StackExchangeSpec(n_posts=123)})
        script = (
            "from repro.cache import cache_key\n"
            "from repro.workloads.stackexchange import StackExchangeSpec\n"
            "print(cache_key('unit-result', 'abcd', 'fig4',"
            " {'proc_counts': (8,), 'logical_size': 10**9,"
            " 'spec': StackExchangeSpec(n_posts=123)}))\n")
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"  # a colliding key must not rely on it
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == cache_key(*parts)

    def test_code_version_format_and_memo(self):
        v = code_version()
        assert len(v) == 16
        int(v, 16)
        assert code_version() == v


# ---------------------------------------------------------------------------
# store primitives
# ---------------------------------------------------------------------------


class TestStore:
    def test_dataset_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = cache_key("dataset", "t", 1)
        store.publish_dataset(key, b"alpha\nbeta\n", meta={"name": "t"})
        m = store.open_dataset(key)
        assert isinstance(m, MappedContent)
        assert m.read_all() == b"alpha\nbeta\n"
        assert m.read(6, 4) == b"beta"
        assert list(m.lines()) == ["alpha", "beta"]
        assert store.entry_count("datasets") == 1

    def test_empty_payload(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish_dataset("k" * 64, b"")
        m = store.open_dataset("k" * 64)
        assert m is not None and m.size == 0 and m.read_all() == b""

    def test_missing_store_is_all_misses(self, tmp_path):
        store = ArtifactStore(tmp_path / "never-created")
        assert store.open_dataset("0" * 64) is None
        assert store.load_result("0" * 64) is None
        assert store.entry_count("datasets") == 0
        assert store.info()["planes"] == {"datasets": 0, "results": 0}

    def test_corrupted_payload_rejected_and_dropped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "a" * 64
        store.publish_dataset(key, b"payload bytes here\n")
        store._payload(key).write_bytes(b"payload bytes hXre\n")  # flip a byte
        assert store.open_dataset(key) is None       # never served
        assert store.entry_count("datasets") == 0    # dropped
        assert not store._payload(key).exists()

    def test_truncated_payload_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "b" * 64
        store.publish_dataset(key, b"0123456789\n")
        store._payload(key).write_bytes(b"0123\n")
        assert store.open_dataset(key) is None

    def test_unparseable_sidecar_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "c" * 64
        store.publish_dataset(key, b"data\n")
        store._entry("datasets", key).write_text("{not json")
        assert store.open_dataset(key) is None
        assert store.entry_count("datasets") == 0

    def test_format_version_mismatch_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "d" * 64
        store.publish_dataset(key, b"data\n")
        sidecar = json.loads(store._entry("datasets", key).read_text())
        sidecar["format"] = cache.FORMAT_VERSION + 1
        store._entry("datasets", key).write_text(json.dumps(sidecar))
        assert store.open_dataset(key) is None
        # regeneration works on the same key afterwards
        store.publish_dataset(key, b"data\n")
        assert store.open_dataset(key).read_all() == b"data\n"

    def test_leftover_tmp_file_is_ignored(self, tmp_path):
        """A writer crash between tmp write and rename leaves only noise."""
        store = ArtifactStore(tmp_path)
        key = "e" * 64
        store.publish_dataset(key, b"good\n")
        # simulate a concurrent writer that died mid-publish
        stray = store._entry("datasets", key).with_name(
            f"{key}.json.tmp-99999")
        stray.write_text("partial garbage")
        (tmp_path / "datasets" / f"{key}.bin.tmp-99999").write_bytes(b"par")
        assert store.entry_count("datasets") == 1
        assert store.open_dataset(key).read_all() == b"good\n"

    def test_result_round_trip_and_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payload = {"kind": "table", "table_id": "T", "title": "t",
                   "headers": ["h"], "rows": [["v"]]}
        store.store_result("f" * 64, payload, meta={"wall_s": 1.5})
        entry = store.load_result("f" * 64)
        assert entry["payload"] == payload
        assert entry["meta"]["wall_s"] == 1.5
        # tamper with the payload -> checksum mismatch -> miss + drop
        raw = json.loads(store._entry("results", "f" * 64).read_text())
        raw["payload"]["rows"] = [["tampered"]]
        store._entry("results", "f" * 64).write_text(json.dumps(raw))
        assert store.load_result("f" * 64) is None
        assert store.entry_count("results") == 0

    def test_concurrent_publish_converges(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "9" * 64
        store.publish_dataset(key, b"same bytes\n")
        store.publish_dataset(key, b"same bytes\n")  # racer, same content
        assert store.entry_count("datasets") == 1
        assert store.open_dataset(key).read_all() == b"same bytes\n"


@pytest.mark.skipif(not HAS_HYPOTHESIS, reason="hypothesis not installed")
class TestStoreProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=4096))
    def test_dataset_write_read_byte_identity(self, tmp_path_factory, data):
        store = ArtifactStore(tmp_path_factory.mktemp("s"))
        key = cache_key("prop", data)
        store.publish_dataset(key, data)
        m = store.open_dataset(key)
        assert m is not None
        assert m.read_all() == data
        assert m.size == len(data)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(-2**31, 2**31),
        st.one_of(st.none(),
                  st.floats(allow_nan=False),
                  st.integers(-2**53, 2**53))), max_size=20))
    def test_figure_result_exact_round_trip(self, points):
        fig = FigureResult("F", "t", "x", "y", series=[Series("s", points)])
        back = decode_result(encode_result(fig))
        assert back == fig
        from repro.platform import fingerprint_result

        assert fingerprint_result(back) == fingerprint_result(fig)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.text(max_size=30), min_size=1, max_size=4),
                    max_size=10))
    def test_table_result_round_trip(self, rows):
        width = len(rows[0]) if rows else 1
        table = TableResult("T", "t", ["h"] * width,
                            [row[:width] + [""] * (width - len(row[:width]))
                             for row in rows])
        assert decode_result(encode_result(table)) == table

    @settings(max_examples=60, deadline=None)
    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text(max_size=20),
                  st.binary(max_size=20)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4)),
        max_leaves=12))
    def test_encoding_is_deterministic_and_total(self, value):
        assert encode_value(value) == encode_value(value)
        assert cache_key(value) == cache_key(value)


class TestResultCodec:
    def test_float_bits_survive(self):
        y = 0.1 + 0.2  # 0.30000000000000004
        fig = FigureResult("F", "t", "x", "y",
                           series=[Series("s", [(1, y)])])
        back = decode_result(encode_result(fig))
        assert back.series[0].points[0][1].hex() == y.hex()

    def test_value_types_distinguished(self):
        fig = FigureResult("F", "t", "x", "y", series=[
            Series("s", [(1, 1.0), (True, None), ("1", 2)])])
        back = decode_result(encode_result(fig))
        xs = [type(x) for x, _ in back.series[0].points]
        assert xs == [int, bool, str]
        assert type(back.series[0].points[0][1]) is float
        assert type(back.series[0].points[2][1]) is int

    def test_unsupported_value_refused(self):
        fig = FigureResult("F", "t", "x", "y",
                           series=[Series("s", [(1, object())])])
        with pytest.raises(UncacheableError):
            encode_result(fig)
        assert cache.try_encode_result(fig) is None

    def test_non_string_table_cell_refused(self):
        table = TableResult("T", "t", ["h"], [[3.14]])
        with pytest.raises(UncacheableError):
            encode_result(table)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            decode_result({"kind": "mystery"})


# ---------------------------------------------------------------------------
# mapped content + record blocks over maps
# ---------------------------------------------------------------------------


class TestMappedContent:
    def test_matches_line_content(self, cache_store):
        lc = LineContent(lambda i: f"row-{i:04d}", 257)
        mapped = keyed_content("t", ("rows", 257), lambda: lc)
        assert isinstance(mapped, MappedContent)
        assert mapped.size == lc.size
        assert mapped.read_all() == lc.read_all()
        assert mapped.read(10, 25) == lc.read(10, 25)
        assert mapped.read(mapped.size - 3, 99) == lc.read(lc.size - 3, 99)
        assert list(mapped.lines()) == list(lc.lines())

    def test_view_is_zero_copy(self, cache_store):
        mapped = keyed_content("t", ("v",),
                               lambda: LineContent(lambda i: str(i), 10))
        view = mapped.view()
        assert isinstance(view, memoryview)
        assert bytes(view) == mapped.read_all()

    def test_record_block_over_map_equals_bytes(self, cache_store):
        mapped = keyed_content("t", ("rb",),
                               lambda: LineContent(lambda i: f"line{i}", 50))
        data = mapped.read_all()
        over_map = RecordBlock(mapped.buffer)
        over_bytes = RecordBlock(data)
        assert len(over_map) == len(over_bytes)
        assert list(over_map) == list(over_bytes)
        assert over_map.decode_all() == over_bytes.decode_all()
        assert over_map[3] == over_bytes[3]
        assert list(over_map[2:5]) == list(over_bytes[2:5])

    def test_record_block_over_memoryview(self):
        data = b"a\nbb\nccc"
        mv = RecordBlock(memoryview(data))
        assert list(mv) == [b"a", b"bb", b"ccc"]
        assert all(type(r) is bytes for r in mv)


# ---------------------------------------------------------------------------
# dataset plane wiring
# ---------------------------------------------------------------------------


class TestDatasetPlane:
    def test_keyed_content_miss_then_hit(self, cache_store):
        built = []

        def build():
            built.append(1)
            return LineContent(lambda i: f"x{i}", 20)

        first = keyed_content("gen", ("a", 1), build)
        second = keyed_content("gen", ("a", 1), build)
        assert len(built) == 1  # second call served from the store
        assert first.read_all() == second.read_all()
        stats = cache.dataset_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_uncacheable_spec_falls_back_to_builder(self, cache_store):
        content = keyed_content("gen", object(),
                                lambda: LineContent(lambda i: str(i), 5))
        assert isinstance(content, LineContent)

    def test_no_store_tags_for_later_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        prev_active, prev_init = store_mod._active, store_mod._initialized
        try:
            cache.configure(None)
            content = keyed_content("gen", ("tag",),
                                    lambda: LineContent(lambda i: str(i), 7))
            assert isinstance(content, LineContent)
            assert content.cache_meta["name"] == "gen"
            # a store configured later resolves the tagged content into it
            cache.configure(tmp_path / "late")
            resolved = resolve_content(content)
            assert isinstance(resolved, MappedContent)
            assert resolved.read_all() == content.read_all()
        finally:
            cache.configure(None)
            store_mod._active, store_mod._initialized = prev_active, prev_init

    def test_generator_content_identical_with_and_without_store(
            self, cache_store):
        from repro.workloads.stackexchange import stackexchange_content

        spec = StackExchangeSpec(n_posts=300)
        with_store = stackexchange_content(spec).read_all()
        cache.configure(None)  # clears the generator memo via the hook
        without_store = stackexchange_content(spec).read_all()
        assert with_store == without_store

    def test_session_stages_mapped_content(self, cache_store):
        from repro.platform import Dataset, ScenarioSpec

        content = keyed_content("stage", ("s",),
                                lambda: LineContent(lambda i: f"l{i}", 64))
        spec = ScenarioSpec(nodes=1, procs_per_node=2, datasets=(
            Dataset("in.txt", content, scale=2, on=("local",)),))
        session = spec.session()
        staged = session.local.lookup("in.txt")
        assert isinstance(staged.content, MappedContent)
        assert staged.logical_size == 2 * content.size


# ---------------------------------------------------------------------------
# result plane + end-to-end differentials
# ---------------------------------------------------------------------------

#: small fig4 so the differential runs in seconds
FIG4_MINI = {"fig4": {"proc_counts": (8, 16), "logical_size": 10**8,
                      "spec": StackExchangeSpec(n_posts=1200)}}


class TestResultPlane:
    def test_unit_cache_key_covers_code_params_and_variant(self):
        plan = CachePlan("/s", "c0de", False)
        unit = Unit("fig4", 0, 1, {"proc_counts": (8,)})
        base = unit_cache_key(plan, unit)
        assert base is not None
        assert unit_cache_key(
            CachePlan("/s", "c0de", True), unit) == base  # refresh ≠ key
        assert unit_cache_key(CachePlan("/s", "beef", False), unit) != base
        assert unit_cache_key(
            plan, Unit("fig4", 0, 1, {"proc_counts": (16,)})) != base
        # a machine variant keys apart; naming the default does not
        assert unit_cache_key(plan, Unit("fig4", 0, 1, {
            "proc_counts": (8,), "machine": "commodity-eth"})) != base
        assert unit_cache_key(plan, Unit("fig4", 0, 1, {
            "proc_counts": (8,), "machine": "comet"})) == base
        assert unit_cache_key(
            plan, Unit("fig4", 0, 1, {"fn": print})) is None

    def test_cold_warm_nocache_refresh_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        store_dir = tmp_path / "store"
        cold = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir)
        warm = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir)
        off = run_suite(["fig4"], overrides=FIG4_MINI, cache=False)
        refresh = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir,
                            refresh_cache=True)
        fps = {s.fingerprints()["fig4"]
               for s in (cold, warm, off, refresh)}
        assert len(fps) == 1
        assert cold.cache["misses"] == 2 and cold.cache["hits"] == 0
        assert warm.cache["hits"] == 2 and warm.cache["misses"] == 0
        assert off.cache is None
        assert refresh.cache["hits"] == 0 and refresh.cache["refresh"]
        assert warm.results["fig4"].render() == cold.results["fig4"].render()

    def test_warm_run_across_processes(self, tmp_path, monkeypatch):
        """Spawn workers must hit entries a previous process stored."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        store_dir = tmp_path / "store"
        cold = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir)
        warm = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir,
                         workers=2)
        assert warm.cache["hits"] == 2
        assert warm.fingerprints() == cold.fingerprints()

    def test_corrupted_result_entry_reexecutes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        store_dir = tmp_path / "store"
        cold = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir)
        store = ArtifactStore(store_dir)
        entries = sorted((store_dir / "results").glob("*.json"))
        assert len(entries) == 2
        raw = json.loads(entries[0].read_text())
        raw["payload"]["series"][0]["points"][0][1]["v"] = "0x1.0p+3"
        entries[0].write_text(json.dumps(raw))
        warm = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir)
        # the corrupt entry missed and re-executed; the intact one hit
        assert warm.cache["hits"] == 1 and warm.cache["misses"] == 1
        assert warm.fingerprints() == cold.fingerprints()
        # and the entry was regenerated: fully warm again
        again = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir)
        assert again.cache["hits"] == 2

    def test_corrupted_dataset_entry_regenerates(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        store_dir = tmp_path / "store"
        cold = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir)
        bins = sorted((store_dir / "datasets").glob("*.bin"))
        assert bins
        for b in bins:
            data = bytearray(b.read_bytes())
            data[len(data) // 2] ^= 0xFF
            b.write_bytes(bytes(data))
        # --refresh re-executes units, so the dataset plane is exercised:
        # every corrupted payload must be detected and regenerated
        refresh = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir,
                            refresh_cache=True)
        assert refresh.fingerprints() == cold.fingerprints()

    def test_unit_manifest_records_cache_provenance(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        store_dir = tmp_path / "store"
        out = tmp_path / "results"
        run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir)
        run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir, out_dir=out)
        unit = json.loads((out / "units" / "fig4.1of2.json").read_text())
        assert unit["cached"] is True
        assert len(unit["cache_key"]) == 64
        assert unit["stored_wall_s"] >= 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cache"]["hits"] == 2

    def test_env_kill_switch_beats_explicit_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        suite = run_suite(["table1"], cache=tmp_path / "store")
        assert suite.cache is None
        assert not (tmp_path / "store").exists()


class TestCLI:
    def test_run_caches_by_default_and_reports_counts(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        try:
            assert cli(["run", "table1", "--json"]) == 0
            cold = json.loads(capsys.readouterr().out)
            assert cold["cache"]["misses"] == 1
            assert cli(["run", "table1", "--json"]) == 0
            warm = json.loads(capsys.readouterr().out)
            assert warm["cache"]["hits"] == 1
            assert (warm["experiments"]["table1"]["fingerprint"]
                    == cold["experiments"]["table1"]["fingerprint"])
        finally:
            cache.configure(None)

    def test_no_cache_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        try:
            assert cli(["run", "table1", "--no-cache", "--json"]) == 0
            manifest = json.loads(capsys.readouterr().out)
            assert manifest["cache"] is None
            assert not (tmp_path / "store").exists()
        finally:
            cache.configure(None)

    def test_conflicting_cache_flags_usage_error(self):
        assert cli(["run", "table1", "--no-cache", "--refresh"]) == 2

    def test_list_json_counts_entries(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        try:
            assert cli(["run", "table1", "--json"]) == 0
            capsys.readouterr()
            assert cli(["list", "--json"]) == 0
            listing = json.loads(capsys.readouterr().out)
            assert listing["cache"]["enabled"] is True
            assert listing["cache"]["planes"]["results"] == 1
        finally:
            cache.configure(None)

    def test_report_shows_cache_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        out = tmp_path / "results"
        try:
            assert cli(["run", "table1", "--out", str(out), "--json"]) == 0
            capsys.readouterr()
            assert cli(["report", str(out)]) == 0
            assert "cache:" in capsys.readouterr().out
        finally:
            cache.configure(None)
