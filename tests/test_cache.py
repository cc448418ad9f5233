"""The content-addressed artifact cache (``repro.cache``).

Covers the store primitives (atomic publish, checksum verification),
key derivation (canonical encoding, cross-process
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
from pathlib import Path

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False

import repro.cache as cache
from repro.__main__ import main as cli
from repro.cache import (ArtifactStore, UncacheableError, cache_key,
                         code_version, decode_result, encode_result,
                         encode_value, default_root, resolve_root,
                         store_info)
from repro.core.report import FigureResult, Series, TableResult
from repro.platform import CachePlan, Unit, run_suite, unit_cache_key
from repro.workloads.stackexchange import StackExchangeSpec


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


#: a minimal encoded table result, the payload the store tests publish
PAYLOAD = {"kind": "table", "table_id": "T", "title": "t",
           "headers": ["h"], "rows": [["v"]]}


class TestStore:
    def test_empty_payload(self, tmp_path):
        """An empty (falsy) payload is still a stored entry, not a miss."""
        store = ArtifactStore(tmp_path)
        store.store_result("k" * 64, {})
        entry = store.load_result("k" * 64)
        assert entry is not None and entry["payload"] == {}

    def test_missing_store_is_all_misses(self, tmp_path):
        store = ArtifactStore(tmp_path / "never-created")
        assert store.load_result("0" * 64) is None
        assert store.entry_count() == 0
        store.drop("0" * 64)  # dropping a missing entry is fine
        assert not (tmp_path / "never-created").exists()

    def test_corrupted_payload_rejected_and_dropped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "a" * 64
        store.store_result(key, PAYLOAD)
        raw = store._entry(key).read_bytes()
        at = raw.index(b'"v"') + 1
        store._entry(key).write_bytes(                   # flip one byte
            raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:])
        assert store.load_result(key) is None            # never served
        assert store.entry_count() == 0                  # dropped
        assert not store._entry(key).exists()

    def test_truncated_payload_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "b" * 64
        store.store_result(key, PAYLOAD)
        raw = store._entry(key).read_bytes()
        store._entry(key).write_bytes(raw[: len(raw) // 2])
        assert store.load_result(key) is None
        assert store.entry_count() == 0

    def test_unparseable_sidecar_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "c" * 64
        store.store_result(key, PAYLOAD)
        store._entry(key).write_text("{not json")
        assert store.load_result(key) is None
        assert store.entry_count() == 0
        store._entry(key).write_text("[1, 2]")  # JSON, but not an entry
        assert store.load_result(key) is None
        assert store.entry_count() == 0

    def test_format_version_mismatch_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "d" * 64
        store.store_result(key, PAYLOAD)
        entry = json.loads(store._entry(key).read_text())
        entry["format"] = cache.FORMAT_VERSION + 1
        store._entry(key).write_text(json.dumps(entry))
        assert store.load_result(key) is None
        # storing works on the same key afterwards
        store.store_result(key, PAYLOAD)
        assert store.load_result(key)["payload"] == PAYLOAD

    def test_leftover_tmp_file_is_ignored(self, tmp_path):
        """A writer crash between tmp write and rename leaves only noise."""
        store = ArtifactStore(tmp_path)
        key = "e" * 64
        store.store_result(key, PAYLOAD)
        # simulate a concurrent writer that died mid-publish
        stray = store._entry(key).with_name(f"{key}.json.tmp-99999")
        stray.write_text("partial garbage")
        assert store.entry_count() == 1
        assert store.load_result(key)["payload"] == PAYLOAD

    def test_result_round_trip_and_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store_result("f" * 64, PAYLOAD, meta={"wall_s": 1.5})
        entry = store.load_result("f" * 64)
        assert entry["payload"] == PAYLOAD
        assert entry["meta"]["wall_s"] == 1.5
        # tamper with the payload -> checksum mismatch -> miss + drop
        raw = json.loads(store._entry("f" * 64).read_text())
        raw["payload"]["rows"] = [["tampered"]]
        store._entry("f" * 64).write_text(json.dumps(raw))
        assert store.load_result("f" * 64) is None
        assert store.entry_count() == 0

    def test_concurrent_publish_converges(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "9" * 64
        store.store_result(key, PAYLOAD)
        first = store._entry(key).read_bytes()
        store.store_result(key, PAYLOAD)  # racer, same content
        assert store.entry_count() == 1
        assert store._entry(key).read_bytes() == first
        assert store.load_result(key)["payload"] == PAYLOAD


@pytest.mark.skipif(not HAS_HYPOTHESIS, reason="hypothesis not installed")
class TestStoreProperties:
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
# result plane + end-to-end differentials
# ---------------------------------------------------------------------------

#: small fig4 so the differential runs in seconds
FIG4_MINI = {"fig4": {"proc_counts": (8, 16), "logical_size": 10**8,
                      "spec": StackExchangeSpec(n_posts=1200)}}
#: units it plans: 2 points x 4 series
FIG4_UNITS = 8


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
        off = run_suite(["fig4"], overrides=FIG4_MINI)
        refresh = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir,
                            refresh_cache=True)
        fps = {s.fingerprints()["fig4"]
               for s in (cold, warm, off, refresh)}
        assert len(fps) == 1
        assert cold.cache["misses"] == FIG4_UNITS and cold.cache["hits"] == 0
        assert warm.cache["hits"] == FIG4_UNITS and warm.cache["misses"] == 0
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
        assert warm.cache["hits"] == FIG4_UNITS
        assert warm.fingerprints() == cold.fingerprints()

    def test_corrupted_result_entry_reexecutes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        store_dir = tmp_path / "store"
        cold = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir)
        store = ArtifactStore(store_dir)
        entries = sorted((store_dir / "results").glob("*.json"))
        assert len(entries) == FIG4_UNITS
        raw = json.loads(entries[0].read_text())
        raw["payload"]["series"][0]["points"][0][1]["v"] = "0x1.0p+3"
        entries[0].write_text(json.dumps(raw))
        warm = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir)
        # the corrupt entry missed and re-executed; the intact one hit
        assert warm.cache["hits"] == FIG4_UNITS - 1
        assert warm.cache["misses"] == 1
        assert warm.fingerprints() == cold.fingerprints()
        # and the entry was regenerated: fully warm again
        again = run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir)
        assert again.cache["hits"] == FIG4_UNITS

    def test_runs_touch_only_their_own_root(self, tmp_path, monkeypatch):
        """No process-wide store: a run writes under the root it was given."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        root_a, root_b = tmp_path / "a", tmp_path / "b"

        def snapshot(root):
            return {str(p.relative_to(root)): p.stat().st_mtime_ns
                    for p in root.rglob("*") if p.is_file()}

        run_suite(["fig4"], overrides=FIG4_MINI, cache=root_a)
        files_a = snapshot(root_a)
        assert len(files_a) == FIG4_UNITS
        assert all(name.startswith("results/") for name in files_a)
        assert not root_b.exists()
        run_suite(["fig4"], overrides=FIG4_MINI, cache=root_b)
        files_b = snapshot(root_b)
        assert sorted(files_b) == sorted(files_a)
        assert snapshot(root_a) == files_a
        # with no root given (and none in the environment) nothing is cached
        off = run_suite(["fig4"], overrides=FIG4_MINI)
        assert off.cache is None
        assert snapshot(root_a) == files_a and snapshot(root_b) == files_b

    def test_unit_manifest_records_cache_provenance(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        store_dir = tmp_path / "store"
        out = tmp_path / "results"
        run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir)
        run_suite(["fig4"], overrides=FIG4_MINI, cache=store_dir, out_dir=out)
        unit = json.loads((out / "units" / "fig4.1of2.spark.json").read_text())
        assert unit["cached"] is True
        assert len(unit["cache_key"]) == 64
        assert unit["stored_wall_s"] >= 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cache"]["hits"] == FIG4_UNITS

    def test_env_kill_switch_beats_explicit_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        suite = run_suite(["table1"], cache=tmp_path / "store")
        assert suite.cache is None
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("kill", [False, True])
    @pytest.mark.parametrize("env_dir, cache_arg, root", [
        (None, None, None),
        (None, False, None),
        (None, "given", "given"),
        ("env", None, None),
        ("env", False, None),
        ("env", "given", "given"),
    ])
    def test_resolve_root_table(self, monkeypatch, kill, env_dir, cache_arg,
                                root):
        """(REPRO_NO_CACHE) x (nothing | a path) -> root.

        ``REPRO_CACHE_DIR`` moves only the CLI's default store, never a
        caller's argument; ``False`` is the falsy value
        ``benchmarks/perf/probes.py`` passes for "off".
        """
        for name, value in (("REPRO_NO_CACHE", "1" if kill else None),
                            ("REPRO_CACHE_DIR", env_dir)):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        want = None if kill or root is None else Path(root)
        assert resolve_root(cache_arg) == want
        # the CLI default, and `list --json` reporting the store it gives
        assert default_root() == Path(env_dir or ".repro-cache")
        assert store_info()["path"] == (
            None if kill else env_dir or ".repro-cache")


class TestCLI:
    def test_run_caches_by_default_and_reports_counts(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert cli(["run", "table1", "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache"]["misses"] == 1
        assert cli(["run", "table1", "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache"]["hits"] == 1
        assert (warm["experiments"]["table1"]["fingerprint"]
                == cold["experiments"]["table1"]["fingerprint"])

    def test_fig8_second_run_is_all_hits(self, tmp_path, monkeypatch, capsys):
        """Fault injection has one spelling, so one set of entries."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        argv = ["run", "fig8", "--quick", "--cache-dir",
                str(tmp_path / "store"), "--json"]
        assert cli(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert (cold["cache"]["hits"], cold["cache"]["misses"]) == (0, 3)
        assert cli(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert (warm["cache"]["hits"], warm["cache"]["misses"]) == (3, 0)
        assert len(list((tmp_path / "store" / "results").iterdir())) == 3

    def test_no_cache_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert cli(["run", "table1", "--no-cache", "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["cache"] is None
        assert not (tmp_path / "store").exists()

    def test_conflicting_cache_flags_usage_error(self):
        assert cli(["run", "table1", "--no-cache", "--refresh"]) == 2

    def test_list_json_counts_entries(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert cli(["run", "table1", "--json"]) == 0
        capsys.readouterr()
        assert cli(["list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["cache"] == {"enabled": True,
                                    "path": str(tmp_path / "store"),
                                    "entries": 1}

    def test_report_shows_cache_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        out = tmp_path / "results"
        assert cli(["run", "table1", "--out", str(out), "--json"]) == 0
        capsys.readouterr()
        assert cli(["report", str(out)]) == 0
        assert "cache:" in capsys.readouterr().out
