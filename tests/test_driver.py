"""The experiment driver: unit planning, merging, sharded ≡ serial, CLI."""

from __future__ import annotations

import json

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False

from repro.__main__ import main as cli
from repro.core.experiment import _ensure_registry, run_experiment
from repro.core.report import FigureResult, Series, TableResult
from repro.errors import ConfigurationError
from repro.platform import (
    check_golden,
    fingerprint_result,
    merge_results,
    plan_units,
    run_suite,
)
from repro.workloads.graphs import GraphSpec
from repro.workloads.stackexchange import StackExchangeSpec

#: tiny parameter overrides that keep the sharded-vs-serial comparison fast
#: while still splitting each experiment into >= 2 units
TINY_SHARDED = {
    "table2": {"logical_sizes": (10**8, 2 * 10**8), "nodes": 2,
               "procs_per_node": 2},
    "fig6": {"node_counts": (1, 2), "procs_per_node": 2,
             "graph": GraphSpec(n_vertices=600, out_degree=3),
             "iterations": 2, "spark_physical_vertices": 600},
    "extra-kmeans": {"node_counts": (1, 2), "n_points": 500,
                     "iterations": 2, "procs_per_node": 2},
}
#: the other two figures that declare series; fig4 at 32 processes has an
#: absent (``None``) OpenMP point
TINY_SERIES = {
    "fig4": {"proc_counts": (8, 32), "logical_size": 10**8,
             "spec": StackExchangeSpec(n_posts=1200)},
    "fig7": TINY_SHARDED["fig6"],
}
TINY = {**TINY_SHARDED, **TINY_SERIES}


class TestPlanUnits:
    def test_unsharded_experiment_is_one_unit(self):
        units = plan_units("fig3", quick=True)
        assert len(units) == 1
        assert units[0].key == "fig3"
        assert units[0].params["sizes"]  # quick params folded in

    def test_sharded_quick_sweep_splits(self):
        units = plan_units("extra-kmeans", quick=True)
        assert [u.key for u in units] == ["extra-kmeans.1of2",
                                          "extra-kmeans.2of2"]
        assert units[0].params["node_counts"] == (1,)
        assert units[1].params["node_counts"] == (2,)
        assert [u.point for u in units] == [1, 2]
        assert [u.series for u in units] == [None, None]
        # non-sweep quick params reach every unit
        assert all("n_points" in u.params for u in units)

    def test_declared_series_split_every_point(self):
        units = plan_units("fig4", quick=True)
        names = ["openmp", "mpi", "spark", "hadoop"]
        assert [u.key for u in units] == [
            f"fig4.{i}of2.{name}" for i in (1, 2) for name in names]
        assert [u.point for u in units] == [8] * 4 + [16] * 4
        assert units[0].params["proc_counts"] == (8,)
        assert units[5].params["proc_counts"] == (16,)
        assert units[5].series == "MPI"
        assert units[5].params["series"] == ("MPI",)
        assert all("logical_size" in u.params for u in units)

    def test_series_override_selects_in_canonical_order(self):
        units = plan_units("fig6", quick=True,
                           overrides={"series": ("Spark-RDMA", "MPI")})
        assert [u.series for u in units] == ["MPI", "Spark-RDMA"] * 2

    @pytest.mark.parametrize("series", [("Spark", "Flink"), ()])
    def test_bad_series_override_rejected(self, series):
        with pytest.raises(ConfigurationError, match="fig6: series"):
            plan_units("fig6", quick=True, overrides={"series": series})

    def test_single_point_sweep_is_one_unit(self):
        units = plan_units("table2", quick=True)  # quick uses one size
        assert len(units) == 1
        assert units[0].key == "table2"

    def test_sweep_default_read_from_signature(self):
        units = plan_units("extra-kmeans")  # default node_counts=(1,2,4,8)
        assert [u.point for u in units] == [1, 2, 4, 8]

    def test_overrides_fold_on_top_of_quick(self):
        units = plan_units("fig6", quick=True,
                           overrides={"node_counts": (1, 2, 4)})
        assert len(units) == 3 * 3  # points x series
        assert [u.total for u in units] == [3] * 9
        assert units[0].params["iterations"] == 3  # quick param survives

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            plan_units("fig99")


class TestMergeResults:
    def test_single_part_passes_through(self):
        t = TableResult("T", "t", ["a"], [["1"]])
        assert merge_results([t]) is t

    def test_table_rows_concatenate_in_unit_order(self):
        parts = [TableResult("T", "t", ["a"], [[str(i)]]) for i in range(3)]
        merged = merge_results(parts)
        assert [r[0] for r in merged.rows] == ["0", "1", "2"]
        assert parts[0].rows == [["0"]]  # inputs not mutated

    def test_figure_series_points_concatenate(self):
        def part(x):
            return FigureResult("F", "t", "x", "y", series=[
                Series("a", [(x, float(x))]), Series("b", [(x, 2.0 * x)])])

        merged = merge_results([part(1), part(2)])
        assert merged.series[0].points == [(1, 1.0), (2, 2.0)]
        assert merged.series[1].points == [(1, 2.0), (2, 4.0)]

    def test_merge_equals_serial_fingerprint(self):
        serial = FigureResult("F", "t", "x", "y", series=[
            Series("a", [(1, 0.25), (2, 0.5)])])
        parts = [
            FigureResult("F", "t", "x", "y", series=[Series("a", [(1, 0.25)])]),
            FigureResult("F", "t", "x", "y", series=[Series("a", [(2, 0.5)])]),
        ]
        assert fingerprint_result(merge_results(parts)) == \
            fingerprint_result(serial)

    @pytest.mark.skipif(not HAS_HYPOTHESIS, reason="needs hypothesis")
    def test_point_series_cells_merge_back(self):
        """Any figure cut into (point x series) cells in planned order
        merges back to itself — also when a declared series is absent (its
        cells are empty figures, like ``Spark-RDMA`` on ``comet-100gbe``)
        and when y-values are ``None``."""
        ys = st.one_of(st.none(), st.floats(allow_nan=False))

        @given(st.data())
        @settings(max_examples=60, deadline=None)
        def check(data):
            declared = data.draw(st.lists(
                st.sampled_from("abcdef"), min_size=1, unique=True))
            present = data.draw(st.sets(st.sampled_from(declared)))
            xs = data.draw(st.lists(st.integers(0, 99), min_size=1,
                                    max_size=4, unique=True))
            y = {(name, x): data.draw(ys) for name in declared for x in xs}

            def figure(series):
                return FigureResult("F", "t", "x", "y", series=series)

            whole = figure([Series(name, [(x, y[name, x]) for x in xs])
                            for name in declared if name in present])
            cells = [figure([Series(name, [(x, y[name, x])])]
                            if name in present else [])
                     for x in xs for name in declared]
            merged = merge_results(cells)
            assert [s.name for s in merged.series] == \
                [s.name for s in whole.series]
            assert fingerprint_result(merged) == fingerprint_result(whole)

        check()


class TestFingerprint:
    def test_float_bits_matter(self):
        fig = FigureResult("F", "t", "x", "y",
                           series=[Series("a", [(1, 0.1)])])
        bumped = FigureResult("F", "t", "x", "y", series=[
            Series("a", [(1, 0.1 + 1e-15)])])
        assert fingerprint_result(fig) != fingerprint_result(bumped)

    def test_none_points_hash(self):
        fig = FigureResult("F", "t", "x", "y",
                           series=[Series("a", [(1, None)])])
        assert len(fingerprint_result(fig)) == 16

    def test_table_rows_hash(self):
        t1 = TableResult("T", "t", ["a"], [["x"]])
        t2 = TableResult("T", "t", ["a"], [["y"]])
        assert fingerprint_result(t1) != fingerprint_result(t2)


class TestSuite:
    def test_suite_runs_and_writes_manifests(self, tmp_path):
        suite = run_suite(["table1"], out_dir=tmp_path)
        assert suite.results["table1"].rows
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["experiments"]["table1"]["units"] == 1
        unit = json.loads((tmp_path / "units" / "table1.json").read_text())
        assert unit["fingerprint"] == suite.fingerprints()["table1"]
        assert (tmp_path / "table1.txt").read_text().startswith("Table I")

    @pytest.mark.parametrize("exp_id", sorted(TINY_SHARDED))
    def test_sharded_equals_serial(self, exp_id):
        overrides = {exp_id: TINY_SHARDED[exp_id]}
        serial = run_suite([exp_id], workers=1, overrides=overrides)
        sharded = run_suite([exp_id], workers=2, overrides=overrides)
        assert len(sharded.unit_results[exp_id]) >= 2
        assert sharded.fingerprints() == serial.fingerprints()
        assert sharded.results[exp_id].render() == \
            serial.results[exp_id].render()

    @pytest.mark.parametrize("exp_id", sorted(TINY))
    def test_merged_units_equal_undecomposed_figure(self, exp_id):
        overrides = TINY[exp_id]
        suite = run_suite([exp_id], overrides={exp_id: overrides})
        assert len(suite.unit_results[exp_id]) >= 2
        whole = run_experiment(exp_id, **overrides)
        assert suite.fingerprints()[exp_id] == fingerprint_result(whole)
        assert suite.results[exp_id].render() == whole.render()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_series_override_honoured(self, workers):
        """A caller's ``series`` filter survives planning under every
        ``workers`` value: the merged figure is the direct call's."""
        tiny = {**TINY_SHARDED["fig6"], "series": ("MPI",)}
        suite = run_suite(["fig6"], workers=workers,
                          overrides={"fig6": tiny})
        assert [s.name for s in suite.results["fig6"].series] == ["MPI"]
        assert [u.unit.key for u in suite.unit_results["fig6"]] == [
            "fig6.1of2.mpi", "fig6.2of2.mpi"]
        assert suite.fingerprints()["fig6"] == \
            fingerprint_result(run_experiment("fig6", **tiny))

    def test_unknown_series_fails_before_anything_runs(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a unit ran before planning finished")

        monkeypatch.setattr("repro.platform.driver._run_unit", no_run)
        with pytest.raises(ConfigurationError, match="Flink"):
            run_suite(["table1", "fig6"], quick=True,
                      overrides={"fig6": {"series": ("Flink",)}})

    def test_reused_out_dir_drops_the_experiments_stale_units(self, tmp_path):
        """Unit manifests of an earlier plan of the *same* experiment (a
        longer sweep, a single-point run) go; other experiments' stay."""
        units = tmp_path / "units"
        units.mkdir()
        stale = ["table2.json", "table2.3of4.json", "table2.1of2.spark.json"]
        kept = ["table20.json", "table1.json", "table2x.1of2.json"]
        for name in stale + kept:
            (units / name).write_text("{}\n")
        run_suite(["table2"], overrides={"table2": TINY_SHARDED["table2"]},
                  out_dir=tmp_path)
        assert sorted(p.name for p in units.iterdir()) == sorted(
            kept + ["table2.1of2.json", "table2.2of2.json"])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["experiments"]["table2"]["units"] == 2

    def test_repeated_id_runs_once(self, tmp_path):
        once = run_suite(["table1"])
        twice = run_suite(["table1", "table1"], out_dir=tmp_path)
        assert twice.results["table1"].rows == once.results["table1"].rows
        assert twice.fingerprints() == once.fingerprints()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["experiments"]["table1"]["units"] == 1

    def test_pool_clamped_to_usable_cpus(self, monkeypatch):
        """On one CPU a ``workers=3`` request runs in-process — same plan,
        serial fingerprint — and the manifest keeps the request."""
        import concurrent.futures

        overrides = {"fig6": TINY_SHARDED["fig6"]}
        serial = run_suite(["fig6"], overrides=overrides)

        def no_pool(*args, **kwargs):
            raise AssertionError("spawned a pool on a one-CPU host")

        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        said = []
        clamped = run_suite(["fig6"], workers=3, overrides=overrides,
                            progress=said.append)
        assert "pool clamped to 1 usable CPU(s)" in said[0]
        assert len(clamped.unit_results["fig6"]) == 6  # 2 points x 3 series
        assert clamped.fingerprints() == serial.fingerprints()
        assert clamped.manifest()["workers"] == 3

    def test_every_registered_experiment_plans(self):
        for exp_id in _ensure_registry():
            units = plan_units(exp_id, quick=True)
            assert units, exp_id
            assert len({u.key for u in units}) == len(units)
            assert {u.index for u in units} == set(range(units[0].total))

    @pytest.mark.parametrize("exp_id", sorted(_ensure_registry()))
    def test_every_registered_experiment_runs_quick(self, exp_id):
        suite = run_suite([exp_id], quick=True)
        result = suite.results[exp_id]
        assert result.render()
        fp = suite.fingerprints()[exp_id]
        assert len(fp) == 16 and int(fp, 16) >= 0


class TestGolden:
    MANIFEST = {"experiments": {"fig4": {"fingerprint": "abc"},
                                "fig6": {"fingerprint": "def"}}}

    def test_clean_when_fingerprints_match(self):
        golden = {"fingerprints": {"fig4": "abc"}}
        assert check_golden(self.MANIFEST, golden) == []

    def test_mismatch_and_missing_reported(self):
        golden = {"fingerprints": {"fig4": "zzz", "fig7": "abc"}}
        problems = check_golden(self.MANIFEST, golden)
        assert len(problems) == 2
        assert any("fig4" in p and "zzz" in p for p in problems)
        assert any("fig7" in p and "missing" in p for p in problems)

    def test_extra_experiments_in_manifest_ignored(self):
        # table3 (unstable LoC census) is absent from golden on purpose
        golden = {"fingerprints": {"fig6": "def"}}
        assert check_golden(self.MANIFEST, golden) == []


class TestCLI:
    def test_unknown_id_is_usage_error(self, capsys):
        assert cli(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_without_ids_is_usage_error(self):
        assert cli(["run"]) == 2

    def test_bad_worker_count_rejected(self):
        assert cli(["run", "table1", "--workers", "0"]) == 2

    def test_list_json_machine_readable(self, capsys):
        assert cli(["list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        by_id = {e["id"]: e for e in listing["experiments"]}
        assert by_id["fig4"]["shard_param"] == "proc_counts"
        assert by_id["table1"]["shard_param"] is None
        assert by_id["fig6"]["series"] == ["MPI", "Spark", "Spark-RDMA"]
        assert by_id["table1"]["series"] == []
        # the analysers can check exactly the experiments that provision a
        # session; CI takes its id list from this flag
        uncheckable = {i for i, e in by_id.items() if e["checkable"] is not True}
        assert uncheckable == {"table1", "table3"}
        assert "analysis" not in by_id["fig4"]
        # the cache capability block reports a store (even when absent or
        # empty) without crashing the listing
        cache = listing["cache"]
        assert set(cache) == {"enabled", "path", "entries"}
        assert cache["entries"] >= 0

    @pytest.mark.parametrize("argv", [
        ["fig3"],  # the old `python -m repro <id>` form
        ["run", "fig8", "--faults"],
        ["run", "fig6", "--intra-workers", "2"],
    ])
    def test_removed_spellings_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_run_report_golden_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "results"
        golden = tmp_path / "golden.json"
        assert cli(["run", "table1", "--out", str(out), "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        fp = manifest["experiments"]["table1"]["fingerprint"]

        assert cli(["report", str(out)]) == 0
        assert fp in capsys.readouterr().out

        golden.write_text(json.dumps({"fingerprints": {"table1": fp}}))
        assert cli(["report", str(out), "--golden", str(golden)]) == 0

        golden.write_text(json.dumps({"fingerprints": {"table1": "0" * 16}}))
        assert cli(["report", str(out), "--golden", str(golden)]) == 1
        assert "MISMATCH" in capsys.readouterr().err

        assert cli(["report", str(out), "--golden", str(golden),
                    "--update-golden"]) == 0
        refreshed = json.loads(golden.read_text())
        assert refreshed["fingerprints"] == {"table1": fp}

    def test_report_missing_dir_is_usage_error(self, tmp_path):
        assert cli(["report", str(tmp_path / "nope")]) == 2

    def test_report_truncated_manifest_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"experiments": {"fig3"')
        assert cli(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "is not valid JSON" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_report_non_object_golden_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert cli(["run", "table1", "--out", str(out), "--json"]) == 0
        golden = tmp_path / "golden.json"
        golden.write_text("[]")
        capsys.readouterr()
        assert cli(["report", str(out), "--golden", str(golden)]) == 2
        err = capsys.readouterr().err
        assert "must hold a JSON object, not a list" in err
        assert len(err.splitlines()) == 1

    def test_analysis_has_no_second_entry_module(self):
        # `python -m repro analyze ...` is the one spelling; without a
        # repro/analysis/__main__.py, `python -m repro.analysis` cannot run
        import importlib.util

        assert importlib.util.find_spec("repro.analysis.__main__") is None

    def test_analyze_usage_names_the_one_spelling(self, capsys):
        assert cli(["analyze"]) == 2
        assert "usage: python -m repro analyze" in capsys.readouterr().err
