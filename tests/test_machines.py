"""The machine axis: registry, threading, cache isolation, calibration.

Covers the contracts :mod:`repro.cluster.machines` introduces:

* the named-machine registry and its error listings;
* ``machine="comet"`` being bit-identical to the pinned goldens (the
  refactor moved defaults behind the registry without changing them);
* variant machines actually changing results;
* result cache keys never crossing machines;
* the calibration harness staying inside its pinned bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.__main__ import main as cli
from repro.cluster import (
    COMET,
    DEFAULT_MACHINE,
    MACHINES,
    Cluster,
    get_machine,
    machine_names,
    register_machine,
    resolve_machine,
)
from repro.core.experiment import (
    get_experiment,
    run_experiment,
    supports_machine,
)
from repro.errors import ConfigurationError, SimProcessError, SimulationError
from repro.platform import (
    CachePlan,
    ScenarioSpec,
    Unit,
    fingerprint_result,
    run_suite,
    unit_cache_key,
)

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "benchmarks" /
     "golden_fingerprints.json").read_text())["fingerprints"]

#: small fig3 override shared by the cross-machine suite tests
FIG3_MINI = {"sizes": [4, 1024], "nodes": 2, "iterations": 2}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_default_machine_is_comet_on_comet_hardware(self):
        m = get_machine(DEFAULT_MACHINE)
        assert m.name == "comet"
        assert m.cluster == COMET
        assert m.hpc_fabric == "ib-fdr-rdma"
        assert m.bigdata_fabric == "ipoib"
        assert m.shuffle_transports() == ("socket", "rdma")

    def test_registry_lists_all_variants(self):
        assert machine_names() == sorted(MACHINES)
        assert {"comet", "comet-100gbe", "commodity-eth",
                "comet-nvme"} <= set(machine_names())

    def test_unknown_machine_lists_available(self):
        with pytest.raises(ConfigurationError) as exc:
            get_machine("cray-xc40")
        assert "cray-xc40" in str(exc.value)
        for name in machine_names():
            assert name in str(exc.value)

    def test_resolve_accepts_spec_and_name(self):
        m = get_machine("comet")
        assert resolve_machine(m) is m
        assert resolve_machine("comet") is m

    def test_register_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            register_machine(get_machine("comet"))

    def test_register_validates_routing(self):
        broken = get_machine("comet").with_(name="broken",
                                            hpc_fabric="warp-drive")
        with pytest.raises(ConfigurationError) as exc:
            register_machine(broken)
        # fabric errors must list what the cluster actually has
        assert "warp-drive" in str(exc.value)
        assert "ib-fdr-rdma" in str(exc.value)

    def test_registered_machines_have_finite_costs(self):
        for machine in MACHINES.values():
            assert machine.check() is machine

    @pytest.mark.parametrize("field,value", [
        ("spark_record_overhead", math.nan),
        ("spark_record_overhead", math.inf),
        ("spark_record_overhead", -1e-9),
        ("mpi_eager_threshold", -1),
        ("ser_rate_jvm", 0.0),
        ("hadoop_sort_rate", math.nan),
        ("spark_shuffle_rdma_rate", math.inf),
    ])
    def test_check_rejects_a_non_finite_or_negative_cost(self, field, value):
        comet = get_machine("comet")
        bad = comet.with_(costs=replace(comet.costs, **{field: value}))
        with pytest.raises(ConfigurationError, match=f"costs.{field}"):
            bad.check()

    def test_a_nan_cost_fails_the_run_instead_of_its_time(self):
        # an unchecked machine still cannot report a plausible app time
        # beside a NaN clock: the first NaN charge raises
        comet = get_machine("comet")
        bad = comet.with_(name="nan-costs", costs=replace(
            comet.costs, spark_record_overhead=math.nan))
        session = ScenarioSpec(nodes=2, procs_per_node=2,
                               machine=bad).session()
        with pytest.raises(SimProcessError) as exc:
            session.spark(app_startup=0.1).run(
                lambda sc: sc.parallelize(list(range(10)), 2).count())
        assert isinstance(exc.value.__cause__, SimulationError)

    def test_unknown_shuffle_transport_lists_transports(self):
        with pytest.raises(ConfigurationError) as exc:
            get_machine("comet").shuffle_fabric("quic")
        msg = str(exc.value)
        assert "quic" in msg and "socket" in msg and "rdma" in msg

    def test_variants_without_rdma_shuffle(self):
        for name in ("comet-100gbe", "commodity-eth"):
            assert get_machine(name).shuffle_transports() == ("socket",)

    def test_bare_clusterspec_is_rejected(self):
        with pytest.raises(ConfigurationError, match="MachineSpec"):
            Cluster(COMET.with_nodes(2))

    def test_machine_spec_provisions_cluster(self):
        cluster = Cluster(get_machine("commodity-eth"))
        assert cluster.machine.name == "commodity-eth"
        assert cluster.spec is cluster.machine.cluster


# ---------------------------------------------------------------------------
# scenario threading
# ---------------------------------------------------------------------------


class TestScenarioThreading:
    def test_session_carries_machine(self):
        s = ScenarioSpec(nodes=2, procs_per_node=4,
                         machine="commodity-eth").session()
        assert s.machine.name == "commodity-eth"
        assert s.cluster.machine.name == "commodity-eth"
        assert s.cluster.spec.node.cores == 16

    def test_oversubscription_rejected_with_machine_context(self):
        spec = ScenarioSpec(nodes=2, procs_per_node=24, machine="comet")
        spec.session()  # exactly the core count is fine
        bad = ScenarioSpec(nodes=2, procs_per_node=25, machine="comet")
        with pytest.raises(ConfigurationError) as exc:
            bad.session()
        assert "comet" in str(exc.value) and "24" in str(exc.value)

    def test_oversubscription_uses_variant_core_count(self):
        bad = ScenarioSpec(nodes=2, procs_per_node=17,
                           machine="commodity-eth")
        with pytest.raises(ConfigurationError) as exc:
            bad.session()
        assert "commodity-eth" in str(exc.value) and "16" in str(exc.value)

    def test_unknown_machine_in_scenario(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(nodes=1, procs_per_node=1,
                         machine="titan").session()


# ---------------------------------------------------------------------------
# golden pinning + variant divergence
# ---------------------------------------------------------------------------


class TestFingerprints:
    def test_comet_fig3_matches_golden(self):
        """The machine refactor must not perturb the default results."""
        exp = get_experiment("fig3")
        result = run_experiment("fig3", quick=True, machine="comet")
        assert fingerprint_result(result) == GOLDEN["fig3"]
        # and the default (machine omitted) is the same machine
        default = exp.run(**exp.quick_params)
        assert fingerprint_result(default) == GOLDEN["fig3"]

    def test_fabric_variants_diverge(self):
        fps = {m: fingerprint_result(
                   run_experiment("fig3", quick=True, machine=m))
               for m in ("comet", "comet-100gbe", "commodity-eth")}
        assert len(set(fps.values())) == 3
        assert fps["comet"] == GOLDEN["fig3"]

    def test_nvme_variant_identical_on_network_only_figure(self):
        """comet-nvme only changes scratch disks; fig3 never touches them."""
        fp = fingerprint_result(
            run_experiment("fig3", quick=True, machine="comet-nvme"))
        assert fp == GOLDEN["fig3"]

    def test_variant_fig3_drops_rdma_series(self):
        result = run_experiment("fig3", quick=True, machine="comet-100gbe")
        assert [s.name for s in result.series] == ["MPI", "Spark"]

    def test_table1_renders_variant_hardware(self):
        comet = run_experiment("table1", machine="comet")
        assert comet.title == "Comet node configuration"
        eth = run_experiment("table1", machine="commodity-eth")
        assert any("1 GbE" in cell for row in eth.rows for cell in row)
        assert comet.rows != eth.rows

    def test_sweep_interconnect_covers_machines(self):
        result = run_experiment("sweep-interconnect", quick=True)
        assert fingerprint_result(result) == GOLDEN["sweep-interconnect"]
        names = [row[0] for row in result.rows]
        assert names == ["comet", "comet-100gbe", "commodity-eth"]
        mpi_latencies = [row[3] for row in result.rows]
        assert len(set(mpi_latencies)) == 3, \
            "machines must actually change the MPI latency"


# ---------------------------------------------------------------------------
# cache isolation
# ---------------------------------------------------------------------------


class TestCacheIsolation:
    def test_unit_key_folds_machine(self):
        plan = CachePlan("/s", "c0de", False)
        base = unit_cache_key(plan, Unit("fig3", 0, 1, FIG3_MINI))
        explicit = unit_cache_key(
            plan, Unit("fig3", 0, 1, dict(FIG3_MINI, machine="comet")))
        variant = unit_cache_key(
            plan, Unit("fig3", 0, 1, dict(FIG3_MINI, machine="commodity-eth")))
        assert base == explicit  # default machine == naming it
        assert variant is not None and variant != base
        assert unit_cache_key(
            plan, Unit("fig3", 0, 1, dict(FIG3_MINI, machine="titan"))) is None

    def test_unit_key_sees_machine_definition(self):
        """Two registries disagreeing on a machine must not share entries."""
        plan = CachePlan("/s", "c0de", False)
        unit = Unit("fig3", 0, 1, dict(FIG3_MINI, machine="comet-nvme"))
        base = unit_cache_key(plan, unit)
        nvme = MACHINES["comet-nvme"]
        try:
            MACHINES["comet-nvme"] = nvme.with_(
                cluster=replace(nvme.cluster, nfs_latency=1.0))
            assert unit_cache_key(plan, unit) != base
        finally:
            MACHINES["comet-nvme"] = nvme

    def test_no_cross_machine_result_replay(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        store_dir = tmp_path / "store"
        comet = run_suite(["fig3"], overrides={"fig3": FIG3_MINI},
                          cache=store_dir)
        assert comet.cache["misses"] == 1
        variant = run_suite(
            ["fig3"],
            overrides={"fig3": dict(FIG3_MINI, machine="commodity-eth")},
            cache=store_dir)
        assert variant.cache["hits"] == 0 and variant.cache["misses"] == 1
        assert variant.fingerprints() != comet.fingerprints()
        # each machine warm-replays only itself
        warm = run_suite(
            ["fig3"],
            overrides={"fig3": dict(FIG3_MINI, machine="commodity-eth")},
            cache=store_dir)
        assert warm.cache["hits"] == 1
        assert warm.fingerprints() == variant.fingerprints()


# ---------------------------------------------------------------------------
# CLI + capability detection
# ---------------------------------------------------------------------------


class TestCLI:
    def test_supports_machine_detection(self):
        assert supports_machine(get_experiment("fig3"))
        assert supports_machine(get_experiment("validate"))
        assert not supports_machine(get_experiment("table3"))
        # the sweep takes a *machines* tuple, not a single machine
        assert not supports_machine(get_experiment("sweep-interconnect"))

    def test_run_with_machine_flag(self, capsys):
        assert cli(["run", "fig3", "--quick", "--machine", "comet-100gbe",
                    "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Spark-RDMA" not in out

    def test_run_with_unknown_machine_exits_2(self, capsys):
        assert cli(["run", "fig3", "--quick", "--machine", "nope"]) == 2
        err = capsys.readouterr().err
        assert "available machines" in err

    def test_list_json_reports_machines(self, capsys):
        assert cli(["list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        names = [m["name"] for m in listing["machines"]]
        assert set(names) == set(machine_names())
        by_id = {e["id"]: e for e in listing["experiments"]}
        assert by_id["fig3"]["machine"] is True
        assert by_id["table3"]["machine"] is False


# ---------------------------------------------------------------------------
# calibration harness
# ---------------------------------------------------------------------------


class TestCalibration:
    def test_evaluate_structure_and_bounds(self):
        from repro.analysis.calibrate import CHECK_BOUNDS, evaluate

        report = evaluate("comet")
        assert report["machine"] == "comet"
        assert set(report["figures"]) == set(CHECK_BOUNDS)
        for fig, bound in CHECK_BOUNDS.items():
            assert report["figures"][fig]["rms_log10"] <= bound
        for anchor in report["anchors"]:
            assert anchor["model_s"] > 0
            assert anchor["residual_log10"] == pytest.approx(
                __import__("math").log10(anchor["model_s"] /
                                         anchor["target_s"]))

    def test_evaluate_accepts_cost_override(self):
        from repro.analysis.calibrate import evaluate

        base = evaluate("comet")
        comet = get_machine("comet")
        slow = evaluate(comet.with_(costs=replace(
            comet.costs, spark_job_overhead=10.0)))
        assert slow["overall_rms_log10"] > base["overall_rms_log10"]

    def test_check_cli_passes(self, capsys):
        import importlib.util

        path = Path(__file__).parent.parent / "tools" / "calibrate.py"
        spec = importlib.util.spec_from_file_location("calibrate_cli", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.main(["--check"]) == 0
        assert "calibration check ok" in capsys.readouterr().err
