"""Self-tests of the benchmark harness, at the registry's quick sizes.

Not in the tier-1 ``testpaths``; run them with::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py -q
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import ledger  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def in_process(argv: list[str]) -> dict:
    """Stand-in for ``run.spawn_worker`` that sees monkeypatched tables."""
    return worker.execute(argv + ["--seconds", "0"])


def contract(capsys, *argv: str, spawn=run.spawn_worker) -> tuple[int, dict]:
    args = ["--smoke", "--seconds", "1", *argv]
    ns = run.parse_args(args, SPEC)
    code = run.contract_run(ns, SPEC, spawn)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def traced(name: str = "pagerank_persist") -> dict:
    return worker.execute(["--mode", "traced", "--workload", name, "--smoke",
                           "--seconds", "0"])


def test_spec_names_and_limits():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                          ("1", "per_layer")])
def test_contract_output_schema(capsys, trace, section):
    code, out = contract(capsys, "--workload", "storage_io", "--trace", trace)
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float))
               for v in out["metrics"].values())
    if trace == "1":
        m = {k: v["value"] for k, v in out["metrics"].items()}
        assert 0.98 <= m["ledger.accounted_frac"] <= 1.02
        assert m["ledger.missing_targets"] == 0
        assert m["mapreduce.engine.calls"] > 0 and m["fs.hdfs.calls"] > 0


def test_traced_fingerprint_equals_untraced_and_calls_repeat():
    first, second = traced(), traced()
    for out in (first, second):
        assert out["failed"] == 0, out["failed_checks"]
        assert out["fingerprint"] is not None
    exact = [{"calls": {k: v["calls"] for k, v in o["snapshots"][0]["layers"]
                        .items()},
              "counters": o["snapshots"][0]["counters"]}
             for o in (first, second)]
    assert exact[0] == exact[1]
    assert exact[0]["calls"]["sim.process.switch"] > 0
    assert exact[0]["counters"]["spark.storage.gets"] > 0


def _raw_attrs() -> dict:
    found = {}
    for t in [ledger.SPAWN, *ledger.TARGETS]:
        owner = importlib.import_module(t.module)
        *path, name = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        found[t.module, t.attr] = vars(owner)[name]
    return found


def test_uninstall_restores_every_attribute():
    import repro.core.figures  # noqa: F401 - load the aliases
    import repro.fs.records
    import repro.mapreduce.engine

    before = _raw_attrs()
    with ledger.Ledger() as led:
        assert not led.missing
        during = _raw_attrs()
        assert all(during[k] is not before[k] for k in before)
        # a ``from module import fn`` alias follows its function
        assert (repro.mapreduce.engine.read_split_records
                is repro.fs.records.read_split_records)
    after = _raw_attrs()
    assert all(after[k] is before[k] for k in before)
    assert (repro.mapreduce.engine.read_split_records
            is before["repro.fs.records", "read_split_records"])


def test_missing_target_is_listed_and_does_not_fail(monkeypatch):
    gone = ledger.Target("repro.spark.shuffle", "ShuffleWriter.renamed_away",
                         "spark.shuffle.write")
    nowhere = ledger.Target("repro.no_such_module", "f", "nowhere")
    monkeypatch.setattr(ledger, "TARGETS", [*ledger.TARGETS, gone, nowhere])
    out = traced("pagerank_shuffle")
    assert out["failed"] == 0, out["failed_checks"]
    assert out["snapshots"][0]["missing_targets"] == [
        "repro.spark.shuffle:ShuffleWriter.renamed_away",
        "repro.no_such_module:f"]


def _broken(name: str, **changes) -> dict:
    return {**workloads.WORKLOADS,
            name: workloads.WORKLOADS[name]._replace(**changes)}


def test_failing_shape_check_fails_the_run(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", _broken(
        "reduce_latency", shape=lambda s: [("deliberately false", False)]))
    code, out = contract(capsys, "--workload", "reduce_latency",
                         spawn=in_process)
    assert code != 0
    assert out["correct"] is False and 0 < out["failed"] < out["attempted"]


def test_raising_workload_fails_the_run(capsys, monkeypatch):
    def params(seed, smoke):
        raise RuntimeError("deliberate")

    monkeypatch.setattr(workloads, "WORKLOADS", _broken(
        "reduce_latency", params=params))
    code, out = contract(capsys, "--workload", "reduce_latency",
                         spawn=in_process)
    assert code != 0
    assert out["correct"] is False and out["failed"] > 0


def test_compare_verdicts():
    import compare

    def stat(samples):
        return run.summary(samples)

    tight = stat([1.00, 1.01, 1.02, 1.01])
    assert compare.verdict(tight, stat([1.05, 1.06, 1.04, 1.05]), 0.10) \
        == "within-bound"
    assert compare.verdict(tight, stat([1.20, 1.21, 1.22, 1.21]), 0.10) \
        == "regressed"
    wide = stat([0.8, 1.0, 1.2, 1.4])
    assert compare.verdict(wide, stat([0.9, 1.1, 1.3, 1.5]), 0.10) \
        == "unresolved"
    assert compare.verdict(wide, stat([0.5, 0.6, 0.7, 0.75]), 0.10) \
        == "within-bound"
    assert compare.verdict(wide, stat([2.0, 2.2, 2.4, 2.6]), 0.10) \
        == "regressed"
