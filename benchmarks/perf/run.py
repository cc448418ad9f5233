#!/usr/bin/env python3
"""The repo benchmark: four figure workloads, host-time end-to-end metrics
and an outside-in layer ledger.  Metric names, units, bounds and workload
names live in ``BENCHMARK.json`` at the repo root; README.md here explains
them.  All times are *host* time unless the name says ``virtual``.

Three ways to run it (from the repo root; ``src/`` is found by itself)::

    # everything, every metric printed by name with its unit
    python benchmarks/perf/run.py [--seed N] [--seconds S]
                                  [--workloads a,b] [--out FILE] [--smoke]
    # one measured run in the form the PR driver reads (JSON on the last line)
    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    # two --out files: medians, quartiles, ratios, verdicts; exit 1 on regression
    python benchmarks/perf/run.py --compare A.json B.json

Workers run one at a time, each in a fresh process with a pinned
environment (``worker.py``).  A simulation uses many threads but the
engine's token lets exactly one run, so the load is one busy core.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SPEC_PATH = REPO / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

#: fresh processes per untraced run: each pays set-up once, so a run yields
#: this many ``setup_s`` and ``peak_rss_mb`` samples and reports their median
WORKERS_PER_RUN = 3
WORKER_TIMEOUT_S = 170
#: share of ``--seconds`` a traced run spends on its untraced / traced
#: repetition pairs; one unpinned repetition and the layer probes (about
#: 10 s) take the rest
TRACED_SHARE = 0.45

#: execution hatches and cache settings a caller's shell may carry
UNPINNED = ("REPRO_SIM_SLOWPATH", "REPRO_SPARK_NOFUSE", "REPRO_SPARK_SCALAR",
            "REPRO_SANITIZE", "REPRO_CACHE_DIR")
PINNED = {"REPRO_NO_CACHE": "1", "PYTHONHASHSEED": "0"}


class WorkerError(RuntimeError):
    """A worker died, hung or printed no result."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def worker_env() -> dict:
    return {**{k: v for k, v in os.environ.items() if k not in UNPINNED},
            **PINNED}


def spawn_worker(argv: list[str]) -> dict:
    """Run ``worker.py`` to completion in a fresh process; parse its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv,
           "--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(
            cmd, env=worker_env(),
            stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out: {' '.join(argv)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"worker exited {proc.returncode}: {' '.join(argv)}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise WorkerError(f"worker printed no result: {lines[-1]!r}") from exc


def is_noisy(load_1min: float) -> bool:
    """Were more tasks runnable than there are cores?

    The benchmark's own workers keep the 1-minute load near 1 and its
    unpinned phases push it towards 2, so ``cores - 1`` would flag every
    run on the 2-core host; above ``cores`` something else was competing.
    """
    return load_1min > (os.cpu_count() or 1)


def summary(values: list[float]) -> dict:
    """Median, quartiles, minimum and the samples themselves."""
    q1, _q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "n": len(values), "samples": values}


# ---------------------------------------------------------------------------
# one measured run of one workload
# ---------------------------------------------------------------------------


def _common_argv(name: str, seed: int, smoke: bool) -> list[str]:
    return ["--workload", name, "--seed", str(seed)] + (
        ["--smoke"] if smoke else [])


def measure_untraced(name: str, seed: int, seconds: float, smoke: bool,
                     spawn: Callable[[list[str]], dict] = spawn_worker) -> dict:
    """End-to-end metrics, tracing off: ``WORKERS_PER_RUN`` workers in turn."""
    workers, loads = [], []
    for i in range(WORKERS_PER_RUN):
        loads.append(os.getloadavg()[0])
        argv = ["--mode", "untraced", *_common_argv(name, seed, smoke),
                "--seconds", repr(seconds / WORKERS_PER_RUN)]
        if i == WORKERS_PER_RUN - 1:
            argv.append("--validate")
        workers.append(spawn(argv))
    fingerprints = {w["fingerprint"] for w in workers}
    attempted = sum(w["attempted"] for w in workers) + 1
    failed = sum(w["failed"] for w in workers) + (len(fingerprints) != 1)
    failed_checks = sorted({c for w in workers for c in w["failed_checks"]}
                           | ({"every worker has the same fingerprint"}
                              if len(fingerprints) != 1 else set()))
    walls = [t for w in workers for t in w["walls_s"]]
    cpus = [t for w in workers for t in w["cpus_s"]]
    stats = {
        "wall_s": summary(walls),
        "cpu_s": summary(cpus),
        "peak_rss_mb": summary([w["peak_rss_mb"] for w in workers]),
        "setup_s": summary([w["setup_s"] for w in workers]),
    }
    return {
        "metrics": {k: v["median"] for k, v in stats.items()},
        "stats": stats,
        "attempted": attempted, "failed": failed,
        "failed_checks": failed_checks,
        "fingerprint": workers[0]["fingerprint"],
        "virtual_s": workers[0]["virtual_s"],
        "load_1min": loads,
        "noisy": is_noisy(max(loads)),
    }


def layer_metrics(traced: dict, probes: dict | None) -> dict:
    """Per-layer metrics by name from a traced worker's snapshots."""
    snaps = traced["snapshots"]
    first = snaps[0]
    metrics: dict[str, float] = {}
    for layer in first["layers"]:
        metrics[f"{layer}.self_s"] = statistics.median(
            s["layers"][layer]["self_s"] for s in snaps)
        metrics[f"{layer}.calls"] = first["layers"][layer]["calls"]
    metrics.update(first["counters"])
    gets = metrics.get("spark.storage.gets", 0)
    metrics["spark.storage.hit_ratio"] = (
        metrics.get("spark.storage.hits", 0) / gets if gets else 0.0)
    metrics["core.figures.virtual_s"] = traced["virtual_s"]
    metrics["ledger.accounted_frac"] = statistics.median(
        sum(v["self_s"] for v in s["layers"].values()) / s["wall_s"]
        for s in snaps)
    metrics["ledger.overhead_frac"] = (
        statistics.median(traced["traced_walls_s"])
        / statistics.median(traced["untraced_walls_s"]) - 1.0)
    metrics["ledger.missing_targets"] = len(first["missing_targets"])
    metrics["host.unpinned_wall_s"] = traced["unpinned_wall_s"]
    if probes is not None:
        metrics.update(probes["metrics"])
    return metrics


def measure_traced(name: str, seed: int, seconds: float, smoke: bool,
                   spawn: Callable[[list[str]], dict] = spawn_worker,
                   *, with_probes: bool = True) -> dict:
    """Per-layer metrics: one traced worker, then the layer probes."""
    load = os.getloadavg()[0]
    traced = spawn(["--mode", "traced", *_common_argv(name, seed, smoke),
                    "--seconds", repr(seconds * TRACED_SHARE)])
    attempted, failed = traced["attempted"], traced["failed"]
    failed_checks = list(traced["failed_checks"])
    probes = None
    if with_probes:
        probes = run_probes(seed, smoke, spawn)
        attempted += len(probes["checks"])
        bad = sorted(c for c, ok in probes["checks"].items() if not ok)
        failed += len(bad)
        failed_checks += bad
    first = traced["snapshots"][0]
    return {
        "metrics": layer_metrics(traced, probes),
        "edges": first["edges"],
        "missing_targets": first["missing_targets"],
        "untraced_walls_s": traced["untraced_walls_s"],
        "traced_walls_s": traced["traced_walls_s"],
        "unpinned_wall_s": traced["unpinned_wall_s"],
        "attempted": attempted, "failed": failed,
        "failed_checks": failed_checks,
        "fingerprint": traced["fingerprint"],
        "load_1min": [load],
        "noisy": is_noisy(load),
    }


def run_probes(seed: int, smoke: bool,
               spawn: Callable[[list[str]], dict] = spawn_worker) -> dict:
    return spawn(["--mode", "probes", "--seed", str(seed)]
                 + (["--smoke"] if smoke else []))


# ---------------------------------------------------------------------------
# the driver's contract: one run, one JSON line
# ---------------------------------------------------------------------------


def contract_run(args: argparse.Namespace, spec: dict,
                 spawn: Callable[[list[str]], dict] = spawn_worker) -> int:
    measure = measure_traced if args.trace else measure_untraced
    run = measure(args.workload, args.seed, args.seconds, args.smoke, spawn)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for check in run["failed_checks"]:
        print(f"FAILED CHECK: {check}", file=sys.stderr)
    metrics = {m["name"]: {"value": run["metrics"][m["name"]],
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if run["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# the whole suite, for people
# ---------------------------------------------------------------------------


def host_metadata() -> dict:
    import platform

    def first_line(path: str, prefix: str) -> str | None:
        try:
            for line in Path(path).read_text().splitlines():
                if line.lower().startswith(prefix):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": os.cpu_count(),
            "cpu_model": first_line("/proc/cpuinfo", "model name"),
            "ram": first_line("/proc/meminfo", "memtotal"),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_commit": commit}


def measure_workload(name: str, args: argparse.Namespace) -> dict:
    """Both runs of one workload, and the checks that span them."""
    try:
        untraced = measure_untraced(name, args.seed, args.seconds, args.smoke)
        traced = measure_traced(name, args.seed, args.seconds, args.smoke,
                                with_probes=False)
    except WorkerError as exc:
        return {"error": str(exc), "failed_frac": 1.0}
    same = traced["fingerprint"] == untraced["fingerprint"]
    attempted = untraced["attempted"] + traced["attempted"] + 1
    failed = untraced["failed"] + traced["failed"] + (not same)
    return {"end_to_end": untraced, "per_layer": traced,
            "failed_frac": failed / attempted, "attempted": attempted,
            "failed": failed,
            "failed_checks": untraced["failed_checks"]
            + traced["failed_checks"]
            + ([] if same else ["traced fingerprint equals untraced"])}


def print_workload(entry: dict, units: dict) -> None:
    if "error" in entry:
        print(f"   FAILED: {entry['error']}")
        return
    untraced, traced = entry["end_to_end"], entry["per_layer"]
    for metric, stat in untraced["stats"].items():
        print(f"   {metric:<38} {stat['median']:>14.4f} {units[metric]:<8}"
              f" q1 {stat['q1']:.4f} q3 {stat['q3']:.4f}"
              f" min {stat['min']:.4f} n {stat['n']}")
    print(f"   {'failed_frac':<38} {entry['failed_frac']:>14.4f}"
          f" {'ratio':<8} {entry['failed']} of {entry['attempted']}"
          " checks failed")
    for check in entry["failed_checks"]:
        print(f"   FAILED CHECK: {check}")
    if untraced["noisy"] or traced["noisy"]:
        print("   NOISY: 1-min load average above the core count")
    _print_metrics(traced["metrics"], units)
    print(f"   {'core.figures.fingerprint':<38}"
          f" {untraced['fingerprint']:>14}")


def suite_run(args: argparse.Namespace, spec: dict) -> int:
    import workloads as table

    names = args.workloads.split(",") if args.workloads else list(
        table.WORKLOADS)
    unknown = [n for n in names if n not in table.WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workloads {unknown};"
                         f" have {list(table.WORKLOADS)}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    report: dict = {
        "host": host_metadata(), "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "workers_per_run": WORKERS_PER_RUN,
        "pinned_env": {**PINNED, "removed": list(UNPINNED)},
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
        "workloads": {},
    }
    for name in names:
        workload = table.WORKLOADS[name]
        print(f"== {name}: repro.core.figures.{workload.figure}"
              f" — {workload.why}")
        print(f"   seed {args.seed}" + (
            "" if workload.seeded else
            " (no random input: this workload is the same for every seed)"))
        entry = report["workloads"][name] = measure_workload(name, args)
        print_workload(entry, units)
    print("== layer probes")
    try:
        probes = run_probes(args.seed, args.smoke)
    except WorkerError as exc:
        print(f"   FAILED: {exc}")
        probes = {"metrics": {}, "checks": {"probes ran": False},
                  "unvalidated": []}
    report["probes"] = probes
    _print_metrics(probes["metrics"], units)
    for fig in probes["unvalidated"]:
        print(f"   {fig}: unvalidated (no calibration anchors)")
    for check, ok in probes["checks"].items():
        if not ok:
            print(f"   FAILED CHECK: {check}")
    any_failed = (not all(probes["checks"].values())
                  or any(w["failed_frac"] > 0
                         for w in report["workloads"].values()))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 1 if any_failed else 0


def _print_metrics(metrics: dict, units: dict) -> None:
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    for metric, value in metrics.items():
        if metric not in units:
            continue
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        share = (f"  {value / total:6.1%} of traced wall"
                 if metric.endswith(".self_s") and total else "")
        print(f"   {metric:<38} {shown} {units[metric]:<8}{share}")


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="one driver-contract run of this"
                    " workload (prints one JSON object last)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 0 end-to-end, 1 per-layer metrics")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run (default: BENCHMARK.json"
                    " run_seconds)")
    ap.add_argument("--workloads", help="suite mode: comma-separated subset")
    ap.add_argument("--out", help="suite mode: write every number here")
    ap.add_argument("--smoke", action="store_true",
                    help="registry quick sizes (self-tests only)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    return args


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if args.workload:
        try:
            return contract_run(args, spec)
        except WorkerError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 2
    return suite_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
