"""Layer probes: direct timed calls into public functions of single layers.

Run in their own worker, after the workloads.  Reported as per-layer
metrics and never gated: each is a few seconds of one layer with nothing
else in the way, the number a change to that layer should move first.
The worker is pinned to one CPU except where a probe says otherwise.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Callable

import numpy as np

import affinity

#: the suite the driver and cache probes run, at the registry's quick sizes
SUITE = ["fig3", "table2", "fig4", "fig6", "fig7"]


def _median_of(n: int, fn: Callable[[], float]) -> float:
    return sorted(fn() for _ in range(n))[n // 2]


def engine_probes(smoke: bool, allowed: set[int] | None) -> dict:
    """The two costs an engine rewrite trades against each other."""
    from repro.sim.engine import Engine, current_process

    def sleeper(n: int):
        def body() -> None:
            proc = current_process()
            for _ in range(n):
                proc.sleep(1e-6)
        return body

    def run(procs: int, n: int) -> float:
        eng = Engine()
        for _ in range(procs):
            eng.spawn(sleeper(n))
        t0 = time.perf_counter()
        eng.run()
        return (time.perf_counter() - t0) / (procs * n) * 1e6

    forced_n, retained_n = (1_000, 20_000) if smoke else (10_000, 200_000)
    with affinity.unpinned(allowed):
        # the kernel may wake the next thread on another core
        forced_unpinned = _median_of(3, lambda: run(2, forced_n // 2))
    return {
        # two processes alternating: every checkpoint hands the token over
        "sim.engine.forced_switch_us": _median_of(
            3, lambda: run(2, forced_n)),
        "sim.engine.forced_switch_unpinned_us": forced_unpinned,
        # one process: every checkpoint keeps the token
        "sim.engine.retained_checkpoint_us": _median_of(
            3, lambda: run(1, retained_n)),
    }


def blocks_probes(seed: int, smoke: bool) -> dict:
    """Columnar shuffle kernels on a seeded block of pairs (Mrecords/s)."""
    from repro.sim.blocks import PairBlock, partition_pairs, sum_by_key

    n = 100_000 if smoke else 1_000_000
    rng = np.random.default_rng(seed)
    block = PairBlock(rng.integers(0, n // 8, size=n, dtype=np.int64),
                      rng.random(n))

    def rate(fn: Callable[[], object]) -> float:
        def once() -> float:
            t0 = time.perf_counter()
            fn()
            return n / (time.perf_counter() - t0) / 1e6
        return _median_of(5, once)

    return {
        "sim.blocks.partition_mrec_s": rate(
            lambda: partition_pairs(block, 64)),
        "sim.blocks.sum_by_key_mrec_s": rate(
            lambda: sum_by_key(block.keys, block.values)),
    }


def driver_probes(checks: dict) -> dict:
    """What the driver adds on top of the units it runs, serial and sharded."""
    from repro.platform import run_suite

    def timed(workers: int):
        t0 = time.perf_counter()
        suite = run_suite(SUITE, quick=True, workers=workers, cache=False)
        return time.perf_counter() - t0, suite

    serial_s, suite = timed(1)
    units_s = sum(u.wall_s for parts in suite.unit_results.values()
                  for u in parts)
    sharded_s, sharded = timed(2)
    checks["driver: sharded fingerprints equal serial"] = (
        suite.fingerprints() == sharded.fingerprints())
    return {
        "platform.driver.overhead_s": serial_s - units_s,
        "platform.driver.sharded_s": sharded_s,
    }


def cache_probes(checks: dict) -> dict:
    """Cold run, warm replay and hit ratio against a throw-away store."""
    from repro.platform import run_suite

    # workers run with the cache kill switch on; this probe needs a store
    kill_switch = os.environ.pop("REPRO_NO_CACHE", None)
    try:
        # the store must live inside the checkout the benchmark runs in
        with tempfile.TemporaryDirectory(prefix=".perf-cache-",
                                         dir=os.getcwd()) as root:
            t0 = time.perf_counter()
            cold = run_suite(SUITE, quick=True, cache=root)
            t1 = time.perf_counter()
            warm = run_suite(SUITE, quick=True, cache=root)
            t2 = time.perf_counter()
    finally:
        if kill_switch is not None:
            os.environ["REPRO_NO_CACHE"] = kill_switch
    checks["cache: warm fingerprints equal cold"] = (
        cold.fingerprints() == warm.fingerprints())
    stats = warm.cache or {"hits": 0, "misses": 1}
    return {
        "cache.cold_s": t1 - t0,
        "cache.warm_replay_s": t2 - t1,
        "cache.hit_ratio": stats["hits"] / (stats["hits"] + stats["misses"]),
    }


def calibrate_probes() -> dict:
    """The model's error against the paper's anchors (decades, RMS).

    Only Fig 3 and Table II have anchors; figs 4, 6 and 7 are unvalidated
    and get no error figure.
    """
    from repro.analysis.calibrate import evaluate

    t0 = time.perf_counter()
    report = evaluate("comet")
    evaluate_s = time.perf_counter() - t0
    figures = report["figures"]
    return {
        "analysis.calibrate.fig3_rms_decades": figures["fig3"]["rms_log10"],
        "analysis.calibrate.table2_rms_decades":
            figures["table2"]["rms_log10"],
        "analysis.calibrate.evaluate_s": evaluate_s,
    }


def run_all(seed: int, smoke: bool, allowed: set[int] | None) -> dict:
    """Every probe's metrics, and the checks the probes made on the way.

    ``allowed`` is the CPU mask the worker had before it pinned itself.
    """
    checks: dict[str, bool] = {}
    with affinity.unpinned(allowed):  # sharding needs its second core
        driver = driver_probes(checks)
    metrics = {**engine_probes(smoke, allowed), **blocks_probes(seed, smoke),
               **driver, **cache_probes(checks), **calibrate_probes()}
    return {"metrics": metrics, "checks": checks,
            "unvalidated": ["fig4", "fig6", "fig7"]}
