"""Wall-clock benchmark of the simulator (tools/bench_wallclock).

Asserts the headline acceptance numbers: the figures regenerate several
times faster than their recorded seed wall times.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench

_TOOL = Path(__file__).parent.parent / "tools" / "bench_wallclock.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_wallclock", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_wallclock_fig3_speedup(benchmark):
    bench = _load()
    entry = benchmark.pedantic(bench.run_workload, args=("fig3",),
                               rounds=1, iterations=1)
    # seed engine took ~19.7s; require a conservative 5x so a loaded CI
    # machine cannot flake the (locally >10x) speedup assertion
    assert entry["speedup_vs_seed"] > 5.0
    assert entry["wall_s"] < bench.SEED_WALL["fig3"] / 5.0


def test_bench_wallclock_fig4_speedup(benchmark):
    bench = _load()
    entry = benchmark.pedantic(bench.run_workload, args=("fig4",),
                               rounds=1, iterations=1)
    # pre-batching engine took ~218s; the acceptance floor is 3x, asserted
    # conservatively so a loaded CI machine cannot flake a (locally ~9x)
    # speedup
    assert entry["speedup_vs_seed"] > 3.0
    assert entry["wall_s"] < bench.SEED_WALL["fig4"] / 3.0


def test_bench_wallclock_fig6_speedup(benchmark):
    bench = _load()
    entry = benchmark.pedantic(bench.run_workload, args=("fig6",),
                               rounds=1, iterations=1)
    assert entry["speedup_vs_seed"] > 2.0  # pre-batching seed ~268s


def test_bench_wallclock_fig7_speedup(benchmark):
    bench = _load()
    entry = benchmark.pedantic(bench.run_workload, args=("fig7",),
                               rounds=1, iterations=1)
    assert entry["speedup_vs_seed"] > 2.0  # pre-batching seed ~78s


def test_main_writes_bench_json(tmp_path):
    bench = _load()
    out = tmp_path / "BENCH_sim.json"
    assert bench.main(["--only", "fig4_mini", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"python", "machine", "host", "workloads"}
    wl = data["workloads"]["fig4_mini"]
    assert set(wl) == {"wall_s", "walls_s", "seed_wall_s",
                       "speedup_vs_seed", "fingerprint"}
