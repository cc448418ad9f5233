"""One benchmark worker process: import, warm up, repeat, report.

Started by ``run.py``, one at a time, with a pinned environment, and pins
itself to one CPU before it imports anything heavy (``affinity.py`` says
why).  Prints one JSON object on the last line of standard output.  Closed
loop, one client: the next repetition starts when the previous one returns.

``--mode untraced``  warm-up, then timed repetitions until ``--seconds`` are
                     used (at least two).  Never imports the ledger.
``--mode traced``    warm-up, then alternating untraced / traced
                     repetitions (a fresh ledger per traced one), so the
                     tracing overhead is measured against the same minutes
                     of the same process; then one repetition with the
                     worker let loose on every CPU.
``--mode probes``    the layer probes (``probes.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import affinity  # noqa: E402 - needs HERE on the path


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Repetitions:
    """Runs repetitions of one workload and keeps what each one showed."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        import workloads

        self.workloads = workloads
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.smoke = smoke
        self.checks: list[tuple[str, bool]] = []
        self.fingerprints: list[str] = []
        self.virtual_s: float | None = None
        #: checks one good repetition makes; what a raising one forfeits
        self._per_rep = 1

    def once(self) -> tuple[float, float]:
        """One repetition; returns ``(wall_s, cpu_s)``.

        A repetition that raises counts every check it would have made as
        failed (as many as the last good one made, or one).
        """
        from repro.platform import fingerprint_result

        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            result = self.workloads.run(self.workload, self.seed, self.smoke)
        except Exception:  # noqa: BLE001 - the benchmark must report, not die
            wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
            traceback.print_exc()
            self.checks += [(f"{self.workload.figure}: repetition raised",
                             False)] * self._per_rep
            return wall, cpu
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        checks = self.workloads.check_result(self.workload, result,
                                             self.smoke)
        self._per_rep = len(checks)
        self.checks += checks
        self.fingerprints.append(fingerprint_result(result))
        self.virtual_s = self.workloads.virtual_seconds(result)
        return wall, cpu

    def report(self) -> dict:
        same = len(set(self.fingerprints)) == 1
        self.checks.append(
            (f"{self.workload.figure}: every repetition has the same"
             " fingerprint", same))
        return {
            "fingerprint": self.fingerprints[0] if same else None,
            "virtual_s": self.virtual_s,
            "attempted": len(self.checks),
            "failed": sum(not ok for _c, ok in self.checks),
            "failed_checks": sorted({c for c, ok in self.checks if not ok}),
        }


def run_untraced(args: argparse.Namespace) -> dict:
    reps = Repetitions(args.workload, args.seed, args.smoke)
    reps.once()
    setup_s = time.time() - args.spawned_at
    walls, cpus, rss = [], [], None
    deadline = time.perf_counter() + args.seconds
    # at least two; after that only one that should end inside the budget
    while len(walls) < 2 or time.perf_counter() + walls[-1] < deadline:
        wall, cpu = reps.once()
        walls.append(wall)
        cpus.append(cpu)
        if len(walls) == 2:
            # fixed point, so memo growth is the same whatever the host speed
            rss = _rss_mb()
    if args.validate:
        run_validate(reps)
    return {"setup_s": setup_s, "walls_s": walls, "cpus_s": cpus,
            "peak_rss_mb": rss, **reps.report()}


def run_validate(reps: Repetitions) -> None:
    """``repro.core.validate``: each row that is not ``ok`` is a failed check."""
    from repro.core.validate import validate

    try:
        rows = validate().rows
    except Exception:  # noqa: BLE001 - report as a failed check
        traceback.print_exc()
        reps.checks.append(("validate: ran", False))
        return
    for bench, model, status, _detail in rows:
        reps.checks.append((f"validate: {bench}/{model}", status == "ok"))


def run_traced(args: argparse.Namespace, allowed: set[int] | None) -> dict:
    reps = Repetitions(args.workload, args.seed, args.smoke)
    reps.once()
    import ledger

    untraced, traced, snapshots = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced) < 2 or (time.perf_counter() + untraced[-1]
                              + traced[-1] < deadline):
        untraced.append(reps.once()[0])
        n_plain = len(reps.fingerprints)
        with ledger.Ledger() as led:
            wall, _cpu = reps.once()
            snap = led.snapshot()
        snap["wall_s"] = wall
        traced.append(wall)
        snapshots.append(snap)
        if len(reps.fingerprints) > n_plain:
            reps.checks.append(
                (f"{reps.workload.figure}: traced fingerprint equals untraced",
                 reps.fingerprints[-1] == reps.fingerprints[0]))
    exact = [{"calls": {k: v["calls"] for k, v in s["layers"].items()},
              "counters": s["counters"]} for s in snapshots]
    reps.checks.append((f"{reps.workload.figure}: call counts repeat exactly",
                        all(e == exact[0] for e in exact)))
    with affinity.unpinned(allowed):
        unpinned_wall = reps.once()[0]
    return {"untraced_walls_s": untraced, "traced_walls_s": traced,
            "unpinned_wall_s": unpinned_wall, "snapshots": snapshots,
            **reps.report()}


def execute(argv: list[str] | None = None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("untraced", "traced", "probes"),
                    required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--spawned-at", type=float, default=time.time())
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--validate", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        # measure this checkout's program, never an installed copy
        raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")
    allowed = affinity.pin()
    try:
        if args.mode == "probes":
            import probes

            return probes.run_all(args.seed, args.smoke, allowed)
        if args.mode == "traced":
            return run_traced(args, allowed)
        return run_untraced(args)
    finally:
        affinity.unpin(allowed)


if __name__ == "__main__":
    print(json.dumps(execute()))
