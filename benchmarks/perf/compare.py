"""``run.py --compare A.json B.json``: is B worse than A, by this benchmark?

A and B are ``--out`` files of two suite runs, A the base.  Every
end-to-end metric here is lower-is-better.  For each workload and metric the
verdict follows choosing-metrics §6.5:

``within-bound``  B's median is no worse than A's by more than the bound
``regressed``     it is worse by more than the bound
``unresolved``    the spread of A's or B's own samples (distance between
                  their quartiles over their median) is wider than the
                  bound and the samples overlap, so the medians decide
                  nothing — unless every B sample reads better than every A
                  sample, which is ``within-bound``

Counts the program makes (``*.calls``, byte counters, simulated seconds,
fingerprints) are deterministic, so they are compared for exact equality and
listed when they differ.  Exit 1 on any ``regressed`` or any rise in
``failed_frac``.
"""

from __future__ import annotations

import json
from pathlib import Path

#: per-layer metrics that must repeat exactly between two commits whose
#: simulated behaviour is the same
EXACT_SUFFIXES = (".calls", "_bytes", ".spawned", ".runs", ".gets", ".hits",
                  ".sessions", ".virtual_s", ".hit_ratio")


def verdict(a: dict, b: dict, bound: float) -> str:
    """``a`` and ``b`` are ``run.summary`` dicts of one metric."""
    worse_by = b["median"] / a["median"] - 1.0
    widest = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if widest > bound:
        if max(b["samples"]) < min(a["samples"]):
            return "within-bound"
        if min(b["samples"]) <= max(a["samples"]):
            return "unresolved"
    return "regressed" if worse_by > bound else "within-bound"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines, and whether B regressed against A."""
    lines: list[str] = []
    bad = False
    bounds = a["bounds"]
    for key in ("seed", "seconds", "smoke"):
        if a[key] != b[key]:
            lines.append(f"NOTE: {key} differs: A {a[key]} B {b[key]}")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name}: missing from B")
            bad = True
            continue
        lines.append(f"== {name}")
        if wb["failed_frac"] > wa["failed_frac"]:
            lines.append(f"   failed_frac rose: A {wa['failed_frac']:.4f}"
                         f" B {wb['failed_frac']:.4f}  regressed")
            bad = True
        if "error" in wa or "error" in wb:
            lines.append("   a run failed; nothing to compare")
            continue
        for metric, sa in wa["end_to_end"]["stats"].items():
            sb = wb["end_to_end"]["stats"][metric]
            what = verdict(sa, sb, bounds[metric])
            bad |= what == "regressed"
            lines.append(
                f"   {metric:<12} A {sa['median']:.4f}"
                f" [{sa['q1']:.4f}, {sa['q3']:.4f}] n {sa['n']}"
                f"  B {sb['median']:.4f} [{sb['q1']:.4f}, {sb['q3']:.4f}]"
                f" n {sb['n']}  B/A {sb['median'] / sa['median']:.3f}"
                f" (base A)  bound +{bounds[metric]:.0%}  {what}")
        if wa["end_to_end"]["fingerprint"] != wb["end_to_end"]["fingerprint"]:
            lines.append(f"   fingerprint differs:"
                         f" A {wa['end_to_end']['fingerprint']}"
                         f" B {wb['end_to_end']['fingerprint']}")
        ma, mb = wa["per_layer"]["metrics"], wb["per_layer"]["metrics"]
        differing = [k for k in ma if k.endswith(EXACT_SUFFIXES)
                     and ma[k] != mb.get(k)]
        for k in differing:
            lines.append(f"   exact count differs: {k}: A {ma[k]}"
                         f" B {mb.get(k)}")
        if not differing:
            lines.append("   exact counts (calls, bytes, virtual_s): equal")
    lines.append("REGRESSED" if bad else "no regression")
    return lines, bad


def main(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    lines, bad = compare(a, b)
    print(f"A (base) = {path_a} @ {a['host']['git_commit']}")
    print(f"B        = {path_b} @ {b['host']['git_commit']}")
    print("\n".join(lines))
    return 1 if bad else 0
