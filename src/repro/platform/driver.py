"""Process-parallel experiment driver with a serial≡parallel guarantee.

The registry's experiments decompose into *units*, one per (sweep point ×
framework series): an experiment whose sweep parameter
(``Experiment.shard_param``) holds N independent points and which declares
M series (``Experiment.series``) becomes N × M units, each provisioning
its own sessions, so the whole suite — and the cells inside one figure —
shard across ``workers`` subprocesses.
Each unit run emits a manifest (params, wall seconds, result fingerprint)
into a results directory and a merge step reassembles
:class:`~repro.core.report.FigureResult`/:class:`~repro.core.report.TableResult`
objects that are **bit-identical to serial execution**: every unit is a
self-contained deterministic simulation, and the merge concatenates points
and rows in planned (not completion) order.  The fingerprint discipline of
the scheduler and data-plane PRs (DESIGN.md §4.1–4.2) therefore extends to
the orchestration layer: ``workers=4`` and ``workers=1`` must digest
identically, and CI diffs the quick suite against a checked-in golden file.

Programmatic use::

    from repro.platform import run_suite
    suite = run_suite(["fig4", "fig6"], quick=True, workers=4,
                      out_dir=Path("results"))
    suite.results["fig4"].render()

Command-line use (``python -m repro``)::

    python -m repro run fig3 --quick --workers 4 --out results/
    python -m repro list --json
    python -m repro report results/
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import inspect
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.report import FigureResult, TableResult

# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def fingerprint_result(result: FigureResult | TableResult) -> str:
    """Bit-exact digest of a figure/table's virtual-time outputs.

    Floats are hashed via their hex representation, so two runs produced
    identical simulations iff their fingerprints match — the invariant the
    golden fingerprints pin, reused here for serial-vs-sharded driver runs.
    """
    h = hashlib.sha256()
    if isinstance(result, TableResult):
        for row in result.rows:
            h.update(("|".join(str(c) for c in row) + "\n").encode())
    else:
        for s in result.series:
            for x, y in s.points:
                y_repr = "-" if y is None else (
                    y.hex() if isinstance(y, float) else str(y))
                h.update(f"{s.name}|{x}|{y_repr}\n".encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# planning: experiments -> units
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    """One independently runnable shard of an experiment.

    ``params`` is fully resolved (quick params and overrides already
    folded in), so a unit is self-contained and picklable — exactly what a
    worker subprocess needs.
    """

    exp_id: str
    #: position of this unit's sweep point among the experiment's ``total``
    #: points (every series-unit of one point shares them)
    index: int
    total: int
    params: dict[str, Any] = field(default_factory=dict)
    #: x-value of the sharded sweep point, if this experiment shards
    point: Any = None
    #: framework series this unit runs, if the experiment declares its
    #: series (``Experiment.series``); ``None`` = the whole figure/table
    series: str | None = None

    @property
    def key(self) -> str:
        base = (self.exp_id if self.total == 1
                else f"{self.exp_id}.{self.index + 1}of{self.total}")
        if self.series is None:
            return base
        slug = "".join(c if c.isalnum() else "-" for c in self.series).lower()
        return f"{base}.{slug}"


def _sweep_default(fn: Callable[..., Any], param: str) -> Any:
    sig = inspect.signature(fn)
    default = sig.parameters[param].default
    if default is inspect.Parameter.empty:  # pragma: no cover - config error
        raise ValueError(f"shard param {param!r} of {fn} has no default")
    return default


def plan_units(exp_id: str, *, quick: bool = False,
               overrides: dict[str, Any] | None = None) -> list[Unit]:
    """Decompose one experiment into its finest independent units.

    One unit per (sweep point × series), point-major: a ``shard_param``
    naming a sweep of N > 1 points gives N single-point slices (else one),
    and an experiment that declares its ``series`` runs each slice once per
    series, in canonical order.  A caller's own ``series`` override selects
    the planned subset; an unknown name is a
    :class:`~repro.errors.ConfigurationError` here, before anything runs.
    The plan never depends on worker count, so merged results cannot
    depend on scheduling.
    """
    from repro.core.experiment import get_experiment
    from repro.errors import ConfigurationError

    exp = get_experiment(exp_id)
    params = dict(exp.quick_params) if quick else {}
    params.update(overrides or {})
    slices: list[tuple[dict[str, Any], Any]] = [(params, None)]
    if exp.shard_param is not None:
        sweep = params.get(exp.shard_param)
        if sweep is None:
            sweep = _sweep_default(exp.run, exp.shard_param)
        points = list(sweep)
        if len(points) > 1:
            slices = [({**params, exp.shard_param: (x,)}, x) for x in points]
    names: tuple[str | None, ...] = (None,)
    if exp.series:
        asked = params.get("series")
        asked = exp.series if asked is None else tuple(asked)
        if not asked or any(name not in exp.series for name in asked):
            raise ConfigurationError(
                f"{exp_id}: series {list(asked)} must be a non-empty "
                f"subset of {list(exp.series)}")
        # canonical (serial) order, so the merge lists series as a serial
        # run of the figure would
        names = tuple(name for name in exp.series if name in asked)
    return [
        Unit(exp_id, i, len(slices),
             p if name is None else {**p, "series": (name,)},
             point=x, series=name)
        for i, (p, x) in enumerate(slices)
        for name in names
    ]


# ---------------------------------------------------------------------------
# merging: unit results -> the serial result
# ---------------------------------------------------------------------------


def merge_results(
    parts: list[FigureResult] | list[TableResult],
) -> FigureResult | TableResult:
    """Reassemble one experiment's unit results, in unit order.

    Tables concatenate rows; figures union series by name, concatenating
    each series' points.  With the units planned by :func:`plan_units` —
    point-major, series in canonical order — this reproduces the serial
    result bit for bit: a point-shard extends every series with the same
    points the serial loop appends, and a series-unit's lone series lands
    (first occurrence) in the same position the serial figure lists it.
    """
    first = parts[0]
    if len(parts) == 1:
        return first
    if isinstance(first, TableResult):
        rows = [row for part in parts for row in part.rows]
        return dataclasses.replace(first, rows=rows)
    merged = dataclasses.replace(
        first, series=[dataclasses.replace(s, points=list(s.points))
                       for s in first.series])
    by_name = {s.name: s for s in merged.series}
    for part in parts[1:]:
        for source in part.series:
            target = by_name.get(source.name)
            if target is None:
                target = dataclasses.replace(source,
                                             points=list(source.points))
                merged.series.append(target)
                by_name[source.name] = target
            else:
                target.points.extend(source.points)
    return merged


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CachePlan:
    """Result-plane caching instructions shipped to every worker.

    Pinning ``code_version`` at plan time (rather than computing it in
    each worker) keeps one run internally consistent even if sources are
    edited while it executes.  ``refresh`` forces unit re-execution while
    still overwriting (and thus repairing) stored result entries.
    """

    root: str
    code_version: str
    refresh: bool = False


def unit_cache_key(plan: CachePlan, unit: Unit) -> str | None:
    """Result-plane key of a unit, or ``None`` if its params defy encoding.

    Keyed on (code version, experiment id, fully resolved params,
    machine spec) — the unit's ``index``/``total``/``point``/``series``
    are derived from the params and the registry, so they carry no extra
    information.  The scenario a unit provisions is itself a pure function
    of experiment id + params, which is how the key covers the scenario
    fingerprint.  The *resolved*
    :class:`~repro.cluster.MachineSpec` (hardware, costs, fabric routing)
    is folded in — not just its name — so results computed on one machine
    definition are never replayed for another, and editing a registered
    machine invalidates its entries.
    """
    from repro.cache import UncacheableError, cache_key
    from repro.cluster import DEFAULT_MACHINE, resolve_machine
    from repro.errors import ConfigurationError

    try:
        machine = resolve_machine(unit.params.get("machine", DEFAULT_MACHINE))
    except ConfigurationError:
        return None
    # the resolved spec subsumes the name, so drop the ``machine`` param
    # before folding: ``machine="comet"`` and the bare default share keys
    params = {k: v for k, v in unit.params.items() if k != "machine"}
    try:
        return cache_key("unit-result", plan.code_version, unit.exp_id,
                         params, machine)
    except UncacheableError:
        return None


@dataclass
class UnitResult:
    unit: Unit
    result: FigureResult | TableResult
    wall_s: float
    #: True when the result was replayed from the artifact cache
    cached: bool = False
    #: result-plane key, when a cache was active and the unit was keyable
    cache_key: str | None = None
    #: execution wall seconds recorded by the run that produced a replayed
    #: entry (``None`` for uncached / freshly executed units)
    stored_wall_s: float | None = None

    def manifest(self, *, quick: bool) -> dict[str, Any]:
        manifest = {
            "exp_id": self.unit.exp_id,
            "unit": self.unit.index,
            "total_units": self.unit.total,
            "point": repr(self.unit.point),
            "series": self.unit.series,
            "quick": quick,
            "params": {k: repr(v) for k, v in sorted(self.unit.params.items())},
            "wall_s": round(self.wall_s, 3),
            "fingerprint": fingerprint_result(self.result),
            "cached": self.cached,
            "cache_key": self.cache_key,
        }
        if self.stored_wall_s is not None:
            manifest["stored_wall_s"] = self.stored_wall_s
        return manifest


@dataclass
class SuiteResult:
    """Merged results plus the provenance the manifests record."""

    results: dict[str, FigureResult | TableResult]
    unit_results: dict[str, list[UnitResult]]
    workers: int
    quick: bool
    #: artifact-cache provenance: ``None`` when caching was disabled, else
    #: ``{"path", "refresh", "hits", "misses"}`` (result-plane counts)
    cache: dict[str, Any] | None = None

    def fingerprints(self) -> dict[str, str]:
        return {exp_id: fingerprint_result(res)
                for exp_id, res in self.results.items()}

    def manifest(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "quick": self.quick,
            "cache": self.cache,
            "python": sys.version.split()[0],
            "experiments": {
                exp_id: {
                    "fingerprint": fingerprint_result(res),
                    "units": len(self.unit_results[exp_id]),
                    "wall_s": round(sum(u.wall_s
                                        for u in self.unit_results[exp_id]), 3),
                    "title": res.title,
                }
                for exp_id, res in self.results.items()
            },
        }


def _run_unit(unit: Unit, plan: CachePlan | None = None) -> UnitResult:
    """Worker entry point: run one unit (also used in-process).

    With a :class:`CachePlan`, the plan's store is consulted before
    executing, and a fresh execution's result is encoded back into it.  A
    stored entry that fails checksum or decode is dropped and the unit
    re-executes — corrupt entries are never served.
    """
    from repro.core.experiment import run_experiment

    t0 = time.perf_counter()
    store = key = None
    if plan is not None:
        from repro.cache import ArtifactStore

        store = ArtifactStore(plan.root)
        key = unit_cache_key(plan, unit)
    if store is not None and key is not None and not plan.refresh:
        entry = store.load_result(key)
        if entry is not None:
            from repro.cache import decode_result

            try:
                result = decode_result(entry["payload"])
            except (KeyError, ValueError, TypeError):
                store.drop(key)
            else:
                meta = entry.get("meta") or {}
                return UnitResult(unit, result, time.perf_counter() - t0,
                                  cached=True, cache_key=key,
                                  stored_wall_s=meta.get("wall_s"))
    result = run_experiment(unit.exp_id, **unit.params)
    wall_s = time.perf_counter() - t0
    if store is not None and key is not None:
        from repro.cache import try_encode_result

        payload = try_encode_result(result)
        if payload is not None:
            store.store_result(key, payload, meta={
                "exp_id": unit.exp_id,
                "unit_key": unit.key,
                "wall_s": round(wall_s, 3),
                "fingerprint": fingerprint_result(result),
            })
    return UnitResult(unit, result, wall_s, cache_key=key)


def _usable_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_suite(
    exp_ids: list[str],
    *,
    quick: bool = False,
    workers: int = 1,
    out_dir: Path | str | None = None,
    overrides: dict[str, dict[str, Any]] | None = None,
    progress: Callable[[str], None] | None = None,
    cache: str | Path | None = None,
    refresh_cache: bool = False,
) -> SuiteResult:
    """Run a set of experiments, sharded across ``workers`` subprocesses.

    ``workers=1`` runs every unit in-process (the reference execution);
    ``workers>1`` distributes units over a spawn-based process pool.  Both
    paths run the identical unit plan and merge in planned order, so their
    results — and fingerprints — are identical.  A repeated experiment id
    runs once (first occurrence keeps its place).

    The pool never exceeds the CPUs this process may use (its affinity
    mask): more spawn workers than CPUs only oversubscribe the host
    (DESIGN §4.5), so on one CPU every request runs in-process.  The
    manifest records the requested number.

    ``overrides`` maps experiment id to parameter overrides (applied on
    top of quick params); ``out_dir`` enables manifests: one JSON per unit
    under ``units/``, a rendered ``<exp_id>.txt`` per experiment, and the
    merged ``manifest.json``.

    ``cache`` selects the artifact store: ``None`` (default) is off, so
    programmatic and test runs never cache unless asked to, and a path
    uses that store (the CLI passes :func:`repro.cache.default_root`);
    ``REPRO_NO_CACHE=1`` turns even a path off.  ``refresh_cache=True``
    re-executes every unit and overwrites its result entry.  Caching
    never changes results: a replayed unit's decoded result is the
    byte-exact result the producing run computed, so fingerprints are
    identical across cold, warm and uncached runs.
    """
    from repro.cache import code_version, resolve_root

    say = progress or (lambda _msg: None)
    exp_ids = list(dict.fromkeys(exp_ids))
    units: list[Unit] = []
    for exp_id in exp_ids:
        units.extend(plan_units(exp_id, quick=quick,
                                overrides=(overrides or {}).get(exp_id)))
    pool_size = min(workers, _usable_cpus())

    cache_root = resolve_root(cache)
    plan = (CachePlan(str(cache_root), code_version(), refresh_cache)
            if cache_root is not None else None)
    say(f"planned {len(units)} units over {len(exp_ids)} experiments "
        f"({workers} workers"
        + (f", pool clamped to {pool_size} usable CPU(s)"
           if pool_size < workers else "")
        + (f", cache {plan.root}" if plan is not None else "")
        + ")")

    done: dict[str, UnitResult] = {}
    if pool_size <= 1:
        for unit in units:
            done[unit.key] = ur = _run_unit(unit, plan)
            say(f"  {unit.key}: {ur.wall_s:.2f}s"
                + (" (cached)" if ur.cached else ""))
    else:
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=pool_size, mp_context=ctx) as pool:
            futures = {pool.submit(_run_unit, unit, plan): unit
                       for unit in units}
            for fut in concurrent.futures.as_completed(futures):
                ur = fut.result()  # re-raises worker failures verbatim
                done[ur.unit.key] = ur
                say(f"  {ur.unit.key}: {ur.wall_s:.2f}s"
                    + (" (cached)" if ur.cached else ""))

    unit_results: dict[str, list[UnitResult]] = {}
    results: dict[str, FigureResult | TableResult] = {}
    for exp_id in exp_ids:
        parts = [done[u.key] for u in units if u.exp_id == exp_id]
        unit_results[exp_id] = parts
        results[exp_id] = merge_results([p.result for p in parts])
    cache_block = None
    if plan is not None:
        hits = sum(1 for ur in done.values() if ur.cached)
        cache_block = {
            "path": plan.root,
            "refresh": plan.refresh,
            "hits": hits,
            "misses": len(done) - hits,
        }
    suite = SuiteResult(results=results, unit_results=unit_results,
                        workers=workers, quick=quick, cache=cache_block)
    if out_dir is not None:
        write_manifests(suite, Path(out_dir))
    return suite


# ---------------------------------------------------------------------------
# manifests, reports, golden fingerprints
# ---------------------------------------------------------------------------


def write_manifests(suite: SuiteResult, out_dir: Path) -> None:
    """Persist per-unit manifests, rendered results and the merged manifest."""
    units_dir = out_dir / "units"
    units_dir.mkdir(parents=True, exist_ok=True)
    for exp_id, parts in suite.unit_results.items():
        # a reused directory may hold this experiment's units from another
        # plan (a longer sweep, other series); no manifest accounts for them
        for stale in (units_dir / f"{exp_id}.json",
                      *units_dir.glob(f"{exp_id}.*.json")):
            stale.unlink(missing_ok=True)
        for ur in parts:
            path = units_dir / f"{ur.unit.key}.json"
            path.write_text(json.dumps(ur.manifest(quick=suite.quick),
                                       indent=1) + "\n")
        render = suite.results[exp_id].render()
        (out_dir / f"{exp_id}.txt").write_text(render + "\n")
    (out_dir / "manifest.json").write_text(
        json.dumps(suite.manifest(), indent=1) + "\n")


def _read_object(path: Path, what: str) -> dict[str, Any]:
    """The JSON object in ``path``; anything else is a typed error."""
    from repro.errors import ConfigurationError

    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"{what} {path} must hold a JSON object, "
            f"not a {type(doc).__name__}")
    return doc


def read_manifest(results_dir: Path) -> dict[str, Any]:
    path = Path(results_dir) / "manifest.json"
    if not path.is_file():
        raise FileNotFoundError(
            f"{path} not found — was the suite run with --out?")
    return _read_object(path, "manifest")


def read_golden(path: Path) -> dict[str, Any]:
    """Load a golden fingerprint file for :func:`check_golden`."""
    return _read_object(Path(path), "golden file")


def check_golden(manifest: dict[str, Any],
                 golden: dict[str, Any]) -> list[str]:
    """Diff a suite manifest against a golden fingerprint file.

    Returns human-readable mismatch lines (empty = clean).  Only
    experiments present in the golden file are checked, so intentionally
    unstable artifacts (e.g. the Table III LoC census) can be left out.
    """
    problems = []
    experiments = manifest.get("experiments", {})
    for exp_id, want in sorted(golden.get("fingerprints", {}).items()):
        entry = experiments.get(exp_id)
        if entry is None:
            problems.append(f"{exp_id}: missing from results manifest")
        elif entry["fingerprint"] != want:
            problems.append(f"{exp_id}: fingerprint {entry['fingerprint']} "
                            f"!= golden {want}")
    return problems
