"""``python -m repro`` — the experiment suite CLI.

Subcommands::

    python -m repro run fig3 --quick --workers 4 --out results/
    python -m repro run --all --quick --workers 2 --out results/
    python -m repro run fig3 --quick --machine commodity-eth
    python -m repro list --json
    python -m repro report results/ [--golden benchmarks/golden_fingerprints.json]
    python -m repro analyze lint src/ [--format=json]
    python -m repro analyze check fig3 --quick

``run`` executes experiments through the platform driver
(:mod:`repro.platform.driver`): every (sweep point × framework series)
cell is an independent unit, the units shard across ``--workers``
subprocesses and the merged figures/tables are bit-identical to a serial
run.  ``report`` summarises a results directory's manifests
and, with ``--golden``, diffs its fingerprints against a checked-in golden
file (exit code 1 on mismatch — the CI quick-suite gate).

Exit codes: 0 success, 1 experiment failure or fingerprint mismatch,
2 usage error (unknown subcommand or experiment id / malformed arguments).

``python -m repro run <id>...`` is the one command that runs an experiment;
a bare ``python -m repro`` lists the registry.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run experiments (sharded)")
    p_run.add_argument("experiments", nargs="*", metavar="ID",
                       help="experiment ids (see `list`)")
    p_run.add_argument("--all", action="store_true",
                       help="run every registered experiment")
    p_run.add_argument("--quick", action="store_true",
                       help="use reduced, CI-sized parameters")
    p_run.add_argument("--machine", default=None, metavar="NAME",
                       help="run on a named machine model instead of the "
                            "default Comet (see `list --json` or "
                            "docs/hardware.md)")
    p_run.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker subprocesses (default: 1 = in-process)")
    p_run.add_argument("--out", type=Path, default=None, metavar="DIR",
                       help="write manifests + rendered results here")
    p_run.add_argument("--json", action="store_true",
                       help="print a JSON summary instead of rendered results")
    p_run.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                       help="artifact cache location (default: .repro-cache, "
                            "or $REPRO_CACHE_DIR; see docs/caching.md)")
    p_run.add_argument("--no-cache", action="store_true",
                       help="disable the artifact cache for this run "
                            "(bit-identical results, nothing read or written)")
    p_run.add_argument("--refresh", action="store_true",
                       help="re-execute every unit, overwriting cached "
                            "results")

    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable output")

    p_report = sub.add_parser("report", help="summarise a results directory")
    p_report.add_argument("results_dir", type=Path, metavar="DIR")
    p_report.add_argument("--json", action="store_true",
                          help="print the merged manifest as JSON")
    p_report.add_argument("--golden", type=Path, default=None, metavar="FILE",
                          help="diff fingerprints against a golden file; "
                               "exit 1 on mismatch")
    p_report.add_argument("--update-golden", action="store_true",
                          help="rewrite the --golden file from this run's "
                               "fingerprints instead of diffing")

    sub.add_parser("analyze", add_help=False,
                   help="determinism linter + race checker + comm sanitizer "
                        "(see `python -m repro analyze --help`)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.cache import default_root
    from repro.core.experiment import _ensure_registry
    from repro.platform import run_suite

    registry = _ensure_registry()
    if args.all:
        ids = list(registry)
    elif args.experiments:
        ids = args.experiments
    else:
        print("nothing to run: give experiment ids or --all", file=sys.stderr)
        return 2
    unknown = [i for i in ids if i not in registry]
    if unknown:
        print(f"unknown experiment(s) {unknown}; have {sorted(registry)}",
              file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2

    overrides: dict[str, dict] = {}
    if args.machine is not None:
        from repro.cluster import get_machine
        from repro.core.experiment import supports_machine
        from repro.errors import ConfigurationError

        try:
            get_machine(args.machine)
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        for exp_id in ids:
            if supports_machine(registry[exp_id]):
                overrides[exp_id] = {"machine": args.machine}
            else:
                print(f"note: {exp_id} is machine-independent; "
                      "--machine ignored for it", file=sys.stderr)

    if args.no_cache and (args.cache_dir is not None or args.refresh):
        print("--no-cache conflicts with --cache-dir/--refresh",
              file=sys.stderr)
        return 2
    # the CLI caches by default (unlike programmatic run_suite)
    cache = None if args.no_cache else args.cache_dir or default_root()

    progress = None if args.json else lambda msg: print(msg, file=sys.stderr)
    suite = run_suite(ids, quick=args.quick, workers=args.workers,
                      out_dir=args.out, overrides=overrides or None,
                      progress=progress, cache=cache,
                      refresh_cache=args.refresh)
    if args.json:
        print(json.dumps(suite.manifest(), indent=1))
    else:
        for result in suite.results.values():
            print(result.render())
            print()
        if suite.cache is not None:
            print(f"cache: {suite.cache['hits']} hit(s), "
                  f"{suite.cache['misses']} miss(es) "
                  f"({suite.cache['path']})", file=sys.stderr)
        if args.out is not None:
            print(f"wrote manifests to {args.out}", file=sys.stderr)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.core.experiment import _ensure_registry

    registry = _ensure_registry()
    if args.json:
        from repro.analysis.scenarios import checkable
        from repro.core.experiment import supports_machine, supports_sched

        def cache_block() -> dict:
            # the cache is optional capability metadata, and a missing or
            # empty store must report zero entries, never crash the listing
            try:
                from repro.cache import store_info

                return store_info()
            except Exception:
                return {}

        def machines_block() -> list[dict]:
            from repro.cluster import MACHINES

            return [
                {
                    "name": m.name,
                    "description": m.description,
                    "nodes": m.cluster.num_nodes,
                    "cores_per_node": m.cluster.node.cores,
                    "hpc_fabric": m.hpc_fabric,
                    "bigdata_fabric": m.bigdata_fabric,
                    "shuffle_transports": list(m.shuffle_transports()),
                }
                for m in MACHINES.values()
            ]

        def sched_block() -> dict:
            from repro.sched import DEFAULT_TENANTS, JOB_KINDS, POLICIES

            return {
                "policies": list(POLICIES),
                "job_kinds": [
                    {"name": k.name, "framework": k.framework,
                     "description": k.description}
                    for k in JOB_KINDS.values()
                ],
                "tenants": [
                    {"name": t.name, "weight": t.weight,
                     "priority": t.priority}
                    for t in DEFAULT_TENANTS
                ],
            }

        print(json.dumps({
            "cache": cache_block(),
            "machines": machines_block(),
            "sched": sched_block(),
            "experiments": [
                {
                    "id": exp.exp_id,
                    "description": exp.description,
                    "shard_param": exp.shard_param,
                    "series": list(exp.series),
                    "quick_params": sorted(exp.quick_params),
                    "machine": supports_machine(exp),
                    "sched": supports_sched(exp),
                    "checkable": checkable(exp.exp_id),
                }
                for exp in registry.values()
            ],
        }, indent=1))
    else:
        for exp in registry.values():
            sharded = f"  [shards on {exp.shard_param}]" if exp.shard_param \
                else ""
            if exp.series:
                sharded += f"  [{len(exp.series)} series]"
            print(f"{exp.exp_id:22s} {exp.description}{sharded}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.platform import check_golden, read_golden, read_manifest

    try:
        manifest = read_manifest(args.results_dir)
    except (FileNotFoundError, ConfigurationError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(manifest, indent=1))
    else:
        experiments = manifest.get("experiments", {})
        print(f"suite of {len(experiments)} experiments "
              f"(workers={manifest.get('workers')}, "
              f"quick={manifest.get('quick')}, "
              f"python={manifest.get('python')})")
        for exp_id, entry in experiments.items():
            print(f"  {exp_id:22s} fp {entry['fingerprint']}  "
                  f"{entry['wall_s']:8.2f}s  {entry['units']} unit(s)")
        cache = manifest.get("cache")
        if cache:
            print(f"cache: {cache.get('hits')} hit(s), "
                  f"{cache.get('misses')} miss(es)"
                  + (" [refresh]" if cache.get("refresh") else "")
                  + f"  ({cache.get('path')})")

    if args.golden is None:
        return 0
    if args.update_golden:
        golden = {
            "_comment": "Golden result fingerprints for the --quick suite "
                        "(see EXPERIMENTS.md). Regenerate with: python -m "
                        "repro run --all --quick --out results/ && python -m "
                        "repro report results/ --golden <this file> "
                        "--update-golden. table3 is excluded: its LoC census "
                        "changes whenever the apps corpus is edited.",
            "fingerprints": {
                exp_id: entry["fingerprint"]
                for exp_id, entry in manifest.get("experiments", {}).items()
                if exp_id != "table3"
            },
        }
        args.golden.write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote {args.golden}", file=sys.stderr)
        return 0
    try:
        golden = read_golden(args.golden)
    except FileNotFoundError:
        print(f"golden file {args.golden} not found", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    problems = check_golden(manifest, golden)
    if problems:
        for line in problems:
            print(f"FINGERPRINT MISMATCH  {line}", file=sys.stderr)
        return 1
    checked = len(golden.get("fingerprints", {}))
    print(f"golden check ok ({checked} experiments match)", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        argv = ["list"]
    if argv[0] == "analyze":
        # forward everything after `analyze` to the analysis CLI so its
        # options don't have to be mirrored here
        from repro.analysis.cli import main as analysis_main

        return analysis_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list(args)
    return _cmd_report(args)


if __name__ == "__main__":
    raise SystemExit(main())
