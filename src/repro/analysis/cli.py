"""Command-line front end for the analysis layer.

::

    python -m repro analyze lint src/ [--format=text|json]
    python -m repro analyze race fig3 [--quick] [--format=text|json]
    python -m repro analyze sanitize fig3 [--quick] [--format=text|json]

``race`` and ``sanitize`` run the registered experiment itself (``--quick``
= its ``quick_params``, as for ``python -m repro run``) and check the
traces of the sessions it provisions.  Exit codes: 0 — clean; 1 —
findings/races/violations reported; 2 — usage or analysis error.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import AnalysisError, ReproError


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import lint_paths, render_json, render_text

    findings = lint_paths(args.paths)
    print(render_json(findings) if args.format == "json"
          else render_text(findings))
    return 1 if findings else 0


def _cmd_race(args: argparse.Namespace) -> int:
    from repro.analysis.scenarios import run_race_scenario

    report = run_race_scenario(args.experiment, quick=args.quick)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 0 if report.clean else 1


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.analysis.scenarios import run_sanitize_scenario

    report = run_sanitize_scenario(args.experiment, quick=args.quick)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="determinism linter + race checker + comm sanitizer")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser(
        "lint", help="run reprolint over files/directories")
    lint.add_argument("paths", nargs="+",
                      help="python files or directories to lint")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.set_defaults(fn=_cmd_lint)

    race = sub.add_parser(
        "race", help="run an experiment traced and check it for data races")
    race.add_argument("experiment",
                      help="id of an experiment that provisions a session "
                           "(see `python -m repro list --json`)")
    race.add_argument("--quick", action="store_true",
                      help="the experiment's CI-sized quick_params")
    race.add_argument("--format", choices=("text", "json"), default="text")
    race.set_defaults(fn=_cmd_race)

    sanitize = sub.add_parser(
        "sanitize",
        help="run an experiment traced through the communication sanitizer")
    sanitize.add_argument(
        "experiment",
        help="id of an experiment that provisions a session, or a "
             "planted-bug fixture (planted-root, planted-barrier, "
             "planted-sendsend, planted-abba)")
    sanitize.add_argument("--quick", action="store_true",
                          help="the experiment's CI-sized quick_params")
    sanitize.add_argument("--format", choices=("text", "json"),
                          default="text")
    sanitize.set_defaults(fn=_cmd_sanitize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (AnalysisError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
