"""Command-line front end for the analysis layer.

::

    python -m repro analyze lint src/ [--format=text|json]
    python -m repro analyze check fig3 [--quick] [--format=text|json]

``check`` runs the registered experiment itself once (``--quick`` = its
``quick_params``, as for ``python -m repro run``) and puts the traces of
the sessions it provisions through the race checker and the communication
sanitizer.  Exit codes: 0 — clean; 1 — findings/races/violations
reported; 2 — usage or analysis error.
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


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.scenarios import check_experiment

    report = check_experiment(args.experiment, quick=args.quick)
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

    check = sub.add_parser(
        "check",
        help="run an experiment once, traced, and check it for data races "
             "and communication violations")
    check.add_argument(
        "experiment",
        help="id of an experiment that provisions a session (see `python "
             "-m repro list --json`), or a planted-bug fixture "
             "(planted-root, planted-barrier, planted-sendsend, "
             "planted-abba)")
    check.add_argument("--quick", action="store_true",
                       help="the experiment's CI-sized quick_params")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.set_defaults(fn=_cmd_check)
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
