"""CLI: ``python -m repro.obs {validate,live} <trace-file-or-dir>``.

``validate`` structurally checks traces (exit 1 on problems) and is
what the CI traced-bench step runs; ``live`` replays a traced run
tick-by-tick through the telemetry bus, printing a progress frame per
tick and the resulting alert timeline (asserting it against the
recorded ``alerts.jsonl`` when present). Reading a trace -- why was
this run slow -- is ``python -m repro.obs.analysis report``.

Artifact problems -- a missing or empty trace directory, a truncated
or partially written export -- exit 2 with a one-line reason instead
of a Python traceback (``validate`` instead folds per-file load
failures into its INVALID verdicts).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.obs.analysis.loader import (
    TraceArtifactError,
    find_trace_files,
    load_json_file,
)
from repro.obs.export import max_event_depth, validate_chrome_trace


def _trace_files(path: str) -> list:
    """The files to process, or :class:`TraceArtifactError` with an
    actionable reason when there is nothing to process."""
    if not os.path.exists(path):
        raise TraceArtifactError(f"{path}: no such file or directory")
    files = find_trace_files(path)
    if not files:
        raise TraceArtifactError(
            f"{path}: no *.trace.json files found (did the traced bench "
            f"run, and with --trace pointing here?)"
        )
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="structurally validate exported traces"
    )
    p_validate.add_argument("path", help="a *.trace.json file or a directory")
    p_validate.add_argument(
        "--min-depth",
        type=int,
        default=None,
        help="also require at least this max span nesting depth",
    )

    p_live = sub.add_parser(
        "live", help="replay a traced run tick-by-tick through the live bus"
    )
    p_live.add_argument("path", help="a *.trace.json file or a directory")
    p_live.add_argument(
        "--rules",
        default=None,
        help="SLO rule file (default: the built-in rule set)",
    )
    p_live.add_argument(
        "--ticks",
        type=int,
        default=None,
        help="progress frames to render (default 20)",
    )

    args = parser.parse_args(argv)

    if args.command == "live":
        from repro.obs.live.render import DEFAULT_TICKS, render_path
        from repro.obs.live.rules import RuleError

        try:
            lines = render_path(
                args.path,
                rules=args.rules,
                ticks=args.ticks if args.ticks is not None else DEFAULT_TICKS,
            )
        except (TraceArtifactError, RuleError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for line in lines:
            print(line)
        return 0

    # validate
    try:
        files = _trace_files(args.path)
    except TraceArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = 0
    for path in files:
        try:
            payload = load_json_file(path, "trace")
        except TraceArtifactError as exc:
            status = 1
            print(f"{path}: INVALID")
            print(f"  {exc}")
            continue
        if not isinstance(payload, dict):
            status = 1
            print(f"{path}: INVALID")
            print(f"  trace is {type(payload).__name__}, not an object")
            continue
        problems = validate_chrome_trace(payload)
        depth = max_event_depth(payload)
        if args.min_depth is not None and depth < args.min_depth:
            problems.append(
                f"max depth {depth} below required {args.min_depth}"
            )
        if problems:
            status = 1
            print(f"{path}: INVALID")
            for problem in problems:
                print(f"  {problem}")
        else:
            events = len(payload.get("traceEvents", []))
            print(f"{path}: ok ({events} events, max depth {depth})")
    return status


if __name__ == "__main__":
    sys.exit(main())
