"""CLI: ``python -m repro.obs {validate,live} <trace-file-or-dir>``.

``validate`` structurally checks traces (exit 1 on problems) and is
what the CI traced-bench step runs; ``live`` recomputes each traced
run's SLO alerts from its exported spans, prints them, and checks them
against the recorded ``alerts.jsonl`` when there is one (exit 1 on a
mismatch). Reading a trace -- why was this run slow -- is ``python -m
repro.obs.analysis report``.

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
    load_artifacts,
    load_json_file,
)
from repro.obs.export import max_event_depth, validate_chrome_trace
from repro.obs.live.rules import RuleError


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


def _live(path: str, rules) -> int:
    """Print each traced run's recomputed alerts; 1 when one differs
    from its recorded ``alerts.jsonl``."""
    from repro.obs.live import SLOEngine, artifact_rows, coerce_rules, samples
    from repro.obs.live.engine import summary_lines

    rules = coerce_rules(rules)
    status = 0
    for artifact in load_artifacts(path):
        engine = SLOEngine(rules)
        engine.feed(samples(artifact_rows(artifact)))
        rows = engine.alert_rows()
        print(f"=== {artifact.base} ===")
        for line in summary_lines(rows):
            print(line)
        if not os.path.exists(
            artifact.trace_path[: -len(".trace.json")] + ".alerts.jsonl"
        ):
            print("no alerts.jsonl recorded: nothing to check")
        elif rows == artifact.alert_rows:
            print(f"recomputed alerts match alerts.jsonl ({len(rows)} row(s))")
        else:
            status = 1
            print(
                f"MISMATCH: recomputed alerts differ from alerts.jsonl "
                f"({len(rows)} recomputed, {len(artifact.alert_rows)} recorded)"
            )
        print()
    return status


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
        "live", help="recompute SLO alerts and check the recorded ones"
    )
    p_live.add_argument("path", help="a *.trace.json file or a directory")
    p_live.add_argument(
        "--rules",
        default=None,
        help="SLO rule file (default: the built-in rule set)",
    )

    args = parser.parse_args(argv)

    if args.command == "live":
        try:
            return _live(args.path, args.rules)
        except (TraceArtifactError, RuleError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

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
