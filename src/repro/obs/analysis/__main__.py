"""Trace analytics CLI: ``python -m repro.obs.analysis <cmd>``.

Subcommands::

    report        TRACE [--json]   critical path + stragglers + drift, then
                                   slowest lookups, re-plan timeline and
                                   (live runs) the SLO alert summary
    critical-path TRACE [--json]   per-job critical path only
    stragglers    TRACE [--json]   per-phase straggler/skew profile only
    drift         TRACE [--json]   cost-model drift only
    diff OLD NEW [--json] [--top K]   two-run hierarchical diff
    regress OLD NEW [--tolerance-config FILE | --rel-tol X --abs-tol Y]
                 [--trace-old DIR --trace-new DIR]

``TRACE`` is one ``*.trace.json`` export or a directory of them (as
written by ``python -m repro.bench --trace DIR``). Artifact problems --
missing directory, truncated export, wrong format -- exit 2 with a
one-line reason instead of a traceback. ``regress`` exits 1 when the
new baseline regresses past tolerance; ``diff`` exits 1 when the two
runs differ at all (0 only on an identical pair), so it doubles as a
byte-semantics equality check in CI; ``drift`` exits 1 when a recorded
cost does not re-price from its record's own inputs (within 1e-9 s).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, NamedTuple, Optional

from repro.obs.analysis import critical_path as cp
from repro.obs.analysis import diff as df
from repro.obs.analysis import drift as dr
from repro.obs.analysis import regress as rg
from repro.obs.analysis import stragglers as st
from repro.obs.analysis.loader import (
    TraceArtifactError,
    TraceArtifacts,
    load_artifacts,
)
from repro.obs.live.engine import summary_lines


class Section(NamedTuple):
    """One per-artifact analysis, declared once for both the full
    report and its own subcommand."""

    command: str  # subcommand name
    key: str  # key in the full report's JSON
    title: Optional[str]  # heading in the full text report (None: flush)
    compute: Callable[[TraceArtifacts], list]  # -> rows with to_dict()
    render: Callable[[list], List[str]]


SECTIONS = (
    Section(
        "critical-path", "critical_paths", None,
        lambda a: cp.critical_paths(a.spans, alerts=a.alert_rows),
        lambda paths: [line for path in paths for line in cp.render(path)],
    ),
    Section(
        "stragglers", "stragglers", None,
        lambda a: st.phase_profiles(a.spans, alerts=a.alert_rows),
        st.render,
    ),
    Section("drift", "drift", "cost-model drift", dr.job_drift, dr.render),
)


def _dicts(rows: list) -> List[dict]:
    return [row.to_dict() for row in rows]


def _dump(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _print(lines: List[str], title: Optional[str] = None) -> None:
    if title is not None:
        print(f"{title}:")
    for line in lines:
        print(f"  {line}" if title is not None else line)


def _equivalence_lines(artifacts: List[TraceArtifacts]) -> List[str]:
    equivalence = dr.executed_equivalence(artifacts)
    return dr.render([], equivalence) if equivalence else []


def cmd_report(args) -> int:
    artifacts = load_artifacts(args.trace)
    if args.json:
        _dump(
            {
                "artifacts": [
                    {
                        "base": a.base,
                        "trace": a.trace_path,
                        "dropped_detail": a.dropped_detail,
                        "alerts": list(a.alert_rows),
                        **{s.key: _dicts(s.compute(a)) for s in SECTIONS},
                    }
                    for a in artifacts
                ],
                "executed_equivalence": _dicts(
                    dr.executed_equivalence(artifacts)
                ),
            }
        )
        return 0
    for artifact in artifacts:
        print(f"=== {artifact.base} ===")
        for section in SECTIONS:
            _print(section.render(section.compute(artifact)), section.title)
        _print(st.slowest_lookups(artifact.spans), "slowest lookups")
        _print(dr.replan_timeline(artifact.audit_rows), "re-plan timeline")
        if artifact.alert_rows:
            _print(summary_lines(artifact.alert_rows), "SLO alerts")
    _print(_equivalence_lines(artifacts))
    return 0


def cmd_section(args) -> int:
    """One section on its own. ``drift`` is the cross-artifact one: it
    also reports executed-equivalence over the whole directory, and
    exits 1 when a recorded cost does not re-price."""
    (section,) = [s for s in SECTIONS if s.command == args.cmd]
    across = section.command == "drift"
    artifacts = load_artifacts(args.trace)
    computed = [(a, section.compute(a)) for a in artifacts]
    if args.json:
        doc = {a.base: _dicts(rows) for a, rows in computed}
        if across:
            doc = {
                "jobs": doc,
                "executed_equivalence": _dicts(
                    dr.executed_equivalence(artifacts)
                ),
            }
        _dump(doc)
    else:
        for artifact, rows in computed:
            print(f"--- {artifact.base} ---" if across else f"=== {artifact.base} ===")
            _print(section.render(rows))
        if across:
            _print(_equivalence_lines(artifacts))
    if across and any(dr.mispriced(rows) for _, rows in computed):
        return 1
    return 0


def cmd_diff(args) -> int:
    result = df.diff_paths(args.old, args.new)
    if args.json:
        _dump(result.to_dict())
    else:
        _print(df.render(result, top=args.top))
    return 0 if result.identical else 1


def cmd_regress(args) -> int:
    if args.tolerance_config:
        tolerances = rg.Tolerances.load(args.tolerance_config)
        if args.rel_tol is not None or args.abs_tol is not None:
            print(
                "--tolerance-config and --rel-tol/--abs-tol are exclusive",
                file=sys.stderr,
            )
            return 2
    else:
        tolerances = rg.Tolerances(
            rel_tol=args.rel_tol if args.rel_tol is not None else rg.DEFAULT_REL_TOL,
            abs_tol=args.abs_tol if args.abs_tol is not None else rg.DEFAULT_ABS_TOL,
        )
    if bool(args.trace_old) != bool(args.trace_new):
        print(
            "--trace-old and --trace-new must be given together",
            file=sys.stderr,
        )
        return 2
    report = rg.compare_files(args.old, args.new, tolerances)
    trace_diff = None
    if args.trace_old and (args.json or not report.ok):
        # A failing gate gets a root-cause section: the hierarchical
        # trace diff of the two baseline runs' artifacts.
        trace_diff = df.diff_paths(args.trace_old, args.trace_new)
    if args.json:
        doc = report.to_dict()
        if trace_diff is not None:
            doc["trace_diff"] = trace_diff.to_dict()
        _dump(doc)
    else:
        _print(rg.render(report, verbose=args.verbose))
        if trace_diff is not None:
            print()
            _print(
                df.render(trace_diff, top=args.top),
                "root cause (trace diff old -> new)",
            )
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.analysis",
        description="Offline analytics over exported observability artifacts.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def trace_cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("trace", help="a *.trace.json file or a directory of them")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)

    trace_cmd(
        "report", cmd_report,
        "every section below + slowest lookups, re-plan timeline, SLO alerts",
    )
    trace_cmd("critical-path", cmd_section, "per-job critical path")
    trace_cmd("stragglers", cmd_section, "per-phase straggler/skew profile")
    trace_cmd("drift", cmd_section, "cost-model drift detection")

    p = sub.add_parser(
        "diff",
        help="hierarchical two-run trace diff (exit 1 when runs differ)",
    )
    p.add_argument("old", help="old *.trace.json export or directory")
    p.add_argument("new", help="new *.trace.json export or directory")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="K",
        help="show the top K contributors (default: enough to cover "
        ">=90%% of the attributed delta)",
    )
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "regress", help="compare two BENCH baseline files (exit 1 on regression)"
    )
    p.add_argument("old", help="committed baseline BENCH_*.json")
    p.add_argument("new", help="freshly generated BENCH_*.json")
    p.add_argument(
        "--tolerance-config",
        metavar="FILE",
        default=None,
        help="JSON file with rel_tol/abs_tol and per_experiment overrides",
    )
    p.add_argument("--rel-tol", type=float, default=None)
    p.add_argument("--abs-tol", type=float, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--verbose", action="store_true", help="also list every in-tolerance delta"
    )
    p.add_argument(
        "--trace-old",
        metavar="DIR",
        default=None,
        help="trace artifacts of the OLD baseline run; with --trace-new, "
        "a failing gate appends a root-cause trace-diff section",
    )
    p.add_argument(
        "--trace-new",
        metavar="DIR",
        default=None,
        help="trace artifacts of the NEW baseline run (see --trace-old)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="K",
        help="contributor cap for the root-cause section",
    )
    p.set_defaults(func=cmd_regress)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TraceArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
