"""Standalone experiment runner: ``python -m repro.bench [names...]``.

Runs the paper's experiments without pytest and prints the figure
tables. With no arguments, runs everything (a few minutes); pass figure
names to select, e.g.::

    python -m repro.bench fig11a fig12
    python -m repro.bench --list

``--baseline`` writes the ``BENCH_*.json`` files instead, and
``--render-experiments`` rewrites EXPERIMENTS.md's paper tables from
``BENCH_paper.json``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import figures
from repro.bench.harness import format_counter_table, format_table


def _table_fig12(rows) -> str:
    lines = [
        "Figure 12  Index lookup latency vs result size (ms per lookup)",
        "-" * 58,
        f"{'result size':>12s} | {'local':>9s} | {'remote':>9s}",
        "-" * 58,
    ]
    for size, lo, re in rows:
        label = f"{size}B" if size < 1024 else f"{size // 1024}KB"
        lines.append(f"{label:>12s} | {lo:9.3f} | {re:9.3f}")
    lines.append("-" * 58)
    return "\n".join(lines)


EXPERIMENTS = {
    "fig11a": (
        "LOG: runtime vs extra lookup delay",
        figures.run_fig11a,
        lambda rows: format_table(
            "Figure 11(a)  LOG: runtime vs extra lookup delay",
            rows,
            modes=figures.FIG11A_MODES,
            x_label="extra delay",
        ),
    ),
    "fig11a-small": (
        "LOG: single delay point (CI smoke / tracing)",
        lambda: figures.run_fig11a(delays=(1.0,)),
        lambda rows: format_table(
            "Figure 11(a) [small]  LOG: runtime at +1ms lookup delay",
            rows,
            modes=figures.FIG11A_MODES,
            x_label="extra delay",
        ),
    ),
    "fig11b": (
        "TPC-H Q3",
        figures.run_fig11b,
        lambda rows: format_table(
            "Figure 11(b)  TPC-H Q3", rows, modes=figures.SIX_MODES, x_label="query"
        ),
    ),
    "fig11b-small": (
        "TPC-H Q3 (already single-row; alias for CI smoke / baselines)",
        figures.run_fig11b,
        lambda rows: format_table(
            "Figure 11(b) [small]  TPC-H Q3",
            rows,
            modes=figures.SIX_MODES,
            x_label="query",
        ),
    ),
    "fig11c": (
        "TPC-H Q9",
        figures.run_fig11c,
        lambda rows: format_table(
            "Figure 11(c)  TPC-H Q9", rows, modes=figures.SIX_MODES, x_label="query"
        ),
    ),
    "fig11d": (
        "TPC-H DUP10 Q3",
        figures.run_fig11d,
        lambda rows: format_table(
            "Figure 11(d)  TPC-H DUP10 Q3",
            rows,
            modes=figures.SIX_MODES,
            x_label="query",
        ),
    ),
    "fig11e": (
        "TPC-H DUP10 Q9",
        figures.run_fig11e,
        lambda rows: format_table(
            "Figure 11(e)  TPC-H DUP10 Q9",
            rows,
            modes=figures.SIX_MODES,
            x_label="query",
        ),
    ),
    "fig11f": (
        "Synthetic: runtime vs lookup result size",
        figures.run_fig11f,
        lambda rows: format_table(
            "Figure 11(f)  Synthetic: runtime vs lookup result size",
            rows,
            modes=figures.SIX_MODES,
            x_label="result size",
        ),
    ),
    "fig11f-small": (
        "Synthetic: single result-size point (CI smoke / baselines)",
        lambda: figures.run_fig11f(sizes=(1024,)),
        lambda rows: format_table(
            "Figure 11(f) [small]  Synthetic: runtime at 1KB results",
            rows,
            modes=figures.SIX_MODES,
            x_label="result size",
        ),
    ),
    "fig12": ("lookup latency vs result size", figures.run_fig12, _table_fig12),
    "fig13": (
        "kNN join: EFind vs H-zkNNJ",
        figures.run_fig13,
        lambda rows: format_table(
            "Figure 13  kNN join: EFind variants vs hand-tuned H-zkNNJ",
            rows,
            modes=figures.SIX_MODES + ("H-zkNNJ",),
            x_label="workload",
        ),
    ),
    "sec53": (
        "adaptive optimization anatomy",
        figures.run_sec53,
        lambda rows: format_table(
            "Section 5.3  Adaptive optimization",
            rows,
            modes=figures.SEC53_MODES,
            x_label="workload",
        ),
    ),
    "batching": (
        "batched lookups: runtime vs multiget batch size",
        figures.run_batching,
        lambda rows: "\n\n".join(
            [
                format_table(
                    "Batching  TPC-H Q3: runtime vs multiget batch size",
                    rows,
                    modes=figures.BATCH_MODES,
                    x_label="batch size",
                ),
                format_counter_table(
                    "Batching  batch.* counter totals",
                    rows,
                    "batches",
                    modes=figures.BATCH_MODES,
                ),
            ]
        ),
    ),
    "reuse-q3": (
        "cross-job reuse: repeated Q3 against one ReuseStore",
        figures.run_reuse_q3,
        lambda rows: "\n\n".join(
            [
                format_table(
                    "Reuse  TPC-H Q3 repeated against one cross-job ReuseStore",
                    rows,
                    modes=figures.REUSE_Q3_MODES,
                    x_label="store state",
                ),
                format_counter_table(
                    "Reuse  reuse.* counter totals",
                    rows,
                    "reuse",
                    modes=figures.REUSE_Q3_MODES,
                ),
            ]
        ),
    ),
    "build-q3": (
        "in-job index construction: Q3 while the Orders index is built",
        figures.run_build_q3,
        lambda rows: "\n\n".join(
            [
                format_table(
                    "Build  TPC-H Q3 while the Orders index is built in-job",
                    rows,
                    modes=figures.BUILD_Q3_MODES,
                    x_label="build state",
                ),
                format_counter_table(
                    "Build  build.* counter totals",
                    rows,
                    "build",
                    modes=figures.BUILD_Q3_MODES,
                ),
            ]
        ),
    ),
    "spec-q3": (
        "speculative execution: Q3 with an injected slow host",
        figures.run_spec_q3,
        lambda rows: "\n\n".join(
            [
                format_table(
                    "Speculation  TPC-H Q3 with one x4-slow host",
                    rows,
                    modes=figures.SPEC_Q3_MODES,
                    x_label="config",
                ),
                format_counter_table(
                    "Speculation  spec.* counter totals",
                    rows,
                    "spec",
                    modes=figures.SPEC_Q3_MODES,
                ),
                format_counter_table(
                    "Speculation  route.* counter totals",
                    rows,
                    "route",
                    modes=figures.SPEC_Q3_MODES,
                ),
            ]
        ),
    ),
    "faults": (
        "fault recovery: runtime vs lookup failure rate",
        figures.run_fault_recovery,
        lambda rows: "\n\n".join(
            [
                format_table(
                    "Fault recovery  TPC-H Q3: runtime vs lookup failure rate",
                    rows,
                    modes=figures.FAULT_MODES,
                    x_label="failure rate",
                ),
                format_counter_table(
                    "Fault recovery  fault.* counter totals",
                    rows,
                    "faults",
                    modes=figures.FAULT_MODES,
                ),
            ]
        ),
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the EFind paper's evaluation figures.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        help="experiments to run (default: all); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help=(
            "re-run every variant with observability attached and write "
            "Chrome trace / audit / metrics artifacts under DIR (the "
            "reported times stay those of the untraced runs)"
        ),
    )
    parser.add_argument(
        "--live",
        metavar="RULES",
        nargs="?",
        const="",
        default=None,
        help=(
            "attach the live telemetry bus + SLO rule engine to the "
            "traced re-runs (requires --trace) and export each run's "
            "alert timeline as <base>.alerts.jsonl; optional RULES is "
            "an SLO rule file (default: benchmarks/slo_rules.json when "
            "present, else the built-in rule set)"
        ),
    )
    parser.add_argument(
        "--baseline",
        action="store_true",
        help=(
            "run the perf-baseline suites and write BENCH_<suite>.json "
            "files (deterministic simulated times; compare two with "
            "'python -m repro.obs.analysis regress OLD NEW')"
        ),
    )
    parser.add_argument(
        "--baseline-dir",
        metavar="DIR",
        default=".",
        help="directory to write BENCH_*.json into (default: .)",
    )
    parser.add_argument(
        "--render-experiments",
        metavar="MD",
        nargs="?",
        const="EXPERIMENTS.md",
        default=None,
        help=(
            "rewrite the paper tables of MD (default: EXPERIMENTS.md) "
            "from BENCH_paper.json in --baseline-dir; runs nothing"
        ),
    )
    args = parser.parse_args(argv)

    if args.render_experiments is not None:
        import json
        import os

        from repro.bench import baseline

        paper = os.path.join(args.baseline_dir, baseline.baseline_filename("paper"))
        with open(paper, encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(args.render_experiments, encoding="utf-8") as fh:
            try:
                text = baseline.render_experiments(fh.read(), doc)
            except (KeyError, ValueError) as error:
                print(f"cannot render: {error}", file=sys.stderr)
                return 2
        with open(args.render_experiments, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"rendered {args.render_experiments} from {paper}")
        return 0

    if args.trace is not None:
        from repro.obs.config import set_trace_dir

        set_trace_dir(args.trace)

    if args.live is not None:
        import os

        from repro.obs.config import set_live_rules

        if args.trace is None:
            print("--live requires --trace (live telemetry rides on the "
                  "traced re-run)", file=sys.stderr)
            return 2
        rules = args.live
        if rules == "" and os.path.exists(
            os.path.join("benchmarks", "slo_rules.json")
        ):
            rules = os.path.join("benchmarks", "slo_rules.json")
        set_live_rules(rules)

    if args.list:
        for name, (title, _run, _fmt) in EXPERIMENTS.items():
            print(f"  {name:12s} {title}")
        return 0

    if args.baseline:
        from repro.bench import baseline

        suites = args.names or sorted(baseline.SUITES)
        unknown = [n for n in suites if n not in baseline.SUITES]
        if unknown:
            print(f"unknown baseline suite(s): {', '.join(unknown)}", file=sys.stderr)
            print(
                f"available: {', '.join(sorted(baseline.SUITES))}", file=sys.stderr
            )
            return 2
        started = time.time()
        for path in baseline.write_baselines(args.baseline_dir, suites):
            print(f"wrote {path}")
        print(f"({time.time() - started:.1f}s wall)")
        return 0

    # The small smoke variants exist for CI/tracing; a bare
    # ``python -m repro.bench`` still runs each figure exactly once.
    default_names = [n for n in EXPERIMENTS if not n.endswith("-small")]
    names = args.names or default_names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use --list to see the available names", file=sys.stderr)
        return 2

    for name in names:
        title, run, fmt = EXPERIMENTS[name]
        print(f"\n=== {name}: {title} ===")
        started = time.time()
        rows = run()
        print(fmt(rows))
        if args.trace is not None:
            for row in rows:
                for mode, wall in getattr(row, "trace_wall", {}).items():
                    print(
                        f"  traced {row.label}/{mode}: "
                        f"off {wall['off']:.2f}s wall, on {wall['on']:.2f}s "
                        f"({wall['overhead']:+.2f}s)"
                    )
        if args.live is not None:
            from repro.obs.live.engine import summary_lines

            for row in rows:
                for mode, alert_rows in getattr(row, "alerts", {}).items():
                    print(f"  live {row.label}/{mode}:")
                    for line in summary_lines(alert_rows):
                        print(f"    {line}")
        print(f"({time.time() - started:.1f}s wall)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
