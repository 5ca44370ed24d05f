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

from repro.bench.figures import EXPERIMENTS


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
        for name, experiment in EXPERIMENTS.items():
            print(f"  {name:12s} {experiment.title}")
        return 0

    if args.baseline:
        from repro.bench import baseline

        known, what = baseline.SUITES, "baseline suite"
        names = args.names or sorted(known)
    else:
        # The small smoke variants exist for CI/tracing; a bare
        # ``python -m repro.bench`` still runs each figure exactly once.
        known, what = EXPERIMENTS, "experiment"
        names = args.names or [n for n in known if not n.endswith("-small")]
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown {what}(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(known)}", file=sys.stderr)
        return 2

    if args.baseline:
        started = time.time()
        for path in baseline.write_baselines(args.baseline_dir, names):
            print(f"wrote {path}")
        print(f"({time.time() - started:.1f}s wall)")
        return 0

    for name in names:
        experiment = EXPERIMENTS[name]
        print(f"\n=== {name}: {experiment.title} ===")
        started = time.time()
        rows = experiment.run()
        print(experiment.render(rows))
        if args.trace is not None:
            for row in rows:
                for mode, wall in row.trace_wall.items():
                    print(
                        f"  traced {row.label}/{mode}: "
                        f"off {wall['off']:.2f}s wall, on {wall['on']:.2f}s "
                        f"({wall['overhead']:+.2f}s)"
                    )
        if args.live is not None:
            from repro.obs.live.engine import summary_lines

            for row in rows:
                for mode, alert_rows in row.alerts.items():
                    print(f"  live {row.label}/{mode}:")
                    for line in summary_lines(alert_rows):
                        print(f"    {line}")
        print(f"({time.time() - started:.1f}s wall)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
