"""A/A check: the untraced benchmark twice on one tree.

    python3 hostbench/aa_check.py [--seed S] [--seconds N]

Exits non-zero unless, on every workload, every end-to-end metric of
the second run agrees with the first within its BENCHMARK.json bound,
every deterministic metric (counts, simulated seconds) repeats exactly,
and no job run failed. Prints the observed relative difference per
metric, so the bounds can be re-derived from the noise they rest on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

if __package__ in (None, ""):
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from hostbench import ROOT  # noqa: E402
from hostbench.spec import EXACT_UNITS, load_spec, units  # noqa: E402

#: Set-up takes tens of milliseconds; below this absolute difference a
#: relative bound only measures the clock.
SETUP_FLOOR_S = 0.05


def run_once(out: str, passthrough: list) -> dict:
    """One full untraced benchmark; returns workload -> results record."""
    shutil.rmtree(out, ignore_errors=True)  # never compare a stale record
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "hostbench", "run.py"), "--out", out]
        + passthrough,
        stdout=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        print(f"run into {out} exited {done.returncode}")
    reports = {}
    for workload in load_spec()["workloads"]:
        path = os.path.join(out, f"{workload['name']}.json")
        if not os.path.exists(path):
            sys.exit(f"{workload['name']} left no results record in {out}")
        with open(path) as fh:
            reports[workload["name"]] = json.load(fh)
    return reports


def compare(first: dict, second: dict, spec: dict) -> int:
    unit = units(spec)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    violations = 0
    for workload in first:
        a, b = first[workload], second[workload]
        print(f"== {workload} ==")
        for run, report in (("first", a), ("second", b)):
            if report["failed"] or not report["correct"]:
                violations += 1
                print(f"  VIOLATION {run} run: {report['failed']} failed job runs")
        for name, bound in bounds.items():
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            rel = (y - x) / x
            allowed = bound * abs(x)
            if name == "setup_s":
                allowed = max(allowed, SETUP_FLOOR_S)
            ok = abs(y - x) <= allowed and (unit[name] not in EXACT_UNITS or x == y)
            violations += not ok
            print(
                f"  {'ok       ' if ok else 'VIOLATION'} {name:<16s} {x:>12.6g} "
                f"{y:>12.6g} {unit[name]:<6s} diff {rel:+.2%} (bound {bound:.0%})"
            )
        for name in sorted(set(a["per_layer"]) | set(b["per_layer"])):
            x, y = a["per_layer"].get(name), b["per_layer"].get(name)
            if unit[name] in EXACT_UNITS:
                if x != y:
                    violations += 1
                    print(f"  VIOLATION {name}: {x!r} != {y!r} (must repeat exactly)")
            elif x and y:
                print(f"  info      {name:<36s} diff {(y - x) / x:+.2%}")
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", default=os.path.join(ROOT, "hostbench", "out"))
    args = parser.parse_args(argv)
    passthrough = []
    if args.seed is not None:
        passthrough += ["--seed", str(args.seed)]
    if args.seconds is not None:
        passthrough += ["--seconds", str(args.seconds)]

    first = run_once(os.path.join(args.out, "aa-1"), passthrough)
    second = run_once(os.path.join(args.out, "aa-2"), passthrough)
    violations = compare(first, second, load_spec())
    print(f"{violations} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
