"""hostbench command line.

    python3 hostbench/run.py [--workload W] [--seed S] [--seconds N]
                             [--trace [0|1]] [--out DIR]

With ``--workload`` it measures that workload in this process and ends
its standard output with one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``,
every per-layer metric with ``--trace 1``. Without ``--workload`` it is
a closed loop with one client: the four workloads run one after the
other, each in a fresh subprocess of this same command. Exit status is
non-zero when any job run failed. See hostbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

if __package__ in (None, ""):
    # Run as a script: sys.path[0] is this directory; make it the repo
    # root so ``hostbench`` (and through it ``src``) is importable.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from hostbench import ROOT  # noqa: E402
from hostbench.spec import load_spec, units  # noqa: E402

EXPECTED_DIR = os.path.join(ROOT, "hostbench", "expected")
DEFAULT_OUT = os.path.join(ROOT, "hostbench", "out")

MIN_PASSES = 3
SETUP_REPEATS = 9
PROBE_SECONDS = 1.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument(
        "--seed",
        type=int,
        help="input seed (default: the committed figure configurations)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        help="measured seconds per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="add the layer probes, a cProfile pass and spans.jsonl",
    )
    parser.add_argument("--out", default=DEFAULT_OUT, help="results directory")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs, one pass: exercises the harness, measures nothing",
    )
    parser.add_argument(
        "--pin",
        action="store_true",
        help="record this seed's output digests under hostbench/expected/",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gc_enabled": gc.isenabled(),
        "gc_threshold": gc.get_threshold(),
    }


def load_average() -> float:
    return os.getloadavg()[0]


def warn_if_loaded(load: float, when: str) -> None:
    if load > (os.cpu_count() or 1):
        print(
            f"warning: 1-min load average {load:.2f} at {when} exceeds "
            f"nproc={os.cpu_count()}; timings are not trustworthy",
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# Pinned outputs
# ----------------------------------------------------------------------
def check_digests(args, workload: str, digests: dict) -> str:
    """Compare against hostbench/expected/<workload>.json; returns
    ``ok``, ``unpinned`` or ``mismatch``."""
    path = os.path.join(EXPECTED_DIR, f"{workload}.json")
    pinned = {}
    if os.path.exists(path):
        with open(path) as fh:
            pinned = json.load(fh)
    key = "default" if args.seed is None else str(args.seed)
    if args.smoke:
        return "unpinned"
    if args.pin:
        pinned[key] = digests
        os.makedirs(EXPECTED_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(pinned, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if key not in pinned:
        return "unpinned"
    return "ok" if pinned[key] == digests else "mismatch"


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload(args, spec: dict) -> dict:
    # The engine is imported here, not at module level, so that the
    # import is timed and an all-workloads parent never pays for it.
    started = time.perf_counter()
    from hostbench import layers, measure, metrics, probes, workloads

    import_s = time.perf_counter() - started

    name = args.workload
    wl = workloads.WORKLOADS[name](seed=args.seed, smoke=args.smoke)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    load_start = load_average()
    warn_if_loaded(load_start, "start")

    os.makedirs(args.out, exist_ok=True)
    scratch = os.path.join(args.out, f"scratch-{name}-{os.getpid()}")
    os.makedirs(scratch)
    spans = measure.Spans(name, enabled=bool(args.trace))
    try:
        m, st, verifier = measure.measure(
            wl,
            spans,
            scratch,
            seconds=0.0 if args.smoke else seconds,
            min_passes=1 if args.smoke else MIN_PASSES,
            setup_repeats=1 if args.smoke else SETUP_REPEATS,
        )
        # Before the probes and the profiled pass grow the heap.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        report = {
            "workload": name,
            "seed": args.seed,
            "smoke": args.smoke,
            "seconds": seconds,
            "records": len(st.records),
            "job_runs_per_pass": len(wl.variants),
            "import_s": import_s,
            "setups": m.setups,
            "passes": m.passes,
            "raw_passes": m.raw_passes,
            "nominal_calibration_s": measure.NOMINAL_CALIBRATION_S,
            "calibrations": m.calibrations,
            "measured_loop_s": m.loop_seconds,
        }
        end_to_end, per_layer = {}, {}
        if m.passes:
            end_to_end = metrics.end_to_end(wl, st, m, peak_rss_mb)
            per_layer = metrics.per_layer(wl, st, m)
            report["pass_wall_s"] = measure.summary(metrics.pass_walls(m))
        if args.trace and m.passes:
            with spans.span("probes"):
                per_layer.update(
                    probes.run_probes(
                        wl, st, spans, 0.01 if args.smoke else PROBE_SECONDS
                    )
                )
            done = measure.one_pass(
                wl, st, spans, verifier, "traced", scratch, profile=True
            )
            if done is not None:
                profiled, _results = done
                buckets = {
                    job: layers.bucket(profile)
                    for job, profile in profiled.profiles.items()
                }
                per_layer.update(metrics.traced(m, profiled.total, buckets))
                report["profile_by_job"] = buckets
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    digests = verifier.digests()
    pinned = check_digests(args, name, digests)
    if pinned == "mismatch":
        verifier.fail("reference", "digest", "reference output digest != pinned")
    load_end = load_average()
    warn_if_loaded(load_end, "end")

    report.update(
        environment(),
        load_average={"start": load_start, "end": load_end},
        digests=digests,
        digest_check=pinned,
        attempted=verifier.attempted,
        failed=verifier.failed,
        failures=verifier.failures,
        correct=bool(m.passes) and verifier.failed == 0,
        end_to_end=end_to_end,
        per_layer=per_layer,
    )
    with open(os.path.join(args.out, f"{name}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if args.trace:
        spans.write(os.path.join(args.out, f"{name}.spans.jsonl"))
    return report


def print_report(report: dict, spec: dict) -> None:
    unit = units(spec)
    seed = "default" if report["seed"] is None else report["seed"]
    print(
        f"== {report['workload']} (seed {seed}, {len(report['passes'])} passes, "
        f"{report['records']} records x {report['job_runs_per_pass']} job runs, "
        f"digest {report['digest_check']}) =="
    )
    if "pass_wall_s" in report:
        s = report["pass_wall_s"]
        print(
            f"  pass wall: median {s['median']:.4f} s, quartiles "
            f"{s['q1']:.4f}-{s['q3']:.4f}, min {s['min']:.4f}, "
            f"max {s['max']:.4f}, n {s['n']}"
        )
    for name, value in report["end_to_end"].items():
        print(f"  {name:<44s} {value:>16.6g} {unit[name]}")
    print(
        f"  {'failed_share':<44s} {report['failed']:>9d}/{report['attempted']:<6d} "
        f"job runs"
    )
    for name in sorted(report["per_layer"]):
        print(f"  {name:<44s} {report['per_layer'][name]:>16.6g} {unit[name]}")
    for failure in report["failures"]:
        print(f"  FAILED {failure['pass']}/{failure['job']}: {failure['reason']}")


def result_line(report: dict, spec: dict, trace: int) -> str:
    """The contract's last line. A traced run reports *every* per-layer
    metric; one the workload does not exercise reads 0."""
    unit = units(spec)
    if trace:
        values = {
            m["name"]: report["per_layer"].get(m["name"], 0.0)
            for m in spec["per_layer"]
        }
    else:
        values = report["end_to_end"]
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": value, "unit": unit[name]}
                for name, value in values.items()
            },
        }
    )


# ----------------------------------------------------------------------
# All workloads: one fresh subprocess each, one after the other
# ----------------------------------------------------------------------
def run_all(args, spec: dict) -> int:
    forwarded = ["--trace", str(args.trace), "--out", args.out]
    if args.seed is not None:
        forwarded += ["--seed", str(args.seed)]
    if args.seconds is not None:
        forwarded += ["--seconds", str(args.seconds)]
    forwarded += [flag for flag in ("--smoke", "--pin") if getattr(args, flag[2:])]

    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for workload in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload["name"]]
            + forwarded,
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["workloads"][workload["name"]] = result["metrics"]
    with open(os.path.join(args.out, "results.json"), "w") as fh:
        json.dump(combined, fh, indent=1, sort_keys=True)
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is None:
        os.makedirs(args.out, exist_ok=True)
        return run_all(args, spec)
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    report = run_workload(args, spec)
    print_report(report, spec)
    print(result_line(report, spec, args.trace))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
