"""Performance-baseline files: the committed ground truth that CI
regresses against.

``python -m repro.bench --baseline`` runs the baseline suites and
writes one JSON file per suite (``BENCH_tpch.json``,
``BENCH_synthetic.json``). Everything recorded is *simulated* time and
deterministic counters, so an unchanged tree reproduces the files
byte-for-byte on any machine -- any diff is a real behaviour change,
never measurement noise. ``python -m repro.obs.analysis regress OLD
NEW`` compares two such files under configured tolerances.

The suites use the small figure variants so a full baseline run stays
CI-sized (tens of seconds, not minutes).
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench import figures
from repro.bench.harness import ExperimentRow

#: Bump when the baseline JSON layout changes; ``regress`` refuses to
#: compare files with differing versions.
SCHEMA_VERSION = 1

#: suite -> ordered (experiment name, title, runner) entries.
SUITES: Dict[str, Sequence[Tuple[str, str, Callable[[], List[ExperimentRow]]]]] = {
    "tpch": (
        ("fig11b", "TPC-H Q3 (Figure 11b)", figures.run_fig11b),
        (
            "reuse-q3",
            "TPC-H Q3 repeated against one cross-job ReuseStore",
            figures.run_reuse_q3,
        ),
        (
            "spec-q3",
            "TPC-H Q3 with one x4-slow host, speculation off/on",
            figures.run_spec_q3,
        ),
        (
            "build-q3",
            "TPC-H Q3 while the Orders index is built in-job",
            figures.run_build_q3,
        ),
    ),
    "synthetic": (
        (
            "fig11f-small",
            "Synthetic join, 1KB results (Figure 11f, single point)",
            lambda: figures.run_fig11f(sizes=(1024,)),
        ),
    ),
}


def baseline_filename(suite: str) -> str:
    return f"BENCH_{suite}.json"


def serialize_row(row: ExperimentRow) -> dict:
    """One figure row as comparable JSON: simulated seconds per mode
    plus the deterministic counter totals of every feature that ran,
    under its ``FEATURE_COUNTERS`` key (empty groups are dropped --
    clean runs record no fault counters at all, runs without a reuse
    session no reuse counters, and so on)."""
    out: dict = {
        "label": row.label,
        "times": {mode: row.times[mode] for mode in sorted(row.times)},
    }
    for key, by_mode in row.counters.items():
        totals = {m: g for m, g in sorted(by_mode.items()) if g}
        if totals:
            out[key] = totals
    return out


def run_suite(suite: str) -> dict:
    """Run one suite's experiments and return the baseline document."""
    experiments = {}
    for name, title, runner in SUITES[suite]:
        rows = runner()
        experiments[name] = {
            "title": title,
            "rows": [serialize_row(row) for row in rows],
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "time_unit": "simulated seconds",
        "experiments": experiments,
    }


def write_baselines(
    out_dir: str = ".", suites: Sequence[str] = tuple(SUITES)
) -> List[str]:
    """Run the requested suites and write their baseline files.

    Returns the written paths. Serialization is fully deterministic
    (sorted keys, fixed float repr) so re-running on an unchanged tree
    rewrites identical bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for suite in suites:
        if suite not in SUITES:
            raise KeyError(
                f"unknown baseline suite {suite!r}; "
                f"available: {', '.join(sorted(SUITES))}"
            )
        doc = run_suite(suite)
        path = os.path.join(out_dir, baseline_filename(suite))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written
