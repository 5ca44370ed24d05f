"""Performance-baseline files: the committed ground truth that CI
regresses against.

``python -m repro.bench --baseline`` runs the baseline suites and
writes one JSON file per suite (``BENCH_tpch.json``,
``BENCH_synthetic.json``, ``BENCH_paper.json``). Everything recorded is
*simulated* time and deterministic counters, so an unchanged tree
reproduces the files byte-for-byte on any machine -- any diff is a real
behaviour change, never measurement noise. ``python -m repro.obs.analysis regress OLD
NEW`` compares two such files under configured tolerances.

The ``tpch`` and ``synthetic`` suites use the small figure variants
and run in seconds; ``paper`` pins the paper's nine Section 5
experiments at full configuration (over a minute) and is what
EXPERIMENTS.md's paper tables are rendered from
(:func:`render_experiments`).
"""

from __future__ import annotations

import json
import os
import re
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench import figures
from repro.bench.harness import ExperimentRow

#: Bump when the baseline JSON layout changes; ``regress`` refuses to
#: compare files with differing versions.
SCHEMA_VERSION = 1


def _fig12_rows() -> List[ExperimentRow]:
    """Figure 12's (size, local ms, remote ms) tuples as rows whose
    times are milliseconds per lookup."""
    return [
        ExperimentRow(
            label=f"{size}B" if size < 1024 else f"{size // 1024}KB",
            times={"local": local, "remote": remote},
        )
        for size, local, remote in figures.run_fig12()
    ]


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
    "paper": (
        ("fig11a", "LOG: runtime vs extra lookup delay", figures.run_fig11a),
        ("fig11b", "TPC-H Q3", figures.run_fig11b),
        ("fig11c", "TPC-H Q9", figures.run_fig11c),
        ("fig11d", "TPC-H DUP10 Q3", figures.run_fig11d),
        ("fig11e", "TPC-H DUP10 Q9", figures.run_fig11e),
        (
            "fig11f",
            "Synthetic: runtime vs lookup result size",
            figures.run_fig11f,
        ),
        ("fig12", "Lookup latency vs result size (ms per lookup)", _fig12_rows),
        ("fig13", "kNN join: EFind vs H-zkNNJ", figures.run_fig13),
        ("sec53", "Adaptive optimization anatomy", figures.run_sec53),
    ),
}

#: paper experiment -> (x label, modes, digits) of its EXPERIMENTS.md
#: table; a mode is its own column heading unless renamed here.
PAPER_TABLES: Dict[str, Tuple[str, Tuple[str, ...], int]] = {
    "fig11a": ("extra delay", figures.FIG11A_MODES, 2),
    "fig11b": ("query", figures.SIX_MODES, 2),
    "fig11c": ("query", figures.SIX_MODES, 2),
    "fig11d": ("query", figures.SIX_MODES, 2),
    "fig11e": ("query", figures.SIX_MODES, 2),
    "fig11f": ("result size", figures.SIX_MODES, 2),
    "fig12": ("result size", ("local", "remote"), 3),
    "fig13": ("workload", figures.SIX_MODES + ("H-zkNNJ",), 2),
    "sec53": ("workload", figures.SEC53_MODES, 2),
}
_HEADINGS = {
    "Optimized": "Opt",
    "Dynamic": "Dyn",
    "local": "local (ms)",
    "remote": "remote (ms)",
}

#: In EXPERIMENTS.md a rendered table is the run of ``|`` lines right
#: under its marker line.
_MARKED_TABLE = re.compile(
    r"^(<!-- BENCH_paper\.json (\S+) -->)\n(?:\|.*\n)*", re.M
)


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


def render_table(name: str, experiment: dict) -> str:
    """One paper experiment of ``BENCH_paper.json`` as a markdown
    table (no trailing newline)."""
    x_label, modes, digits = PAPER_TABLES[name]
    headings = [_HEADINGS.get(mode, mode) for mode in modes]
    lines = [
        "| " + " | ".join([x_label] + headings) + " |",
        "|" + "---|" * (len(modes) + 1),
    ]
    for row in experiment["rows"]:
        cells = [f"{row['times'][mode]:.{digits}f}" for mode in modes]
        lines.append("| " + " | ".join([row["label"]] + cells) + " |")
    return "\n".join(lines)


def render_experiments(text: str, paper: dict) -> str:
    """``text`` (EXPERIMENTS.md) with every marked table re-rendered
    from ``paper`` (the ``BENCH_paper.json`` document). Raises
    ``KeyError`` for a marker naming no paper experiment, and
    ``ValueError`` unless each of the nine is marked exactly once."""
    seen: List[str] = []

    def table(match) -> str:
        marker, name = match.groups()
        seen.append(name)
        return f"{marker}\n{render_table(name, paper['experiments'][name])}\n"

    out = _MARKED_TABLE.sub(table, text)
    if sorted(seen) != sorted(PAPER_TABLES):
        raise ValueError(
            f"EXPERIMENTS.md marks {sorted(seen)}; "
            f"want each of {sorted(PAPER_TABLES)} once"
        )
    return out
