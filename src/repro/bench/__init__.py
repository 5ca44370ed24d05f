"""Benchmark harness: runs the paper's six solution variants over a
workload and prints figure-shaped tables."""

from repro.bench.harness import (
    Experiment,
    ExperimentRow,
    bench_cluster,
    format_table,
    run_all_modes,
)

__all__ = [
    "Experiment",
    "ExperimentRow",
    "bench_cluster",
    "format_table",
    "run_all_modes",
]
