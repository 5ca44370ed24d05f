"""Figure 11(f): Synthetic -- runtime vs. index lookup result size.

Paper shape: the lookup cache sees little benefit (far more distinct
keys than cache entries); re-partitioning beats the baseline by
removing the duplicate lookups; index locality beats re-partitioning
once the result size grows past ~1 KB (shipping inputs to the index
becomes cheaper than shipping big results from it) and loses slightly
below that. Remote lookups pay the per-request effective throughput
measured in the paper's Figure 12, so the baseline's cost grows
steeply with the result size.
"""

from conftest import record_table

from repro.bench.figures import EXPERIMENTS, run_fig11f


# workload construction lives in repro.bench.figures.run_fig11f


def check_shape(rows):
    for row in rows:
        t = row.times
        # Cache sees little benefit: 8000 distinct keys >> 1024 entries.
        assert t["Cache"] >= t["Base"] * 0.75, row.label
        assert t["Optimized"] <= min(t.values()) * 1.2, row.label
        assert t["Dynamic"] <= t["Base"] * 1.01, row.label
    # The baseline's cost rises with the result size (remote transfers).
    bases = [r.times["Base"] for r in rows]
    assert bases[-1] > bases[0] * 1.3
    # Extra-job strategies pay off at the larger result sizes.
    for row in rows[1:]:
        assert min(row.times["Repart"], row.times["Idxloc"]) < row.times["Base"], (
            row.label
        )
    # Index locality wins for large results, not for small ones.
    small, large = rows[0], rows[-1]
    assert large.times["Idxloc"] < large.times["Repart"]
    assert small.times["Idxloc"] >= small.times["Repart"] * 0.95
    # The crossover is monotone: once idxloc wins, it keeps winning.
    flipped = False
    for row in rows:
        wins = row.times["Idxloc"] < row.times["Repart"]
        if flipped:
            assert wins, f"idxloc lost again at {row.label}"
        flipped = flipped or wins


def test_fig11f_synthetic(benchmark):
    rows = benchmark.pedantic(run_fig11f, rounds=1, iterations=1)
    check_shape(rows)
    record_table("fig11f", EXPERIMENTS["fig11f"].render(rows))
