"""Figure 11(c): TPC-H Q9.

Paper shape: Q9 probes the Supplier index with LineItem's *unclustered*
suppkeys -- the cache sees a very high miss rate and gives almost no
benefit, while re-partitioning (on Supplier, cache on the rest) removes
all redundant supplier lookups, a ~4.6x speedup over baseline. Dynamic
pays a visible statistics-collection phase but still beats baseline.
"""

from conftest import record_table

from repro.bench.figures import EXPERIMENTS, run_fig11c


# workload construction lives in repro.bench.figures.run_fig11c


def check_shape(rows):
    t = rows[0].times
    # The cache gives far less benefit than on Q3 (no locality in
    # supplier keys, and the hot supplier index dominates).
    assert t["Cache"] >= t["Base"] * 0.6
    # Re-partitioning on Supplier pays off clearly (paper: ~4.6x).
    assert t["Repart"] < t["Base"] / 2.5
    assert t["Repart"] < t["Cache"] / 2.0
    assert t["Optimized"] <= min(t["Base"], t["Cache"], t["Repart"], t["Idxloc"]) * 1.1
    assert t["Dynamic"] <= t["Base"] * 1.01


def test_fig11c_tpch_q9(benchmark):
    rows = benchmark.pedantic(run_fig11c, rounds=1, iterations=1)
    check_shape(rows)
    record_table("fig11c", EXPERIMENTS["fig11c"].render(rows))
