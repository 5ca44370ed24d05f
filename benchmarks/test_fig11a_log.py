"""Figure 11(a): LOG -- runtime vs. extra lookup delay (0-5 ms).

Paper shape: the lookup cache gives 1.2-2.5x over baseline,
re-partitioning another 1.3-2.9x over the cache, and the gains grow
with the delay. Index locality does not apply (single-node cloud
service). Optimized matches the best strategy; Dynamic sits between
baseline and optimal.
"""

from conftest import record_table

from repro.bench.figures import EXPERIMENTS, run_fig11a


# workload construction lives in repro.bench.figures.run_fig11a


def check_shape(rows):
    for row in rows:
        t = row.times
        assert t["Cache"] < t["Base"], f"{row.label}: cache must beat baseline"
        assert t["Dynamic"] <= t["Base"] * 1.01, f"{row.label}: dynamic lost to base"
        best = min(t["Base"], t["Cache"], t["Repart"])
        assert t["Optimized"] <= best * 1.15, f"{row.label}: optimized off-best"
    # Gains grow with delay.
    first, last = rows[0], rows[-1]
    assert (last.times["Base"] / last.times["Repart"]) > (
        first.times["Base"] / first.times["Repart"]
    )
    # At the larger delays re-partitioning wins (paper: an extra
    # 1.3-2.9x over the cache).
    for row in rows[2:]:
        assert row.times["Repart"] < row.times["Cache"]
    assert last.times["Base"] / last.times["Repart"] >= 2.0


def test_fig11a_log(benchmark):
    rows = benchmark.pedantic(run_fig11a, rounds=1, iterations=1)
    check_shape(rows)
    record_table("fig11a", EXPERIMENTS["fig11a"].render(rows))
