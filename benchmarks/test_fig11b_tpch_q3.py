"""Figure 11(b): TPC-H Q3.

Paper shape: the lookup cache achieves ~2.5-3.3x over baseline
(LineItem rows of one order are adjacent, so Orders lookups hit the
cache), while re-partitioning is *worse* than the cache -- the cache
already removes most redundancy, so the extra job does not pay.
Optimized picks a cache-based plan.
"""

from conftest import record_table

from repro.bench.figures import EXPERIMENTS, run_fig11b


# workload construction lives in repro.bench.figures.run_fig11b


def check_shape(rows):
    t = rows[0].times
    assert t["Cache"] < t["Base"], "cache must beat baseline on Q3"
    assert t["Base"] / t["Cache"] >= 1.5, "cache win should be substantial"
    assert t["Repart"] > t["Cache"], "re-partitioning must NOT pay on Q3"
    assert t["Optimized"] <= t["Cache"] * 1.1
    assert t["Dynamic"] < t["Base"], "dynamic must beat baseline on Q3"


def test_fig11b_tpch_q3(benchmark):
    rows = benchmark.pedantic(run_fig11b, rounds=1, iterations=1)
    check_shape(rows)
    record_table("fig11b", EXPERIMENTS["fig11b"].render(rows))
