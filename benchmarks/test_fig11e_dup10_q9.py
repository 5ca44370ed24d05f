"""Figure 11(e): TPC-H DUP10 Q9.

With 10x duplicated LineItem rows, re-partitioning removes 10x more
redundant supplier lookups: the paper reports a 7.9x speedup over the
baseline, and Dynamic close to Optimized because the statistics phase
is amortised (Section 5.3). The second claim does not hold here: see
``test_fig11e_dynamic_close_to_optimal`` in ``test_paper_claims.py``.
"""

from conftest import record_table

from repro.bench.figures import EXPERIMENTS, run_fig11e


# workload construction lives in repro.bench.figures.run_fig11e


def check_shape(rows):
    t = rows[0].times
    # Paper: 7.9x over baseline for re-partitioning.
    assert t["Base"] / t["Repart"] >= 4.0
    assert t["Repart"] < t["Cache"]
    assert t["Optimized"] <= min(t.values()) * 1.15
    assert t["Dynamic"] < t["Base"] * 0.6


def test_fig11e_dup10_q9(benchmark):
    rows = benchmark.pedantic(run_fig11e, rounds=1, iterations=1)
    check_shape(rows)
    record_table("fig11e", EXPERIMENTS["fig11e"].render(rows))

