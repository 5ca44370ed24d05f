"""Figure 11(d): TPC-H DUP10 Q3.

Duplicating LineItem 10x introduces 10x redundant index keys *across
machines*; re-partitioning removes this global redundancy and now beats
even the lookup cache (paper: 2.1x over the cache).
"""

from conftest import record_table

from repro.bench.figures import EXPERIMENTS, run_fig11d


# workload construction lives in repro.bench.figures.run_fig11d


def check_shape(rows):
    t = rows[0].times
    assert t["Cache"] < t["Base"]
    # The 10x cross-machine redundancy flips the Q3 verdict: now the
    # extra shuffle pays (paper: repart 2.1x over cache).
    assert t["Repart"] < t["Cache"]
    assert t["Optimized"] <= min(t.values()) * 1.15
    assert t["Dynamic"] <= t["Base"] * 1.01


def test_fig11d_dup10_q3(benchmark):
    rows = benchmark.pedantic(run_fig11d, rounds=1, iterations=1)
    check_shape(rows)
    record_table("fig11d", EXPERIMENTS["fig11d"].render(rows))
