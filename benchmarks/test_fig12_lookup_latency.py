"""Figure 12: local vs. remote index lookup latency vs. result size.

Paper shape: both curves grow with the result size; the gap between
remote and local widens because a remote lookup additionally ships the
result over the network.
"""

from conftest import record_table

from repro.bench.figures import EXPERIMENTS, run_fig12


# workload construction lives in repro.bench.figures.run_fig12


def check_shape(rows):
    locals_ = [r.times["local"] for r in rows]
    remotes = [r.times["remote"] for r in rows]
    # Remote is never cheaper than local.
    for lo, re in zip(locals_, remotes):
        assert re >= lo
    # Remote grows with result size; the local/remote gap widens.
    assert remotes == sorted(remotes)
    gaps = [re - lo for lo, re in zip(locals_, remotes)]
    assert gaps == sorted(gaps)
    assert gaps[-1] > gaps[0] * 5


def test_fig12_lookup_latency(benchmark):
    rows = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    check_shape(rows)
    record_table("fig12", EXPERIMENTS["fig12"].render(rows))
