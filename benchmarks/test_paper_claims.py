"""The paper's Section 5 shape claims, asserted over BENCH_paper.json.

``python -m repro.bench --baseline paper`` pins the simulated seconds of
the nine paper experiments at full configuration; this module holds
those numbers to the paper's own words, one test per claim, without
re-running anything. A claim the reproduction misses is a strict xfail
that quotes the paper, so it turns into a failure the day it starts to
hold. Figure 12's times are milliseconds per lookup, every other
figure's simulated seconds per run.
"""

import json
import os

import pytest

FORCED = ("Base", "Cache", "Repart", "Idxloc")

with open(
    os.path.join(os.path.dirname(__file__), "..", "BENCH_paper.json"),
    encoding="utf-8",
) as _fh:
    EXPERIMENTS = json.load(_fh)["experiments"]


def times(name, row=0):
    return EXPERIMENTS[name]["rows"][row]["times"]


def column(name, mode):
    return [row["times"][mode] for row in EXPERIMENTS[name]["rows"]]


# -- Figure 11(a): LOG ------------------------------------------------------
def test_fig11a_cache_beats_base_at_every_delay():
    # Paper: the cache is 1.2-2.5x faster than the baseline.
    for base, cache in zip(column("fig11a", "Base"), column("fig11a", "Cache")):
        assert 1.2 <= base / cache <= 2.5


def test_fig11a_repart_gains_grow_with_the_delay():
    # Paper: re-partitioning adds 1.3-2.9x over the cache, and the
    # improvements grow with the delay. Here Cache / Repart rises with
    # the delay, and re-partitioning wins by 1.3x at the largest one.
    cache, repart = column("fig11a", "Cache"), column("fig11a", "Repart")
    gains = [c / r for c, r in zip(cache, repart)]
    assert gains == sorted(gains)
    assert gains[-1] >= 1.3


# -- Figure 11(b): TPC-H Q3 -------------------------------------------------
def test_fig11b_repart_worse_than_cache():
    t = times("fig11b")
    assert t["Cache"] < t["Repart"]


def test_fig11b_optimized_picks_the_best_plan():
    t = times("fig11b")
    assert t["Optimized"] <= 1.1 * min(t[m] for m in FORCED)


def test_fig11b_dynamic_beats_base():
    t = times("fig11b")
    assert t["Dynamic"] < t["Base"]


# -- Figure 11(c): TPC-H Q9 -------------------------------------------------
def test_fig11c_repart_far_ahead_of_base():
    # Paper: re-partitioning on Supplier is ~4.6x faster than the baseline.
    t = times("fig11c")
    assert t["Base"] / t["Repart"] >= 4


def test_fig11c_idxloc_close_to_repart():
    # "index locality ... even slightly worse than re-partitioning in
    # some cases"
    t = times("fig11c")
    assert t["Repart"] <= t["Idxloc"] <= 1.15 * t["Repart"]


# -- Figure 11(d): TPC-H DUP10 Q3 -------------------------------------------
def test_fig11d_duplication_flips_the_q3_verdict():
    t = times("fig11d")
    assert t["Repart"] < t["Cache"] < t["Base"]


# -- Figure 11(e): TPC-H DUP10 Q9 -------------------------------------------
def test_fig11e_repart_far_ahead_of_base():
    # Paper: re-partitioning is 7.9x faster than the baseline.
    t = times("fig11e")
    assert t["Base"] / t["Repart"] >= 4


@pytest.mark.xfail(
    strict=True,
    reason="the paper (Section 5.3): 'dynamic close to optimal because the "
    "statistics phase is amortised'. Measured Dyn 9.39 s against Opt 2.18 s "
    "(4.3x): Dynamic re-plans only after the first map wave",
)
def test_fig11e_dynamic_close_to_optimal():
    t = times("fig11e")
    assert t["Dynamic"] <= 1.5 * t["Optimized"]


# -- Figure 11(f): synthetic, result-size sweep ------------------------------
def test_fig11f_idxloc_flat_across_result_sizes():
    idxloc = column("fig11f", "Idxloc")
    assert max(idxloc) <= 1.05 * min(idxloc)


def test_fig11f_idxloc_crosses_repart():
    # Paper: index locality loses to re-partitioning for small results
    # and wins for large ones.
    idxloc, repart = column("fig11f", "Idxloc"), column("fig11f", "Repart")
    assert idxloc[0] > repart[0]
    assert idxloc[-1] < repart[-1]


# -- Figure 12: lookup latency ----------------------------------------------
def test_fig12_remote_gap_widens_with_the_result_size():
    local, remote = column("fig12", "local"), column("fig12", "remote")
    gaps = [r - l for l, r in zip(local, remote)]
    assert remote == sorted(remote)
    assert gaps == sorted(gaps) and gaps[-1] > 5 * gaps[0]
    # Paper: a remote lookup of a 30 KB result costs ~2.5 ms.
    assert remote[-1] == pytest.approx(2.5, rel=0.1)


# -- Figure 13: kNN join ----------------------------------------------------
def test_fig13_idxloc_the_best_efind_strategy():
    t = times("fig13")
    assert t["Idxloc"] < min(t["Base"], t["Cache"], t["Repart"])


def test_fig13_optimized_finds_idxloc():
    t = times("fig13")
    assert t["Optimized"] <= 1.05 * t["Idxloc"]


def test_fig13_efind_comparable_to_hzknnj():
    # "EFind-based solution achieves similar performance as the
    # hand-tuned implementation"
    t = times("fig13")
    assert 0.5 <= t["Optimized"] / t["H-zkNNJ"] <= 2


# -- Section 5.3: adaptive optimization ------------------------------------
def test_sec53_dynamic_between_optimized_and_base():
    for row in EXPERIMENTS["sec53"]["rows"]:
        t = row["times"]
        assert t["Optimized"] <= t["Dynamic"] <= t["Base"], row["label"]


def test_sec53_dynamic_gap_shrinks_as_the_input_grows():
    # "this effect will be reduced when many Map tasks are used to
    # process a large amount of data"
    dynamic, optimized = column("sec53", "Dynamic"), column("sec53", "Optimized")
    gaps = [d / o for d, o in zip(dynamic, optimized)]
    assert gaps[1] < gaps[0]
