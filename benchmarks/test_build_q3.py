"""In-job index construction: TPC-H Q3 while the Orders index is built.

Acceptance criteria for the build tier:

* warming runs strictly reduce simulated time -- every phase of the
  cold -> warm-1 -> warm-2 -> full trajectory is faster than the one
  before it, and the scan-assisted lookup counts shrink accordingly;
* the ``full``-coverage phase reproduces the ``prebuilt`` baseline
  *exactly* (same plan, same simulated time) -- a finished build
  session costs nothing;
* results are bit-identical to the prebuilt path in every phase.
"""

from conftest import record_table

from repro.bench.figures import EXPERIMENTS, run_build_q3


def check_shape(rows):
    by_label = {row.label: row for row in rows}
    prebuilt = by_label["prebuilt"]
    trajectory = ["cold", "warm-1", "warm-2", "full"]

    # The tentpole shape: every warming job strictly reduces simulated
    # time until the fully covered run lands exactly on the prebuilt
    # baseline.
    times = [by_label[label].times["Dynamic"] for label in trajectory]
    assert all(a > b for a, b in zip(times, times[1:])), (
        f"warming must strictly reduce simulated time, got {times}"
    )
    assert by_label["full"].times["Dynamic"] == prebuilt.times["Dynamic"], (
        "full coverage must reproduce the prebuilt timing exactly"
    )
    assert by_label["cold"].times["Dynamic"] > 2 * prebuilt.times["Dynamic"], (
        "the cold phase should pay a substantial scan premium"
    )

    # Counter shape: scans shrink with coverage and vanish at full
    # coverage; each warming job charges the same incremental build
    # cost; the inert full-coverage session builds nothing.
    scans = [
        by_label[label].counters["build"]["Dynamic"].get("unindexed_lookups", 0)
        for label in trajectory
    ]
    assert scans[0] > scans[1] > scans[2] > scans[3] == 0
    for label in ("cold", "warm-1", "warm-2"):
        build = by_label[label].counters["build"]["Dynamic"]
        assert build["records_indexed"] > 0
        assert build["build_seconds"] > 0
        assert build["scan_seconds"] > 0
    full = by_label["full"].counters["build"]["Dynamic"]
    assert full.get("records_indexed", 0) == 0
    assert full.get("scan_seconds", 0.0) == 0.0
    assert prebuilt.counters["build"]["Dynamic"] == {}

    # Bit-identical outputs across all phases (run_build_q3 already
    # raises on divergence; re-assert so the benchmark is
    # self-contained).
    reference = sorted(prebuilt.details["Dynamic"].output)
    for row in rows[1:]:
        assert sorted(row.details["Dynamic"].output) == reference


def test_build_q3(benchmark):
    rows = benchmark.pedantic(run_build_q3, rounds=1, iterations=1)
    check_shape(rows)
    record_table("build-q3", EXPERIMENTS["build-q3"].render(rows))
