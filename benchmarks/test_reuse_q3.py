"""Cross-job reuse: TPC-H Q3 repeated against one ReuseStore.

Acceptance criteria for the reuse tier:

* a second overlapping-key run with a warm store spends >= 30% less
  simulated lookup time (the ``lookup.fetch_seconds`` counter: charged
  fetch/multiget seconds including retry backoff) than with reuse
  disabled;
* results are bit-identical to the disabled path in every phase;
* a cold store and a fully invalidated store reproduce the exact
  pre-reuse timings -- reuse probes are zero-cost, so the tier can
  elide work but never add any.
"""

from conftest import record_table

from repro.bench.figures import EXPERIMENTS, run_reuse_q3


def check_shape(rows):
    by_label = {row.label: row for row in rows}
    disabled = by_label["disabled"]
    warm = by_label["warm"]

    def fetch_seconds(row):
        return row.details["Cache"].counters.group("lookup")["fetch_seconds"]

    # The tentpole number: a warm store elides enough fetches that the
    # simulated lookup time of the repeated query drops by >= 30%.
    saved = 1.0 - fetch_seconds(warm) / fetch_seconds(disabled)
    assert saved >= 0.30, (
        f"warm reuse store must cut simulated lookup time by >= 30%, "
        f"got {saved:.1%}"
    )
    assert warm.times["Cache"] < disabled.times["Cache"]

    # Zero-cost probes: cold and invalidated stores (and a second
    # disabled run) reproduce the disabled timings *exactly*.
    for label in ("disabled-2", "cold", "invalidated"):
        assert by_label[label].times["Cache"] == disabled.times["Cache"], (
            f"{label}: reuse must never add simulated cost"
        )

    # Counter shape: the cold run admits everything it misses; the warm
    # run actually hits; the invalidated run drops every entry as stale
    # and falls back to fetching (then re-admits).
    cold = by_label["cold"].counters["reuse"]["Cache"]
    assert cold["misses"] == cold["probes"] > 0
    assert cold["admitted"] == cold["misses"]
    assert cold.get("hits", 0) == 0

    warm_counts = warm.counters["reuse"]["Cache"]
    assert warm_counts["hits"] > 0
    assert warm_counts["hits"] + warm_counts["misses"] == warm_counts["probes"]

    stale = by_label["invalidated"].counters["reuse"]["Cache"]
    assert stale["stale_drops"] == stale["probes"] > 0
    assert stale.get("hits", 0) == 0

    # Bit-identical outputs across all phases (run_reuse_q3 already
    # raises on divergence; re-assert the invariant here so the
    # benchmark is self-contained).
    reference = sorted(disabled.details["Cache"].output)
    for row in rows[1:]:
        assert sorted(row.details["Cache"].output) == reference


def test_reuse_q3(benchmark):
    rows = benchmark.pedantic(run_reuse_q3, rounds=1, iterations=1)
    check_shape(rows)
    record_table("reuse-q3", EXPERIMENTS["reuse-q3"].render(rows))
