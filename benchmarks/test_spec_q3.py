"""Speculative execution: TPC-H Q3 with one injected x4-slow host.

Acceptance criteria for the speculation tier:

* with the slow host injected, enabling speculation cuts end-to-end
  simulated time by >= 20% -- tail tasks get backups on idle hosts and
  the first finisher wins;
* with no faults, speculation-on reproduces the speculation-off timing
  *exactly* (backups are launched only for provable stragglers, so a
  clean run pays zero overhead);
* adding replica-aware routing on top changes no simulated time at all
  (routing is pure bookkeeping over replica metadata);
* outputs are bit-identical across every configuration.
"""

from conftest import record_table

from repro.bench.figures import EXPERIMENTS, run_spec_q3


def check_shape(rows):
    by_label = {row.label: row for row in rows}
    clean_off = by_label["clean-off"]
    clean_on = by_label["clean-on"]
    slow_off = by_label["slow-off"]
    slow_on = by_label["slow-on"]
    routed = by_label["slow-on-routed"]

    # The tentpole number: backups on idle hosts cut the straggled job's
    # end-to-end simulated time by >= 20%.
    saved = 1.0 - slow_on.times["Cache"] / slow_off.times["Cache"]
    assert saved >= 0.20, (
        f"speculation must cut the slow-host runtime by >= 20%, "
        f"got {saved:.1%}"
    )

    # Observer-effect twin: a clean run pays exactly nothing for having
    # speculation armed.
    assert clean_on.times["Cache"] == clean_off.times["Cache"], (
        "speculation-on must not change a clean run's simulated time"
    )
    assert not clean_on.counters["spec"]["Cache"], (
        "a clean run must launch no backups"
    )

    # Routing composes with speculation without touching the clock.
    assert routed.times["Cache"] == slow_on.times["Cache"], (
        "replica routing is bookkeeping only; it must not change time"
    )
    assert routed.counters["route"]["Cache"]["keys"] > 0
    assert routed.counters["route"]["Cache"]["batches"] > 0

    # Counter shape: every launched backup either wins or is killed,
    # and here the x4 straggle makes every candidate a winner.
    spec = slow_on.counters["spec"]["Cache"]
    assert spec["backups_launched"] > 0
    assert spec["backups_launched"] == (
        spec.get("backups_won", 0) + spec.get("backups_lost", 0)
    )
    assert spec.get("primaries_killed", 0) == spec.get("backups_won", 0)
    assert spec.get("saved_seconds", 0.0) > 0.0
    assert spec == routed.counters["spec"]["Cache"]

    # Bit-identical outputs across all configurations (run_spec_q3
    # already raises on divergence; re-assert so the benchmark is
    # self-contained).
    reference = sorted(clean_off.details["Cache"].output)
    for row in rows[1:]:
        assert sorted(row.details["Cache"].output) == reference


def test_spec_q3(benchmark):
    rows = benchmark.pedantic(run_spec_q3, rounds=1, iterations=1)
    check_shape(rows)
    record_table("spec-q3", EXPERIMENTS["spec-q3"].render(rows))
