"""Fault recovery: the Fig. 11(b) workload under injected lookup faults.

Shape: every strategy must survive a 1%+ per-attempt lookup failure
rate (plus timeouts and one dead KV replica) with output identical to
the fault-free run -- retries and replica failover mask the faults --
while paying for them in strictly higher simulated runtime. The fault
counters must show the machinery actually engaged (retries, failovers)
rather than the faults simply never firing.
"""

from conftest import record_table

from repro.bench.figures import (
    EXPERIMENTS,
    FAULT_MODES as MODES,
    FAULT_RATES,
    run_fault_recovery,
)


# workload construction lives in repro.bench.figures.run_fault_recovery


def check_shape(rows):
    clean = rows[0]
    assert clean.label.startswith("0%")
    for mode in MODES:
        totals = clean.counters["faults"][mode]
        assert all(v == 0 for v in totals.values()), (
            f"clean run must inject nothing, got {totals} for {mode}"
        )
    for row in rows[1:]:
        for mode in MODES:
            # Retries + failover mask every fault: identical output...
            assert row.details[mode].output == clean.details[mode].output, (
                f"{mode} output changed under faults ({row.label})"
            )
            # ...paid for in simulated time...
            assert row.times[mode] > clean.times[mode], (
                f"{mode} should be strictly slower under faults ({row.label})"
            )
            # ...and the counters prove the faults actually fired.
            assert row.counters["faults"][mode]["lookups_retried"] > 0, (mode, row.label)
            assert row.counters["faults"][mode]["failovers"] > 0, (mode, row.label)


def test_fault_recovery(benchmark):
    assert 0.01 in FAULT_RATES
    rows = benchmark.pedantic(run_fault_recovery, rounds=1, iterations=1)
    check_shape(rows)
    record_table("faults", EXPERIMENTS["faults"].render(rows))
