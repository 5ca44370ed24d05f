"""The build cost model: what incremental index construction charges
to simulated time.

Modelled after LIAH's per-record pipeline ("Towards Zero-Overhead
Adaptive Indexing in Hadoop"): each record chosen for indexing is
*extracted* from its block, *sorted* into the partial run, and *merged*
into the clustered index. The three per-record CPU terms play the same
role for builds that Table 1's ``T_j`` plays for lookups -- they are the
only knobs the planner and the piggyback builder share.

``scan_multiplier`` prices the flip side: a lookup against a key the
partial index does not cover yet falls back to scanning the unindexed
partition remainder, which costs a multiple of the indexed service
time. It defaults to :data:`repro.core.costmodel.DEFAULT_SCAN_MULTIPLIER`
so the planner's prior and the executor's charge agree before any scan
has been observed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.costmodel import DEFAULT_SCAN_MULTIPLIER


@dataclass(frozen=True)
class BuildCostModel:
    """Per-record charges of the three build pipeline phases, plus the
    catalog's bytes-per-entry estimate and the uncovered-key scan
    premium."""

    extract_cpu_per_record: float = 1.0e-6
    sort_cpu_per_record: float = 0.8e-6
    merge_cpu_per_record: float = 0.6e-6
    #: Catalog estimate of the clustered-index footprint per entry.
    entry_bytes: float = 24.0
    #: Service-time multiple paid by scan-assisted lookups.
    scan_multiplier: float = DEFAULT_SCAN_MULTIPLIER

    @property
    def build_cpu_per_record(self) -> float:
        return (
            self.extract_cpu_per_record
            + self.sort_cpu_per_record
            + self.merge_cpu_per_record
        )

    def incremental_build_time(self, records: int) -> float:
        """Simulated seconds one map task pays to fold ``records`` of its
        split into the partial index (extract + sort + merge)."""
        return max(0, records) * self.build_cpu_per_record

    def entry_footprint(self, records: int) -> float:
        """Catalog bytes attributed to ``records`` new index entries."""
        return max(0, records) * self.entry_bytes
