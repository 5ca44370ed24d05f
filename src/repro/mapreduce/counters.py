"""Hadoop-style counters.

Counters are the statistics channel EFind relies on (Section 4.2): each
task increments local counters, the runtime aggregates them globally,
and the adaptive optimizer reads per-task values to compute sample
variance.

Most counters are *additive* (``increment``): merging task-local
counters into a global total sums them. A key written with ``set`` is a
*gauge* -- a point-in-time value such as a high-water mark or a derived
ratio -- and summing gauges across tasks is meaningless, so ``merge``
takes the last writer's value for gauge keys instead of adding.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, NamedTuple, Set, Tuple


class Counters:
    """A two-level ``group -> name -> value`` counter map."""

    def __init__(self) -> None:
        self._data: Dict[str, Dict[str, float]] = defaultdict(dict)
        self._gauges: Set[Tuple[str, str]] = set()

    def increment(self, group: str, name: str, amount: float = 1.0) -> None:
        bucket = self._data[group]
        bucket[name] = bucket.get(name, 0.0) + amount
        # Incrementing converts the key back to an additive counter:
        # mixed set-then-increment sequences behave like the pre-gauge
        # counters did, and only pure gauges get last-writer merges.
        if self._gauges:
            self._gauges.discard((group, name))

    def bucket(self, group: str) -> Dict[str, float]:
        """The live ``name -> value`` dict of ``group`` (created if
        new), for a caller that adds to it once per event:
        ``bucket[name] = bucket.get(name, 0.0) + amount`` is
        :meth:`increment` for a name nobody writes with :meth:`set`."""
        return self._data[group]

    def set(self, group: str, name: str, value: float) -> None:
        """Write ``value``, marking the key as a gauge: a later
        :meth:`merge` overwrites it with the source's value rather than
        adding (a plain ``set`` followed by ``merge`` used to silently
        sum the two values)."""
        self._data[group][name] = value
        self._gauges.add((group, name))

    def is_gauge(self, group: str, name: str) -> bool:
        return (group, name) in self._gauges

    def get(self, group: str, name: str, default: float = 0.0) -> float:
        return self._data.get(group, {}).get(name, default)

    def group(self, group: str) -> Dict[str, float]:
        return dict(self._data.get(group, {}))

    def merge(self, other: "Counters") -> None:
        """Fold ``other`` into this instance (used for global totals):
        additive keys sum, keys ``other`` wrote with :meth:`set` take
        the last writer's value (and stay gauges here)."""
        for group, names in other._data.items():
            for name, value in names.items():
                if (group, name) in other._gauges:
                    self.set(group, name, value)
                else:
                    self.increment(group, name, value)

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """A plain nested-dict snapshot of every group (deep copy)."""
        return {group: dict(names) for group, names in self._data.items()}

    def items(self) -> Iterator[Tuple[str, str, float]]:
        for group, names in self._data.items():
            for name, value in names.items():
                yield group, name, value

    def __len__(self) -> int:
        return sum(len(names) for names in self._data.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{g}.{n}={v:g}" for g, n, v in sorted(self.items())]
        return "Counters(" + ", ".join(parts) + ")"

    def copy(self) -> "Counters":
        clone = Counters()
        clone.merge(self)
        return clone


class FeatureCounters(NamedTuple):
    """The counter group one run feature emits, and how it is shown."""

    group: str
    """Counter group name (``fault`` in ``fault.lookups_retried``)."""
    columns: Tuple[str, ...]
    """The counters printed as table columns, in order."""
    cell: str
    """Format spec of one table cell, after the width."""


#: The one list of run features that emit counters, keyed by the name
#: their totals are recorded under in a bench row and in
#: ``BENCH_*.json``. The harness, the baseline writer, the CLI tables
#: and EXPLAIN ANALYZE all iterate this; a new feature is one row here.
FEATURE_COUNTERS: Dict[str, FeatureCounters] = {
    "faults": FeatureCounters(
        "fault",
        (
            "lookups_retried",
            "lookups_failed",
            "failovers",
            "locality_fallbacks",
            "tasks_retried",
        ),
        "g",
    ),
    "batches": FeatureCounters(
        "batch",
        ("batches_issued", "keys_batched", "mean_fill", "flushes_on_finish"),
        ".4g",
    ),
    "reuse": FeatureCounters(
        "reuse",
        (
            "probes",
            "hits",
            "misses",
            "stale_drops",
            "admitted",
            "evicted",
        ),
        "g",
    ),
    "spec": FeatureCounters(
        "spec",
        (
            "candidates",
            "backups_launched",
            "backups_won",
            "backups_lost",
            "saved_seconds",
            "wasted_seconds",
        ),
        ".4g",
    ),
    "route": FeatureCounters(
        "route", ("batches", "keys", "hot_spread", "rebalanced"), "g"
    ),
    "build": FeatureCounters(
        "build",
        (
            "indexed_lookups",
            "unindexed_lookups",
            "records_indexed",
            "build_seconds",
            "scan_seconds",
        ),
        ".4g",
    ),
}


def feature_totals(counters: Counters, group: str) -> Dict[str, float]:
    """One group's totals plus its derived column: ``batch.mean_fill``
    (keys per issued multiget). Counters merge additively across tasks,
    so the mean must be derived from the totals rather than counted."""
    totals = counters.group(group)
    issued = totals.get("batches_issued", 0.0) if group == "batch" else 0.0
    if issued:
        totals["mean_fill"] = totals.get("keys_batched", 0.0) / issued
    return totals
