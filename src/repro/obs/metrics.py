"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Complements the Hadoop-style :class:`repro.mapreduce.counters.Counters`
rather than replacing it: task code keeps incrementing Counters (the
statistics channel Algorithm 1 depends on), and the registry *snapshots*
their merged totals at job end (:meth:`MetricsRegistry.absorb_counters`)
next to the trace-derived latency histograms. Everything here is
process-level observability state -- none of it feeds back into
simulated time or plan choice.
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil
from typing import Dict, List, Optional, Sequence

#: Default histogram buckets (seconds): spans sub-100us cache probes up
#: to multi-second stragglers; the last bucket is the +Inf overflow.
DEFAULT_LATENCY_BUCKETS_S = (
    1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0,
)


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for an even count)
    -- the one median every wave/peer comparison under
    :mod:`repro.obs` uses, offline and live."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class Counter:
    """A monotonically increasing value."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += amount


class Gauge:
    """A last-writer-wins value."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram (cumulative-style buckets).

    ``buckets`` are the finite upper bounds; an implicit +Inf bucket
    catches overflow. ``counts[i]`` is the number of observations with
    ``value <= buckets[i]`` (non-cumulative storage; exporters derive
    whatever shape they need from ``counts`` + ``overflow``).
    """

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted, non-empty list")
        self.name = name
        self.buckets: List[float] = list(buckets)
        self.counts: List[int] = [0] * len(self.buckets)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.observe_all((value,))

    def observe_all(self, values: Sequence[float]) -> None:
        """:meth:`observe` each value, in order (``sum`` depends on it)."""
        buckets, counts = self.buckets, self.counts
        for value in values:
            self.sum += value
            i = bisect_left(buckets, value)
            if i == len(counts):
                self.overflow += 1
            else:
                counts[i] += 1
        self.count += len(values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Quantile via the nearest-rank rule: the upper bound of the
        bucket holding the ``ceil(q * count)``-th observation (+Inf
        overflow reports the largest finite bound).

        The rank is clamped to ``[1, count]``, so the result is the
        bucket of a *real* observation for every ``q``: ``q=0`` is the
        first observation's bucket (not the lowest bucket bound, which
        may be empty), a single-sample histogram answers that sample's
        bucket for every ``q``, and a rank landing exactly on a
        cumulative bucket boundary stays in that bucket rather than
        spilling into the next. A tiny epsilon absorbs float noise in
        ``q * count`` (e.g. ``0.07 * 100 == 7.000000000000001``) so
        boundary ranks are exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = ceil(q * self.count - 1e-9)
        rank = max(1, min(rank, self.count))
        seen = 0
        for bound, count in zip(self.buckets, self.counts):
            seen += count
            if seen >= rank:
                return bound
        return self.buckets[-1]

    # ------------------------------------------------------------------
    def boundaries(self) -> List:
        """Every bucket edge including the implicit overflow, as
        exported: the finite upper bounds followed by ``"+Inf"``."""
        return [*self.buckets, "+Inf"]

    def to_export(self) -> dict:
        """The JSON shape written to ``<base>.metrics.json`` (see
        :meth:`MetricsRegistry.to_dict`). ``boundaries`` makes the edge
        set explicit -- including the overflow bucket -- so offline
        consumers read exactly the edges the histogram observed with,
        instead of assuming the defaults."""
        return {
            "buckets": self.buckets,
            "boundaries": self.boundaries(),
            "counts": self.counts,
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Get-or-create registry of named counters/gauges/histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS_S
            )
        return h

    # ------------------------------------------------------------------
    def absorb_counters(self, counters, prefix: str = "counters") -> None:
        """Snapshot a merged Hadoop-style ``Counters`` into gauges named
        ``<prefix>.<group>.<name>`` (gauges, not counters: the snapshot
        is a level, and re-absorbing a newer total must overwrite)."""
        for group, name, value in counters.items():
            self.gauge(f"{prefix}.{group}.{name}").set(value)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready snapshot of every metric."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.to_export()
                for name, h in sorted(self._histograms.items())
            },
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
