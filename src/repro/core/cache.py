"""The node-local lookup cache (Section 3.2).

"EFind inserts the input ik and the result {iv} of a lookup operation
into an LRU-organized cache. Before invoking the lookup for another ik,
it checks if ik already exists in the cache." The cache holds up to 1024
key-value entries in the paper's implementation; the size is a
constructor parameter here (and swept by the cache-size ablation bench).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple


class LRUCache:
    """A fixed-capacity LRU map with probe accounting."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.probes = 0
        self.hits = 0

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """Probe for ``key``; returns ``(hit, value)``."""
        self.probes += 1
        try:
            value = self._data[key]
        except KeyError:
            return False, None
        self._data.move_to_end(key)
        self.hits += 1
        return True, value

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)

    @property
    def misses(self) -> int:
        return self.probes - self.hits

    @property
    def miss_ratio(self) -> float:
        """Observed ``R`` (1.0 before any probe, the pessimistic prior)."""
        if self.probes == 0:
            return 1.0
        return self.misses / self.probes

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()
        self.probes = 0
        self.hits = 0


class ShadowCache:
    """A keys-only LRU used to *estimate* the miss ratio ``R`` while the
    baseline strategy runs (Section 4.2: "we use a simple version of the
    lookup cache that does not cache lookup results").

    The paper samples "significantly long (e.g., 100x of the cache size)
    sequences of lookups" so cold-start misses do not dominate; here
    exactly the first ``warmup`` probes are excluded from the estimate
    (:attr:`warmed` tells callers whether the estimate is live yet):
    probe number ``warmup + 1`` is the first one counted. The boundary
    cases are deliberate --

    * ``warmup=0`` counts from the very first probe, *including* that
      probe's compulsory miss (useful when the caller wants the raw
      unfiltered ratio);
    * ``warmup=1`` excludes only the first probe, so a two-probe stream
      over one key estimates R = 0.

    The default warm-up is a fraction of the capacity: long enough to
    damp cold-start bias on recurrence patterns, short enough that
    adjacency hits (which need no warm-up at all) are still observed in
    the short per-task streams of a scaled-down run.
    """

    def __init__(self, capacity: int = 1024, warmup: Optional[int] = None):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._keys: "OrderedDict[Hashable, bool]" = OrderedDict()
        # Capped so operators that see only a few dozen keys per node
        # (e.g. behind a selective filter) still produce an estimate.
        if warmup is None:
            warmup = min(capacity // 8, 64)
        elif warmup < 0:
            raise ValueError("shadow-cache warm-up cannot be negative")
        self._warmup = warmup
        self.clear()

    def probe(self, key: Hashable) -> bool:
        """Record an access; returns True on a (simulated) hit."""
        keys = self._keys
        self.probes += 1
        hit = key in keys
        if hit:
            keys.move_to_end(key)
        else:
            keys[key] = True
            if len(keys) > self.capacity:
                keys.popitem(last=False)
        if self.probes > self._warmup:
            self.warmed = True
            self.counted_probes += 1
            if hit:
                self.counted_hits += 1
        return hit

    #: True once the current probe is past the warm-up window. Set by
    #: :meth:`probe` after it counts the access, so with ``warmup=N``
    #: probes 1..N are excluded and probe N+1 is the first counted;
    #: ``warmup=0`` therefore counts every probe.
    warmed: bool

    @property
    def miss_ratio(self) -> float:
        """Post-warm-up miss ratio (1.0 until warmed)."""
        if self.counted_probes == 0:
            return 1.0
        return 1.0 - self.counted_hits / self.counted_probes

    def clear(self) -> None:
        """Reset contents and the estimate, *including* the warm-up
        window: a cleared shadow starts cold, so counting its first
        probes would mix one window's compulsory misses into the next
        window's estimate. It must re-warm before counting again."""
        self._keys.clear()
        self.probes = 0
        self.warmed = False
        self.counted_probes = 0
        self.counted_hits = 0
