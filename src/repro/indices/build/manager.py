"""IndexManager: the build catalog.

Tracks, per index, which slice of the key space the incremental builder
has clustered so far. Coverage is modelled over a fixed number of hash
*buckets* (``stable_hash(key) % num_buckets``): a key is covered exactly
when its bucket has been built, so ``coverage()`` -- the fraction the
planner feeds into the coverage-blended Equations 1-4 -- is simply
``built / num_buckets``. Buckets commit at job boundaries only
(:meth:`IndexManager.commit`), which keeps coverage frozen for the
duration of a job: every task of one job agrees on which keys are
covered, and the build-q3 trajectory is deterministic.

The catalog persists across jobs in the bench harness (the session's
``snapshot``/``restore`` delegate here), and a rebuild resets the state
while bumping the epoch -- the hook through which the cross-job
ReuseStore invalidates cached lookup results for the rebuilt index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.mapreduce.api import stable_hash

#: Default key-space resolution of the coverage model. 48 divides evenly
#: by the common build fractions (1/2, 1/3, 1/4, 1/6) so warming runs
#: hit exact coverage milestones.
DEFAULT_NUM_BUCKETS = 48


@dataclass
class BuildState:
    """Per-index build catalog entry."""

    num_buckets: int = DEFAULT_NUM_BUCKETS
    #: Bucket ids whose keys the clustered index already answers.
    built: Set[int] = field(default_factory=set)
    #: Incremented on every rebuild; mirrored into the IndexService epoch
    #: so ReuseStore entries keyed on the old layout die with it.
    epoch: int = 0
    #: Total records folded into the index so far.
    entries: int = 0
    #: Catalog estimate of the clustered-index footprint.
    bytes_built: float = 0.0

    @property
    def coverage(self) -> float:
        if self.num_buckets <= 0:
            return 1.0
        return len(self.built) / self.num_buckets

    def bucket_of(self, key: Any) -> int:
        return stable_hash(key) % self.num_buckets

    def covered(self, key: Any) -> bool:
        return self.bucket_of(key) in self.built

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_buckets": self.num_buckets,
            "built": sorted(self.built),
            "epoch": self.epoch,
            "entries": self.entries,
            "bytes_built": self.bytes_built,
        }

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "BuildState":
        return BuildState(
            num_buckets=int(raw.get("num_buckets", DEFAULT_NUM_BUCKETS)),
            built=set(raw.get("built", ())),
            epoch=int(raw.get("epoch", 0)),
            entries=int(raw.get("entries", 0)),
            bytes_built=float(raw.get("bytes_built", 0.0)),
        )


class IndexManager:
    """Build catalog over any number of named indices.

    Untracked names report full coverage -- an index nobody is building
    behaves exactly like a prebuilt one, which is what makes the build
    subsystem zero-overhead when disabled.
    """

    def __init__(self) -> None:
        self._states: Dict[str, BuildState] = {}

    # -- catalog ------------------------------------------------------
    def track(
        self, name: str, num_buckets: int = DEFAULT_NUM_BUCKETS
    ) -> BuildState:
        """Start (or continue) tracking ``name``; idempotent."""
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        state = self._states.get(name)
        if state is None:
            state = BuildState(num_buckets=num_buckets)
            self._states[name] = state
        return state

    def get(self, name: str) -> Optional[BuildState]:
        return self._states.get(name)

    def tracked(self):
        return sorted(self._states)

    # -- planner-facing queries ---------------------------------------
    def coverage(self, name: str) -> float:
        state = self._states.get(name)
        return 1.0 if state is None else state.coverage

    def covered(self, name: str, key: Any) -> bool:
        state = self._states.get(name)
        return True if state is None else state.covered(key)

    # -- build progress -----------------------------------------------
    def advance(self, name: str, fraction: float) -> int:
        """Commit up to ``ceil(fraction * num_buckets)`` more buckets,
        lowest-numbered-unbuilt first; returns how many were added.

        Deterministic and monotone: repeated commits at fraction ``f``
        converge to full coverage in ``ceil(1/f)`` steps.
        """
        state = self._require(name)
        if fraction <= 0.0:
            return 0
        need = state.num_buckets - len(state.built)
        step = min(need, int(math.ceil(fraction * state.num_buckets)))
        added = 0
        for bucket in range(state.num_buckets):
            if added >= step:
                break
            if bucket not in state.built:
                state.built.add(bucket)
                added += 1
        return added

    def record_entries(self, name: str, records: int, entry_bytes: float) -> None:
        state = self._require(name)
        state.entries += max(0, records)
        state.bytes_built += max(0, records) * entry_bytes

    def complete(self, name: str) -> None:
        """Mark every bucket built."""
        state = self._require(name)
        state.built = set(range(state.num_buckets))

    def reset(self, name: str) -> int:
        """Drop all build progress (a rebuild); bumps and returns the
        catalog epoch. The caller is responsible for bumping the
        IndexService epoch so ReuseStore invalidation fires."""
        state = self._require(name)
        state.built = set()
        state.entries = 0
        state.bytes_built = 0.0
        state.epoch += 1
        return state.epoch

    # -- persistence --------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {name: state.to_dict() for name, state in self._states.items()}

    def restore(self, snap: Dict[str, Any]) -> None:
        self._states = {
            name: BuildState.from_dict(raw) for name, raw in snap.items()
        }

    def _require(self, name: str) -> BuildState:
        state = self._states.get(name)
        if state is None:
            raise KeyError(f"index {name!r} is not tracked by this manager")
        return state
