"""The incremental builder: LIAH-style piggyback builds plus the
session object that ties the catalog, the cost model, and the executor
gates together.

A :class:`BuildSession` is attached to the EFind runner. Per job it

* freezes each tracked index's *job fraction* -- how much of every map
  split this job will fold into the index (``min(build_fraction,
  uncovered remainder)``, so a fully built index charges nothing),
* prepends an :class:`IndexBuilderFn` to the map chain, which passes
  records through untouched and, in ``finish``, charges the build cost
  model's extract+sort+merge time for the frozen fraction of the split,
* commits the progress at the job boundary (coverage is frozen mid-job;
  see ``manager.py``).

The executor's strategy gates (``core/strategy.py``) consult the session
through two calls only -- ``covered(name, key)`` and
``scan_multiplier(name)`` -- so the session is trivially stubbable and
the core layer needs no import of this package.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.indices.base import IndexService
from repro.indices.build.manager import (
    DEFAULT_NUM_BUCKETS,
    IndexManager,
)
from repro.indices.build.model import BuildCostModel
from repro.mapreduce.api import OutputCollector, StreamStage, TaskContext
from repro.obs.trace import DEPTH_DETAIL

#: Default slice of every map split folded into each building index per
#: job: full coverage after three warming jobs at the default bucket
#: count (48 buckets, 16 committed per job).
DEFAULT_BUILD_FRACTION = 1.0 / 3.0


class BuildSession:
    """One adaptive-build campaign over a set of target indices.

    ``targets`` maps index names (the accessor/IndexService name used in
    plans and stats) to the live :class:`IndexService` instances, so
    rebuilds can bump the service epoch and invalidate ReuseStore
    entries.
    """

    def __init__(
        self,
        targets: Dict[str, IndexService],
        fraction: float = DEFAULT_BUILD_FRACTION,
        model: Optional[BuildCostModel] = None,
        manager: Optional[IndexManager] = None,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("build fraction must be in (0, 1]")
        self.targets = dict(targets)
        self.fraction = fraction
        self.model = model or BuildCostModel()
        self.manager = manager or IndexManager()
        for name in self.targets:
            self.manager.track(name, num_buckets=num_buckets)
        # Per-job state, valid between begin_job and commit_job.
        self._job_fraction: Dict[str, float] = {}
        self._job_records: Dict[str, int] = {}
        self._job_seconds: Dict[str, float] = {}
        self._in_job = False

    # -- executor-facing queries (see core/strategy.py gates) ---------
    def covered(self, name: str, key: Any) -> bool:
        return self.manager.covered(name, key)

    def scan_multiplier(self, name: str) -> float:
        return self.model.scan_multiplier

    # -- planner-facing queries ---------------------------------------
    def coverage(self, name: str) -> float:
        return self.manager.coverage(name)

    def job_debt(self, name: str) -> float:
        """Build seconds this job's map tasks charged for ``name`` so
        far -- the piggyback cost the current job is paying. Strategy
        invariant (the builder runs whatever access strategy is picked),
        so it is audited but never added to a strategy cost equation."""
        return self._job_seconds.get(name, 0.0)

    def job_records(self, name: str) -> int:
        return self._job_records.get(name, 0)

    # -- job lifecycle ------------------------------------------------
    def begin_job(self) -> None:
        """Freeze per-index job fractions and zero the accumulators.

        Idempotent within one job: the adaptive runner may re-enter its
        execute path after a plan switch without double-committing."""
        if self._in_job:
            return
        self._in_job = True
        self._job_fraction = {}
        self._job_records = {}
        self._job_seconds = {}
        for name in self.targets:
            uncovered = 1.0 - self.manager.coverage(name)
            self._job_fraction[name] = min(self.fraction, max(0.0, uncovered))

    def commit_job(self) -> None:
        """Advance the catalog for every index this job actually built
        for, then leave job scope. Coverage changes only here."""
        if not self._in_job:
            return
        self._in_job = False
        for name in sorted(self.targets):
            if self._job_records.get(name, 0) <= 0:
                continue
            self.manager.advance(name, self._job_fraction.get(name, 0.0))
            self.manager.record_entries(
                name, self._job_records[name], self.model.entry_bytes
            )

    # -- builder attachment -------------------------------------------
    def builder_fn(self) -> "IndexBuilderFn":
        """The pass-through chain stage the runner prepends to stage-0
        map chains while a build session is attached."""
        return IndexBuilderFn(self)

    def note_built(self, name: str, records: int, seconds: float) -> None:
        self._job_records[name] = self._job_records.get(name, 0) + records
        self._job_seconds[name] = self._job_seconds.get(name, 0.0) + seconds

    # -- rebuilds ------------------------------------------------------
    def rebuild(self, name: str) -> None:
        """Drop ``name``'s build progress and invalidate downstream
        caches: the catalog epoch advances and the IndexService epoch is
        bumped, which versions this index out of the ReuseStore."""
        self.manager.reset(name)
        index = self.targets.get(name)
        if index is not None:
            index.bump_epoch()

    # -- persistence (bench harness) ----------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {
            "manager": self.manager.snapshot(),
            "fraction": self.fraction,
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        self.manager.restore(snap["manager"])
        self._job_fraction = {}
        self._job_records = {}
        self._job_seconds = {}
        self._in_job = False


class IndexBuilderFn(StreamStage):
    """Pass-through map stage that piggybacks incremental builds.

    Records flow through unmodified, with the sizes they came with (the
    builder must never perturb the job's dataflow -- LIAH's zero-overhead
    contract); ``finish`` charges the frozen per-job fraction of the
    split through the build cost model and books the ``build.*``
    counters. When every target is fully covered the frozen fractions
    are all zero and the stage charges nothing, so a finished build is
    indistinguishable from no builder.
    """

    def __init__(self, session: BuildSession) -> None:
        self.session = session
        self._records = 0

    def start(self, ctx: TaskContext) -> None:
        self._records = 0

    def consume(self, records, sizes, collector, ctx) -> None:
        collector.extend(records, sizes)
        self._records += len(records)

    def finish(self, collector: OutputCollector, ctx: TaskContext) -> None:
        session = self.session
        if self._records == 0:
            return
        for name in sorted(session.targets):
            frac = session._job_fraction.get(name, 0.0)
            built = int(frac * self._records)
            if built <= 0:
                continue
            seconds = session.model.incremental_build_time(built)
            t0 = ctx.charged_time
            ctx.charge(seconds)
            ctx.counters.increment("build", "records_indexed", built)
            ctx.counters.increment("build", "build_seconds", seconds)
            if ctx.trace is not None:
                ctx.trace.charged_span(
                    "build.increment",
                    "build",
                    t0,
                    ctx.charged_time,
                    DEPTH_DETAIL,
                    index=name,
                    records=built,
                )
            session.note_built(name, built, seconds)

    @property
    def name(self) -> str:
        return "IndexBuilderFn"
