"""Deterministic fault injection for the simulated cluster.

EFind's premise is that MapReduce jobs call out to *external* index
services -- Cassandra-like stores and pay-per-use cloud services
(Sections 3.1, 5.1) -- and real deployments of that pattern must survive
lookup failures, dead replicas, stragglers, and task crashes. This
module is the single source of injected misfortune: a seeded
:class:`FaultPlan` that the index layer, the scheduler, and the job
runner all consult, so a faulty run is exactly as reproducible as a
clean one.

Design rules:

* **Deterministic and order-independent.** Every random decision is a
  pure function of ``(seed, site, key, attempt)`` via
  :func:`repro.common.rng.make_rng`, so the same plan produces the same
  faults no matter which strategy (and hence lookup order) a run uses.
  The only stateful piece is the per-partition probe counter behind
  outage windows, which is deterministic given the call sequence.
* **Inert by default.** A component with no fault plan attached takes
  its original fast path; simulated times and outputs are bit-identical
  to a fault-free build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.rng import make_rng


@dataclass(frozen=True)
class RetryPolicy:
    """How an index client retries failed lookups.

    Backoff for retry ``n`` (1-based) is
    ``min(base_backoff * backoff_multiplier**(n-1), max_backoff)``,
    spread by ``+/- jitter`` (a fraction, drawn deterministically from
    the fault plan's seed). A timed-out attempt charges
    ``attempt_timeout`` of simulated time before the retry.
    """

    max_attempts: int = 4
    base_backoff: float = 50e-3
    backoff_multiplier: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.5
    attempt_timeout: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("retry policy needs at least one attempt")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff times cannot be negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")
        if self.attempt_timeout < 0:
            raise ValueError("attempt timeout cannot be negative")

    def nominal_backoff(self, retry: int) -> float:
        """Backoff before the ``retry``-th retry (1-based), un-jittered."""
        if retry < 1:
            raise ValueError("retries are numbered from 1")
        return min(
            self.base_backoff * self.backoff_multiplier ** (retry - 1),
            self.max_backoff,
        )


@dataclass(frozen=True)
class PartitionOutage:
    """One index partition is unavailable for a window of probes.

    The window is expressed in *probe counts* against that partition
    (every lookup attempt routed to the partition counts one probe, so
    retries make progress through a finite window). ``last_probe=None``
    means the outage never lifts.
    """

    index: str
    partition: int
    first_probe: int = 0
    last_probe: Optional[int] = None

    def covers(self, probe: int) -> bool:
        if probe < self.first_probe:
            return False
        return self.last_probe is None or probe <= self.last_probe


@dataclass(frozen=True)
class TaskCrash:
    """Crash one task after it has processed ``after_records`` records.

    The crash fires on the first ``attempts`` attempts of the task, so
    with ``attempts < repro.mapreduce.runtime.MAX_TASK_ATTEMPTS`` the
    re-executed task eventually succeeds (Hadoop's retry-up-to-4
    semantics).
    """

    task_id: str
    after_records: int
    attempts: int = 1


class FaultPlan:
    """A seeded schedule of failures for one simulated run.

    Knobs:

    * ``lookup_failure_rate`` / ``lookup_timeout_rate`` -- per-attempt
      probability that a lookup errors out / times out;
    * ``dead_hosts`` -- hosts that are down for the whole run (their
      task slots vanish and their index replicas fail over);
    * ``partition_outages`` -- probe-count windows during which a
      partition of a named index is unreachable;
    * ``straggler_factors`` -- per-host task-duration multipliers
      (>= 1.0) modelling slow nodes;
    * ``task_crashes`` -- per-task crash-on-Nth-record injections.
    """

    def __init__(
        self,
        seed: int = 0,
        lookup_failure_rate: float = 0.0,
        lookup_timeout_rate: float = 0.0,
        dead_hosts: Iterable[str] = (),
        partition_outages: Sequence[PartitionOutage] = (),
        straggler_factors: Optional[Mapping[str, float]] = None,
        task_crashes: Sequence[TaskCrash] = (),
    ):
        if lookup_failure_rate < 0 or lookup_timeout_rate < 0:
            raise ValueError("fault rates cannot be negative")
        if lookup_failure_rate + lookup_timeout_rate > 1.0:
            raise ValueError("combined lookup fault rate cannot exceed 1")
        self.seed = seed
        self.lookup_failure_rate = lookup_failure_rate
        self.lookup_timeout_rate = lookup_timeout_rate
        self.dead_hosts = frozenset(dead_hosts)
        self._straggler: Dict[str, float] = dict(straggler_factors or {})
        for host, factor in self._straggler.items():
            if factor < 1.0:
                raise ValueError(
                    f"straggler factor for {host!r} must be >= 1.0, got {factor}"
                )
        self._outages: Dict[Tuple[str, int], List[PartitionOutage]] = {}
        for outage in partition_outages:
            self._outages.setdefault((outage.index, outage.partition), []).append(
                outage
            )
        self._probe_counts: Dict[Tuple[str, int], int] = {}
        self._crashes: Dict[str, TaskCrash] = {}
        for crash in task_crashes:
            if crash.after_records < 0 or crash.attempts < 1:
                raise ValueError(f"malformed task crash spec: {crash}")
            self._crashes[crash.task_id] = crash

    # ------------------------------------------------------------------
    # Lookup-level faults
    # ------------------------------------------------------------------
    def lookup_fault(self, index_name: str, key, attempt: int) -> Optional[str]:
        """Fault verdict for one lookup attempt: ``None`` (healthy),
        ``"error"`` or ``"timeout"``.

        A pure function of ``(seed, index, key, attempt)``: a flaky key
        is flaky for every strategy, and a retry (higher ``attempt``)
        redraws its fate.
        """
        total = self.lookup_failure_rate + self.lookup_timeout_rate
        if total == 0.0:
            return None
        u = make_rng(self.seed, "lookup", index_name, key, attempt).random()
        if u < self.lookup_failure_rate:
            return "error"
        if u < total:
            return "timeout"
        return None

    def backoff_time(
        self, policy: RetryPolicy, index_name: str, key, retry: int
    ) -> float:
        """Jittered backoff before the ``retry``-th retry of ``key``."""
        nominal = policy.nominal_backoff(retry)
        if policy.jitter == 0.0 or nominal == 0.0:
            return nominal
        u = make_rng(self.seed, "backoff", index_name, key, retry).random()
        return nominal * (1.0 + policy.jitter * (2.0 * u - 1.0))

    # ------------------------------------------------------------------
    # Topology faults
    # ------------------------------------------------------------------
    def host_down(self, host: str) -> bool:
        return host in self.dead_hosts

    def partition_probe(self, index_name: str, partition: int) -> bool:
        """Record one probe of a partition; True if it is down right now."""
        key = (index_name, partition)
        outages = self._outages.get(key)
        if not outages:
            return False
        probe = self._probe_counts.get(key, 0)
        self._probe_counts[key] = probe + 1
        return any(o.covers(probe) for o in outages)

    def straggler_factor(self, host: str) -> float:
        return self._straggler.get(host, 1.0)

    # ------------------------------------------------------------------
    # Task faults
    # ------------------------------------------------------------------
    def task_crash(self, task_id: str, attempt: int) -> Optional[int]:
        """Records processed before ``task_id``'s ``attempt``-th attempt
        crashes, or None if this attempt survives."""
        crash = self._crashes.get(task_id)
        if crash is not None and attempt < crash.attempts:
            return crash.after_records
        return None

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan(seed={self.seed}, fail={self.lookup_failure_rate:g}, "
            f"timeout={self.lookup_timeout_rate:g}, "
            f"dead={sorted(self.dead_hosts)}, "
            f"outages={sum(len(v) for v in self._outages.values())}, "
            f"stragglers={len(self._straggler)}, crashes={len(self._crashes)})"
        )
