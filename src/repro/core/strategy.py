"""Strategy execution: the chained functions and reducers that a plan
compiles into.

Wire format. Where an operator's dataflow crosses a shuffle, between
its ``preProcess`` and ``postProcess``, the record value is a *carrier*
tuple::

    (k1, ("EFc", v1, ikl, ivl))

where ``ikl`` is a tuple of per-index key tuples and ``ivl`` a tuple of
per-index result tuples (``None`` until the index has been looked up).
This mirrors the paper's intermediate form
``(k1, v1, {{ik_1}, {iv_1}, ..., {ik_m}, {iv_m})``; within one stage the
same form travels as parallel lists (:class:`OperatorStage`).

Lookup charging. A lookup from a node hosting the key's index partition
costs ``T_j``; from anywhere else it additionally pays the network
transfer ``(Sik + Siv)/BW``. Cache-strategy lookups pay a ``T_cache``
probe first and the full cost only on a miss.

Every lookup resolves its keys through one :class:`LookupPipeline`
(tier walk, fetch, accounting); the stages differ in the tiers they
enable and in how they emit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, List, Optional, Tuple

from repro.common.errors import DataFlowError, PlanningError
from repro.common.sizing import sizeof, sizeof_pair
from repro.core.accessor import IndexAccessor
from repro.core.cache import LRUCache, ShadowCache
from repro.core.operator import IndexInput, IndexOperator, IndexOutput
from repro.core.statistics import OperatorStatsAccumulator
from repro.mapreduce.api import (
    OutputCollector,
    Partitioner,
    Reducer,
    StreamStage,
    TaskContext,
)
from repro.obs.trace import DEPTH_DETAIL, DEPTH_OP

_CARRIER_TAG = "EFc"

# The fixed parts of a carrier's wire size, asked of the model rather
# than spelled out here: a stage that only re-wraps a pair computes the
# size of what it emits from these and the sizes of the parts that
# changed, instead of walking the whole pair again (DESIGN.md 5.12).
_HEADER_BYTES = sizeof(())  # an empty container
_CARRIER_BYTES = sizeof((_CARRIER_TAG,))  # the carrier's own header + tag
_NONE_BYTES = sizeof(None)  # a result slot no lookup has filled yet
_NUMBER_BYTES = sizeof(0)  # one exact int or float, whatever its value
_ONE_NUMBER_BYTES = sizeof((0,))  # a key tuple of one exact int or float
_NUMBERS = (int, float)  # exact types only: ``bool`` and subclasses walk


def make_carrier(v1: Any, ikl: tuple, ivl: tuple) -> tuple:
    return (_CARRIER_TAG, v1, ikl, ivl)


def open_carrier(value: Any) -> Tuple[Any, tuple, tuple]:
    if isinstance(value, tuple) and len(value) == 4:
        tag, v1, ikl, ivl = value
        if tag == _CARRIER_TAG:
            return v1, ikl, ivl
    raise TypeError(f"expected an EFind carrier record, got {value!r}")


_NO_MEMO = object()


@dataclass(frozen=True)
class LookupSettings:
    """The run-wide settings every lookup stage of a run shares. Built
    once in ``EFindRunner.__init__`` and handed whole through compiler,
    stages and pipeline (and to Algorithm 1), so a new run feature is
    one field here rather than a keyword in every layer between."""

    #: Entries per node-local lookup cache (the paper fixes 1024).
    cache_capacity: int = 1024
    #: Records parked per multiget; 1 fetches every missing key at once.
    batch_size: int = 1
    #: Cross-job :class:`repro.core.reuse.ReuseStore`, or None.
    reuse: Any = None
    #: :class:`repro.indices.build.BuildSession` of an index still being
    #: built in-job, or None.
    build: Any = None

    def __post_init__(self) -> None:
        # Checked here, before any job runs: a bad value would otherwise
        # surface mid-job, or be silently rounded.
        for name in ("cache_capacity", "batch_size"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")


class LookupPipeline:
    """The lookup path of one index, shared by every strategy.

    A key walks the tiers in front of the index, in this order, and is
    fetched only when none of them holds it:

    1. *build gate* (``build``, a ``BuildSession``): a key the partial
       index does not cover yet is served by a scan-assisted lookup at
       ``scan_multiplier * T_j`` and touches no other tier -- it has no
       indexed entry for a memo or cache to hold;
    2. *adjacent-dedup memo* (``dedup_adjacent``): after a
       re-partitioning shuffle equal keys arrive adjacently;
    3. *node-local LRU* (``use_cache``; one per machine, ``T_cache`` per
       probe) or, for the baseline, a keys-only *shadow* (``shadow``)
       that estimates the miss ratio R without saving any work;
    4. *cross-job ReuseStore* (``reuse``): probes charge zero simulated
       time, so a cold store charges exactly what no store does;
    5. the index, through :meth:`fetch_one` (one key) or :meth:`fetch`
       (a multiget) -- the only places a lookup is charged and
       counted.

    Whatever resolves a key sizes its values once, by their index
    (``result_bytes``): a fetch, a scan or a ReuseStore hit. The size
    then travels beside the values -- in the LRU entry, the memo and
    :attr:`fetched_bytes` -- and :attr:`nbytes` holds it for the key
    :meth:`lookup` (or :meth:`probe`, :meth:`fetch_one`) just resolved,
    so a stage fills a result slot without walking the result again.
    A carried size goes stale only if its values do, which the LRU and
    the memo already rule out (lookups are idempotent, Section 3.2).

    ``batch_size`` decides only *when* the fetch is issued and whether
    it may be a multiget. At 1 each missing key is fetched at once by a
    single ``IndexAccessor.lookup``. Above 1 missing keys wait (hits
    still resolve immediately) until ``batch_size`` records are parked,
    then one ``lookup_batch`` resolves them all; a probe of a key that
    is already waiting records the hit it would have seen had the key
    been fetched on arrival, so ``cache.*``/``reuse.*`` counters and
    the statistics samples do not depend on ``batch_size``.
    """

    def __init__(
        self,
        operator: IndexOperator,
        operator_id: str,
        index_id: int,
        stats: Optional[OperatorStatsAccumulator],
        settings: LookupSettings,
        use_cache: bool = False,
        shadow: bool = False,
        dedup_adjacent: bool = False,
        assume_local: bool = False,
        walk_span: bool = False,
    ):
        self.operator_id = operator_id
        self.index_id = index_id
        self.accessor: IndexAccessor = operator.accessors[index_id]
        # What serves a key and names the hosts holding it, and what
        # sizes its results: each looked up once, as the accessor hands
        # them out.
        self._serve = self.accessor.serve
        self.result_bytes = self.accessor.result_bytes
        self.stats = stats
        self.batch_size = settings.batch_size
        self.reuse = settings.reuse
        self.build = settings.build
        self.use_cache = use_cache
        self.shadow = shadow
        self.dedup_adjacent = dedup_adjacent
        self.assume_local = assume_local
        # Trace shape only: at batch_size 1 a key's ``lookup`` op span
        # covers its whole walk (map-side stages, whose probes charge
        # time) or the fetch alone (reduce side: nothing charged before).
        self.walk_span = walk_span
        self.cache_capacity = settings.cache_capacity
        self._node_caches: dict = {}  # hostname -> LRUCache | ShadowCache
        self.reset()

    def reset(self) -> None:
        """Drop per-task state. The runtime shares one stage instance
        across task attempts, so a retried task must not inherit the
        crashed attempt's memo or its parked records."""
        self._memo_key: Any = _NO_MEMO
        self._memo_values: Tuple[Any, ...] = ()
        self._memo_bytes = 0
        #: Size of the values the last resolved key returned.
        self.nbytes = 0
        #: ``{ik: size}`` of the values the last :meth:`fetch` returned.
        self.fetched_bytes: dict = {}
        self._prev_ik: Any = _NO_MEMO
        self._pending: dict = {}  # waiting keys, in arrival order
        self._parked: list = []
        self._ctx: Optional[TaskContext] = None  # the attempt bound, if any

    def _bind(self, ctx: TaskContext) -> None:
        """Resolve, on a task attempt's first probe or fetch, what stays
        the same for all of its lookups: its host and that host's LRU or
        shadow, the index's ``T_j`` and the time model's charges, and
        whether the fault plan has dead hosts. An attempt is told by its
        context, not its task id -- a retry runs through the same stage
        instances, maybe on another node -- and ``process`` may be
        called without ``start``."""
        self._ctx = ctx
        self._host = host = ctx.node.hostname
        self._sample = self._stat = None
        self._counts = None  # its "lookup" counters, opened by a fetch
        tm = ctx.time_model
        self._tj = tj = self.accessor.service_time()
        self._local_time = tm.local_lookup_time(tj)
        self._remote_time = tm.remote_lookup_time
        self._probe_time = tm.cache_probe_time
        plan = getattr(self.accessor.index, "fault_plan", None)
        self._dead_hosts = plan is not None and bool(plan.dead_hosts)
        self._cache = None
        if self.use_cache or self.shadow:
            cache = self._node_caches.get(host)
            if cache is None:
                cls = LRUCache if self.use_cache else ShadowCache
                cache = self._node_caches[host] = cls(self.cache_capacity)
            self._cache = cache

    def task_sample(self, ctx: TaskContext):
        """The running attempt's ``TaskSample`` (statistics attached
        only). It is looked up in the accumulator on the attempt's first
        statistic -- where ``sample_for`` always was called, so samples
        are created in the order they always were -- and then kept,
        with its ``IndexSample`` for this index as ``_stat``."""
        if ctx is not self._ctx:
            self._bind(ctx)
        sample = self._sample
        if sample is None:
            sample = self._sample = self.stats.sample_for(ctx.task_id)
            self._stat = sample.index[self.index_id]
        return sample

    def _index_stat(self, ctx: TaskContext):
        """This index's ``IndexSample`` of the running attempt."""
        return self._stat or self.task_sample(ctx).index[self.index_id]

    def lookup(self, ik: Any, ctx: TaskContext) -> Optional[Tuple[Any, ...]]:
        """Resolve ``ik`` to its value tuple; None (``batch_size > 1``
        only) when the key now waits for the next :meth:`drain`."""
        t0 = ctx.charged_time
        values = self.probe(ik, ctx)
        if values is None:
            if self.batch_size > 1:
                self._pending[ik] = None
                return None
            values = self.fetch_one(ik, ctx)
        if ctx.trace is not None and self.walk_span and self.batch_size == 1:
            ctx.trace.charged_span(
                "lookup", "op", t0, ctx.charged_time, DEPTH_OP,
                op=self.operator_id, index=self.index_id,
            )
        return values

    def park(self, waiter: Any) -> bool:
        """Hold a record (or reduce group) whose keys are waiting; True
        once ``batch_size`` of them are parked and a drain is due."""
        self._parked.append(waiter)
        return len(self._parked) >= self.batch_size

    def drain(self, ctx: TaskContext, finishing: bool = False):
        """Resolve every waiting key with one multiget. Returns the
        ``{ik: values}`` results and the parked waiters, in arrival
        order."""
        if not self._parked:
            return {}, []
        if finishing:
            ctx.counters.increment("batch", "flushes_on_finish")
        keys, parked = list(self._pending), self._parked
        self._pending, self._parked = {}, []
        return self.fetch(keys, ctx, records=len(parked)), parked

    def probe(self, ik: Any, ctx: TaskContext) -> Optional[Tuple[Any, ...]]:
        """Walk the tiers in front of the index: the value tuple when
        one of them (or a scan) resolves ``ik``, None when it must be
        fetched. Charges and statistics do not depend on whether the
        fetch then happens now or at the next drain."""
        if ctx is not self._ctx:
            self._bind(ctx)
        if self.build is not None and self._uncovered(ik, ctx):
            # Scans resolve at once and leave the memo (and what counts
            # as the previous arrival) untouched.
            return self._scan(ik, ctx)
        prev, self._prev_ik = self._prev_ik, ik
        pending = ik in self._pending
        if self.dedup_adjacent and ik == prev:
            # The memo holds the previous arrival, so only an *adjacent*
            # duplicate may consult it. (While prev's fetch is still
            # waiting the memo lags behind ``prev`` -- gating on ``prev``
            # keeps a stale memo key from faking adjacency.)
            if ik == self._memo_key:
                self.nbytes = self._memo_bytes
                return self._memo_values
            if pending:
                # Adjacent duplicate of a waiting key: the memo would
                # serve it without probing anything, so record nothing
                # and charge nothing; the drain resolves its slot.
                return None
        cache = self._cache
        if self.use_cache:
            ctx.charge(self._probe_time)
            # A waiting key would be in the LRU by now had it been
            # fetched on arrival: record that hit, resolve at the drain.
            hit, cached = (True, None) if pending else cache.get(ik)
            if self.stats is not None:
                stat = self._stat or self._index_stat(ctx)
                stat.cache_probes += 1
                if not hit:
                    stat.cache_misses += 1
            if ctx.trace is not None:
                ctx.trace.charged_span(
                    "cache.probe", "cache",
                    ctx.charged_time - self._probe_time, ctx.charged_time,
                    DEPTH_DETAIL, hit=hit, **({"pending": True} if pending else {}),
                )
            if pending:
                return None
            if hit:
                values, nbytes = cached
                return self._remember(ik, values, nbytes)
        elif cache is not None:
            # Baseline: the shadow estimates R (Section 4.2), counting
            # only probes past its warm-up. The post-shuffle dedup leg
            # and the reduce side have none: their grouped key stream
            # is not representative of the original one.
            hit = cache.probe(ik)
            if cache.warmed and self.stats is not None:
                stat = self._stat or self._index_stat(ctx)
                stat.cache_probes += 1
                if not hit:
                    stat.cache_misses += 1
        if self.reuse is None:
            return None
        # ``pending`` can only still be set on the LRU-less walk, where
        # the store is the tier that would hold the waiting key.
        values = self._reuse_probe(ik, ctx, pending)
        if values is None:
            return None
        nbytes = self.result_bytes(values)
        if self.use_cache:
            # Insert only after a validated reuse hit (or, in fetch, a
            # *successful* fetch): a terminal lookup failure must not
            # poison the shared node-local LRU -- a retried task would
            # otherwise see the bogus entry.
            cache.put(ik, (values, nbytes))
        return self._remember(ik, values, nbytes)

    def _remember(self, ik: Any, values: Tuple[Any, ...], nbytes: int) -> tuple:
        self.nbytes = nbytes
        if self.dedup_adjacent:
            self._memo_key = ik
            self._memo_values = values
            self._memo_bytes = nbytes
        return values

    # ------------------------------------------------------------------
    # The fetch: the one charge / count / sample site
    # ------------------------------------------------------------------
    def fetch_one(self, ik: Any, ctx: TaskContext) -> Tuple[Any, ...]:
        """Fetch ``ik`` with one serve of the index -- its values and
        the live hosts holding it, from one locating of the key --
        charged ``T_j``, plus the key/result transfer ``(Sik + Siv)/BW``
        when it is served remotely, then settled in the same pass:
        counters, trace spans, the Table-1 sample, reuse admission, LRU
        insert, adjacent-dedup memo. The result is sized once, by its
        index (``result_bytes``), for the transfer charge, the Siv
        sample and the slot it fills (:attr:`nbytes`) alike."""
        if ctx is not self._ctx:
            self._bind(ctx)
        t0 = ctx.charged_time
        values, hosts = self._serve(ik, ctx)
        self.nbytes = siv = self.result_bytes(values)
        if not self.assume_local:
            local = self._host in hosts
        else:
            local = not self._dead_hosts or self._still_local(hosts, ctx)
        if local:
            ctx.charge(self._local_time)
        else:
            ctx.charge(self._remote_time(
                _NUMBER_BYTES if type(ik) in _NUMBERS else sizeof(ik), siv, self._tj
            ))
        counts = self._counts
        if counts is None:
            counts = self._counts = ctx.counters.bucket("lookup")
        counts["fetches"] = counts.get("fetches", 0.0) + 1
        counts["fetch_seconds"] = (
            counts.get("fetch_seconds", 0.0) + (ctx.charged_time - t0)
        )
        trace = ctx.trace
        if trace is not None:
            if not self.walk_span:
                trace.charged_span(
                    "lookup", "op", t0, ctx.charged_time, DEPTH_OP,
                    op=self.operator_id, index=self.index_id, local=local,
                )
            trace.charged_span(
                "index.fetch", "op", t0, ctx.charged_time, DEPTH_DETAIL,
                index=self.index_id, local=local,
            )
        if self.stats is not None:
            stat = self._stat or self._index_stat(ctx)
            stat.lookups += 1
            stat.tj_total += self._tj
            stat.tj_samples += 1
            stat.siv_bytes += siv
        if self.reuse is not None:
            self._admit(ctx, ik, values)
        if self.use_cache:
            self._cache.put(ik, (values, siv))
        if self.dedup_adjacent:
            # The memo holds the *last arrival's* key; a last arrival
            # that had to be fetched is installed here.
            prev = self._prev_ik
            if ik is prev or ik == prev:
                self._memo_key, self._memo_values = prev, values
                self._memo_bytes = siv
        return values

    def fetch(self, keys, ctx: TaskContext, records: int = 1):
        """Fetch ``keys`` from the index with one ``lookup_batch``
        request for all of them, on behalf of ``records`` parked
        records; returns ``{ik: values}``, their sizes left in
        :attr:`fetched_bytes`.

        Charging: keys are split into local and remote (the
        re-partitioning and index-locality legs batch within their
        local partition, so locality is never broken). A multiget on an
        index with a native one is charged the amortised
        ``C_req + B*C_key`` per group and a single network latency; the
        loop an index without native multiget falls back to pays what
        single lookups pay, per key.
        """
        if ctx is not self._ctx:
            self._bind(ctx)
        tm = ctx.time_model
        accessor = self.accessor
        t0 = ctx.charged_time
        results = {
            ik: tuple(vs) for ik, vs in zip(keys, accessor.lookup_batch(keys, ctx))
        }
        tj = self._tj

        local_keys: List[Any] = []
        remote_keys: List[Any] = []
        for ik in keys:
            if not self.assume_local:
                local = self._host in accessor.hosts_for_key(ik)
            else:
                local = not self._dead_hosts or self._still_local(
                    accessor.hosts_for_key(ik), ctx
                )
            (local_keys if local else remote_keys).append(ik)
        # Each result is sized once, for the transfer charge, the Siv
        # sample and the slots it fills alike.
        result_bytes = self.result_bytes
        self.fetched_bytes = siv = {ik: result_bytes(vs) for ik, vs in results.items()}

        ctx.counters.increment("batch", "batches_issued")
        ctx.counters.increment("batch", "keys_batched", len(keys))
        groups = None  # key groups charged as native multigets
        if accessor.supports_batch:
            groups = (1 if local_keys else 0) + (1 if remote_keys else 0)
            batch_time = accessor.batch_service_time
            if local_keys:
                ctx.charge(tm.local_batch_lookup_time(batch_time(len(local_keys))))
            if remote_keys:
                ctx.charge(
                    tm.remote_batch_lookup_time(
                        sum(map(sizeof, remote_keys)),
                        sum(siv[ik] for ik in remote_keys),
                        batch_time(len(remote_keys)),
                    )
                )
        else:
            for ik in local_keys:
                ctx.charge(self._local_time)
            for ik in remote_keys:
                ctx.charge(self._remote_time(sizeof(ik), siv[ik], tj))
        self._settle(ctx, t0, keys, results, records, groups)
        return results

    def _settle(self, ctx, t0: float, keys, results, records: int, groups) -> None:
        """What follows a multiget's answer for ``records`` parked
        records (``groups`` key groups charged as native multigets, None
        on an index without one): counters, trace span, the Table-1
        sample, reuse admission, LRU insert, adjacent-dedup memo, key by
        key as :meth:`fetch_one` settles one."""
        accessor = self.accessor
        n = len(keys)
        siv = self.fetched_bytes
        ctx.counters.increment("lookup", "fetches", n)
        ctx.counters.increment("lookup", "fetch_seconds", ctx.charged_time - t0)
        if ctx.trace is not None:
            ctx.trace.charged_span(
                "lookup.batch", "op", t0, ctx.charged_time, DEPTH_OP,
                op=self.operator_id, index=self.index_id,
                keys=n, records=records, native=accessor.supports_batch,
            )
        if self.stats is not None:
            tj = self._tj
            stat = self._index_stat(ctx)
            stat.lookups += n
            stat.tj_total += tj * n
            stat.tj_samples += n
            stat.siv_bytes += sum(siv.values())
            if groups is not None:
                stat.batches += groups
                stat.batch_keys += n
                stat.c_req_total += groups * accessor.batch_request_overhead()
                stat.c_key_total += n * accessor.batch_key_time()
        if self.reuse is not None:
            for ik in keys:
                self._admit(ctx, ik, results[ik])
        if self.use_cache:
            cache = self._cache
            for ik in keys:
                cache.put(ik, (results[ik], siv[ik]))
        if self.dedup_adjacent:
            # As in fetch_one: the last arrival, if it was fetched here.
            prev = self._prev_ik
            for ik in keys:
                if ik is prev or ik == prev:
                    self._memo_key, self._memo_values = prev, results[ik]
                    self._memo_bytes = siv[ik]
                    break

    def _admit(self, ctx, ik, values) -> None:
        """Admit one fetched result to the cross-job store."""
        evicted = self.reuse.admit(self._host, self.accessor, ik, values)
        ctx.counters.increment("reuse", "admitted")
        if evicted:
            ctx.counters.increment("reuse", "evicted", evicted)

    def _still_local(self, hosts, ctx: TaskContext) -> bool:
        """Under index locality, with dead hosts in the fault plan: is
        the replica this task was scheduled onto still alive? ``hosts``
        lists live hosts only, so a task whose replica has since died
        falls back to a remote lookup against a surviving one."""
        if hosts and self._host not in hosts:
            ctx.counters.increment("fault", "locality_fallbacks")
            return False
        return True

    # ------------------------------------------------------------------
    # Tier plumbing: reuse probe, build gate
    # ------------------------------------------------------------------
    def _reuse_probe(self, ik, ctx, pending: bool = False):
        """Probe the cross-job store; the value tuple on a hit, else
        None (misses and stale drops both fetch). A ``pending`` key --
        already waiting for the next drain -- would have been fetched
        and admitted by now had it not waited: count that deferred hit
        without touching the store, so ``reuse.*`` does not depend on
        ``batch_size``, and leave the key to the drain."""
        if pending:
            hit, values, stale = True, None, False
        else:
            hit, values, stale = self.reuse.probe(self._host, self.accessor, ik)
        ctx.counters.increment("reuse", "probes")
        if stale:
            ctx.counters.increment("reuse", "stale_drops")
        ctx.counters.increment("reuse", "hits" if hit else "misses")
        if self.stats is not None:
            stat = self._index_stat(ctx)
            stat.reuse_probes += 1
            if hit:
                stat.reuse_hits += 1
        if ctx.trace is not None:
            ctx.trace.charged_instant(
                "reuse.probe", "cache", ctx.charged_time, DEPTH_DETAIL,
                hit=hit, index=self.index_id, **({"pending": True} if pending else {}),
            )
        return tuple(values) if hit and not pending else None

    def _uncovered(self, ik, ctx) -> bool:
        """True when the partial index does not cover ``ik`` yet; also
        records the per-task coverage observation either way. Coverage
        checks charge zero simulated time."""
        covered = self.build.covered(self.accessor.name, ik)
        if covered:
            ctx.counters.increment("build", "indexed_lookups")
            if self.stats is not None:
                self._index_stat(ctx).build_covered += 1
        return not covered

    def _scan(self, ik, ctx) -> Tuple[Any, ...]:
        """Serve an uncovered key by scanning the unindexed partition
        remainder: same values, same fault semantics,
        ``scan_multiplier * T_j`` service time."""
        t0 = ctx.charged_time
        values, hosts = self._serve(ik, ctx)
        tj_scan = self._tj * self.build.scan_multiplier(self.accessor.name)
        local = self._host in hosts
        self.nbytes = nbytes = self.result_bytes(values)
        if local:
            ctx.charge(ctx.time_model.local_lookup_time(tj_scan))
        else:
            ctx.charge(self._remote_time(sizeof(ik), nbytes, tj_scan))
        ctx.counters.increment("build", "unindexed_lookups")
        ctx.counters.increment("build", "scan_seconds", ctx.charged_time - t0)
        if ctx.trace is not None:
            ctx.trace.charged_span(
                "build.scan_lookup", "op", t0, ctx.charged_time, DEPTH_DETAIL,
                index=self.index_id, local=local,
            )
        if self.stats is not None:
            stat = self._index_stat(ctx)
            stat.build_scanned += 1
            stat.build_scan_tj_total += tj_scan
        return values


class _Stream:
    """Records between two phases of a stage: ``(k1, v1, {ik}, {iv})`` as
    parallel lists, and each record's wire size as a carrier pair."""

    __slots__ = ("keys", "values", "ikls", "ivls", "sizes")

    def __init__(self, *columns):
        self.keys, self.values, self.ikls, self.ivls, self.sizes = (
            columns or ([], [], [], [], [])
        )


class OperatorStage(StreamStage):
    """One chain segment of an operator as one stage (DESIGN.md 5.13).

    The segment starts with ``pre_process`` (``pre``: records in) or
    after a shuffle (carriers in), runs its chain's lookups -- one
    :class:`LookupPipeline` each: node-local LRU (``use_cache``) or a
    shadow cache that estimates R, adjacent-duplicate memo after a
    re-partitioning shuffle (``dedup_adjacent``), index locality
    (``assume_local``) -- and ends with ``post_process`` (``post``:
    pairs out) or at a cut (carriers out, for :class:`KeyByIkFn`).
    ``consume`` takes each phase over its stream before the next, as
    chained stages would, a lookup phase draining what it parked at its
    end, so statistics, charges and emissions keep their order; between
    phases the records travel as a :class:`_Stream`, not as carriers.
    One record at a time (``process``), the last lookup phase keeps what
    it parked until the batch fills or ``finish``."""

    def __init__(self, operator: IndexOperator, operator_id: str,
                 stats: Optional[OperatorStatsAccumulator] = None,
                 pre: bool = False, post: bool = False):
        self.operator, self.operator_id, self.stats = operator, operator_id, stats
        self.pre, self.post = pre, post
        #: ``(pipeline, record_sidx)`` per lookup phase, in chain order;
        #: ``record_sidx`` marks the operator's last lookup (Sidx).
        self.lookups: List[Tuple[LookupPipeline, bool]] = []

    def add_lookup(self, index_id: int, settings: LookupSettings, use_cache=False,
                   dedup_adjacent=False, assume_local=False, record_sidx=False):
        self.lookups.append((LookupPipeline(
            self.operator, self.operator_id, index_id, self.stats, settings,
            use_cache=use_cache, shadow=not use_cache and not dedup_adjacent,
            dedup_adjacent=dedup_adjacent, assume_local=assume_local, walk_span=True,
        ), record_sidx))

    def start(self, ctx):
        for pipeline, _ in self.lookups:
            pipeline.reset()

    def process(self, key, value, collector, ctx):
        nbytes = ctx.input_bytes
        if nbytes is None:  # called outside a chain: sized here, once
            nbytes = sizeof_pair(key, value)
        self.consume(((key, value),), (nbytes,), collector, ctx, drain_last=False)

    def consume(self, records, sizes, collector, ctx, drain_last=True):
        if not records:
            return  # an empty split binds nothing and opens no sample
        stream = _Stream() if self.pre else _open(records, sizes)
        if self.pre:
            try:
                self._pre_process(records, sizes, stream, ctx)
            finally:
                if not (self.lookups or self.post):
                    _hand_out(stream, collector)
        self._on(stream, collector, ctx, drain_last=drain_last)

    def finish(self, collector, ctx):
        if self.lookups:  # drain the last lookup phase, and go on from it
            self._on(_Stream(), collector, ctx, len(self.lookups) - 1, True)

    def _on(self, stream, collector, ctx, first=0, drain_last=False):
        """Run ``stream`` through the lookup phases from ``first`` on, then
        ``post_process`` or out as carriers."""
        last = len(self.lookups) - 1
        for p in range(first, last + 1):
            stream, src = _Stream(), stream
            try:
                self._lookup(*self.lookups[p], src, stream, ctx, p < last or drain_last)
            finally:
                if p == last and not self.post:
                    _hand_out(stream, collector)
        if self.post:
            self._post_process(stream, collector, ctx)

    def _pre_process(self, records, sizes, out: _Stream, ctx) -> None:
        """``IndexOperator.pre_process`` over the stream; also where the
        preProcess counters of Section 4.2 (N1, S1, Nik_j, Sik_j, Spre)
        and the FM sketches over lookup keys are collected."""
        pre_process = self.operator.pre_process
        m = self.operator.num_indices
        one_index = m == 1
        new_input, no_lists = IndexInput.__new__, ((),) * m
        no_values = (None,) * m
        # All of a fresh carrier pair but (k1, v1) and the key tuples.
        fixed_bytes = _CARRIER_BYTES + _HEADER_BYTES + sizeof(no_values)
        stats = self.stats
        # Exact integers, added to the sample once per stream: key tuple
        # sizes per record and index (what a record that died part-way
        # listed is cut off at the end), and where in them a tuple of more
        # than one key sits -- a record a shuffle strategy could not key
        # (its record and index: the position's quotient and remainder by m).
        key_bytes: List[int] = []
        note_key_bytes, wide = key_bytes.append, []
        add_key, add_value = out.keys.append, out.values.append
        add_ikl, add_size = out.ikls.append, out.sizes.append
        try:
            for (key, value), s1 in zip(records, sizes):
                # A fresh view over key lists this stage owns; no __init__.
                lists = [[]] if one_index else list(map(list, no_lists))
                index_input = new_input(IndexInput)
                index_input._keys = lists
                returned = pre_process(key, value, index_input)
                try:  # a tuple or list of two, never a string "ab" unpacked
                    if type(returned) is not tuple and not isinstance(
                        returned, (tuple, list)
                    ):
                        raise TypeError
                    out_key, out_value = returned
                except (TypeError, ValueError):
                    raise DataFlowError(
                        f"pre_process of {self.operator_id} must return the "
                        f"(key, value) pair to carry on; for input key {key!r} "
                        f"it returned {returned!r}"
                    ) from None
                ikl = (tuple(lists[0]),) if one_index else tuple(map(tuple, lists))

                # The carrier pair is sized from its parts: S1 stands for
                # (k1, v1) when pre_process handed the very objects back,
                # and each index's key tuple is sized once, for the
                # carrier and for Sik alike.
                nbytes = (
                    s1 if out_key is key and out_value is value
                    else sizeof_pair(out_key, out_value)
                ) + fixed_bytes
                for keys in ikl:
                    # header + Sik_j; one number is a constant of the model.
                    if not keys:
                        kb = _HEADER_BYTES
                    elif len(keys) == 1 and type(keys[0]) in _NUMBERS:
                        kb = _ONE_NUMBER_BYTES
                    else:
                        kb = sizeof(keys)
                        if len(keys) > 1:
                            wide.append(len(key_bytes))
                    nbytes += kb
                    note_key_bytes(kb)
                add_key(out_key)
                add_value(out_value)
                add_ikl(ikl)
                add_size(nbytes)
        finally:
            n = len(out.sizes)
            out.ivls = [no_values] * n
            if stats is not None and n:
                sample = stats.sample_for(ctx.task_id)
                sample.n1 += n
                sample.s1_bytes += sum(sizes[:n])  # S1 of the records emitted
                sample.spre_bytes += sum(out.sizes)
                # Nik, Sik and the FM sketches from what was emitted: OR
                # is order-free, so a sketch may take its keys in one go.
                for j in range(m):
                    iks = [ik for ikl in out.ikls for ik in ikl[j]]
                    if iks:
                        stats.fm[j].add_all(iks)
                        stat = sample.index[j]
                        stat.nik += len(iks)
                        stat.sik_bytes += (
                            sum(key_bytes[j : n * m : m]) - n * _HEADER_BYTES
                        )
                for position in wide:
                    if position < n * m:
                        sample.index[position % m].multi_key_records += 1

    def _lookup(self, pipeline, record_sidx, src: _Stream, out: _Stream, ctx, finishing):
        """One index's lookups. A record with a waiting key goes on at the
        drain, so only at ``batch_size > 1`` may records leave out of order."""
        j = pipeline.index_id
        lookup = pipeline.lookup
        parks = pipeline.batch_size > 1
        emit_ivl, emit_size = out.ivls.append, out.sizes.append
        try:
            for key, v1, ikl, ivl, in_bytes in zip(
                src.keys, src.values, src.ikls, src.ivls, src.sizes
            ):
                keys = ikl[j]
                if len(keys) == 1:
                    values = lookup(keys[0], ctx)
                    results = (values,)
                    waiting = values is None
                    results_bytes = 0 if waiting else pipeline.nbytes
                elif not keys:
                    results, waiting, results_bytes = (), False, 0
                else:
                    resolved, waiting, results_bytes = [], False, 0
                    for ik in keys:
                        values = lookup(ik, ctx)
                        if values is None:
                            waiting = True
                        else:
                            results_bytes += pipeline.nbytes
                        resolved.append(values)
                    results = tuple(resolved)
                if waiting:
                    # A key waits for the next multiget: park the record,
                    # its input size and its resolved results' with it.
                    if pipeline.park(
                        (key, v1, ikl, ivl, results, in_bytes, results_bytes)
                    ):
                        _drain(pipeline, out, ctx)
                    continue
                old = ivl[j]
                emit_ivl((results,) if len(ivl) == 1
                         else ivl[:j] + (results,) + ivl[j + 1 :])
                emit_size(
                    in_bytes + _HEADER_BYTES + results_bytes
                    - (_NONE_BYTES if old is None else sizeof(old))
                )
                if parks:
                    out.keys.append(key)
                    out.values.append(v1)
                    out.ikls.append(ikl)
            if finishing:
                _drain(pipeline, out, ctx, finishing=True)
        finally:
            if not parks:
                n = len(out.sizes)
                out.keys, out.values, out.ikls = (
                    src.keys[:n], src.values[:n], src.ikls[:n]
                )
            if record_sidx and pipeline.stats is not None and out.sizes:
                pipeline.task_sample(ctx).sidx_bytes += sum(out.sizes)

    def _post_process(self, src: _Stream, collector, ctx) -> None:
        """``IndexOperator.post_process`` over the stream."""
        post_process = self.operator.post_process
        new_output = IndexOutput.__new__
        before_bytes = collector.bytes
        done_bytes = None  # ``collector.bytes`` after the last whole record
        try:
            for key, v1, ikl, ivl in zip(src.keys, src.values, src.ikls, src.ivls):
                # A fresh view over the record's own tuples; no __init__.
                index_output = new_output(IndexOutput)
                index_output._iklists = ikl
                index_output._ivlists = ivl
                post_process(key, v1, index_output, collector)
                done_bytes = collector.bytes
        finally:
            if self.stats is not None and done_bytes is not None:
                # Only the user's post_process emits meanwhile, through
                # ``collect``: Spost is the delta across the records it
                # got through. No such record, no sample.
                self.stats.sample_for(ctx.task_id).spost_bytes += (
                    done_bytes - before_bytes
                )

    @property
    def phases(self) -> List[str]:
        """The phases' names, in the order they run."""
        op = self.operator_id
        names = [f"pre[{op}]"] if self.pre else []
        for p, _ in self.lookups:
            mode = ("idxloc" if p.assume_local else "repart" if p.dedup_adjacent
                    else "cache" if p.use_cache else "base")
            names.append(f"idx[{op}.{p.index_id}:{mode}]")
        return names + [f"post[{op}]"] if self.post else names

    @property
    def name(self) -> str:
        return " -> ".join(self.phases)


def _open(records, sizes) -> _Stream:
    """The carriers a stage reads after a shuffle, checked on entry."""
    keys, carriers = zip(*records)
    if set(map(type, carriers)) != {tuple} or set(map(len, carriers)) != {4}:
        for value in carriers:
            open_carrier(value)  # raises, but for a carrier-shaped subclass
    tags, values, ikls, ivls = zip(*carriers)
    if tags.count(_CARRIER_TAG) != len(tags):
        for value in carriers:
            open_carrier(value)  # raises
    return _Stream(keys, values, ikls, ivls, sizes)


def _drain(pipeline: LookupPipeline, out: _Stream, ctx, finishing: bool = False):
    """Fetch what the records parked in ``pipeline`` wait for and send
    them on, in arrival order."""
    j = pipeline.index_id
    fetched, parked = pipeline.drain(ctx, finishing)
    fetched_bytes = pipeline.fetched_bytes
    for key, v1, ikl, ivl, partial, in_bytes, results_bytes in parked:
        results = tuple(
            fetched[ik] if vs is None else vs for ik, vs in zip(ikl[j], partial)
        )
        results_bytes += sum(
            fetched_bytes[ik] for ik, vs in zip(ikl[j], partial) if vs is None
        )
        old = ivl[j]
        out.keys.append(key)
        out.values.append(v1)
        out.ikls.append(ikl)
        out.ivls.append((results,) if len(ivl) == 1
                        else ivl[:j] + (results,) + ivl[j + 1 :])
        out.sizes.append(
            in_bytes + _HEADER_BYTES + results_bytes
            - (_NONE_BYTES if old is None else sizeof(old))
        )


def _hand_out(stream: _Stream, collector: OutputCollector) -> None:
    """Give the collector the stream as carrier pairs: what crosses a cut."""
    carriers = zip(repeat(_CARRIER_TAG), stream.values, stream.ikls, stream.ivls)
    collector.extend(list(zip(stream.keys, carriers)), stream.sizes)


class PreProcessFn(OperatorStage):
    """``pre_process`` alone: records in, carriers out."""

    def __init__(self, operator, operator_id, stats=None):
        super().__init__(operator, operator_id, stats, pre=True)


class LookupFn(OperatorStage):
    """One index's lookups alone: carriers in and out."""

    def __init__(self, operator, operator_id, index_id, stats=None,
                 settings=LookupSettings(), **tiers):
        super().__init__(operator, operator_id, stats)
        self.add_lookup(index_id, settings, **tiers)
        self.pipeline = self.lookups[0][0]


class PostProcessFn(OperatorStage):
    """``post_process`` alone: carriers in, pairs out."""

    def __init__(self, operator, operator_id, stats=None):
        super().__init__(operator, operator_id, stats, post=True)


class KeyByIkFn(StreamStage):
    """Re-keys carriers by one index's lookup key: the map side of a
    re-partitioning shuffle job (Section 3.3) under ``strategy``
    (``"repart"`` or ``"idxloc"``).

    Requires at most one key per record for the shuffled index (the
    optimizer only selects a shuffle strategy when no sampled record
    had more); a record with more is a :class:`PlanningError`. Records
    with no key for the index shuffle under ``None`` and skip the lookup.
    """

    def __init__(
        self, operator: IndexOperator, operator_id: str, index_id: int,
        strategy: str = "repart",
    ):
        self.operator = operator
        self.operator_id = operator_id
        self.index_id = index_id
        self.strategy = strategy

    def consume(self, records, sizes, collector, ctx):
        j, tag = self.index_id, _CARRIER_TAG
        out_records: List[tuple] = []
        out_sizes: List[int] = []
        try:
            for record, nbytes in zip(records, sizes):
                value = record[1]
                if type(value) is not tuple or len(value) != 4 or value[0] != tag:
                    open_carrier(value)  # raises, but for a carrier-shaped subclass
                keys = value[2][j]
                if len(keys) > 1:
                    raise PlanningError(
                        f"{self.strategy} shuffles by one lookup key per record, "
                        f"but the record with key {record[0]!r} has {len(keys)} "
                        f"keys for index {j} of {self.operator_id}"
                    )
                # The arriving pair -- the tuple itself, not a copy --
                # under the new key: its size grows by the key and the
                # header of that tuple, what the reduce side takes off.
                out_records.append((keys[0] if keys else None, record))
                out_sizes.append(nbytes + _shuffle_wrap_bytes(keys))
        finally:
            collector.extend(out_records, out_sizes)

    @property
    def name(self) -> str:
        return f"keyby[{self.operator_id}.{self.index_id}]"


def _shuffle_wrap_bytes(keys: tuple) -> int:
    """What :class:`KeyByIkFn` added to a pair it shuffled under
    ``keys`` (one index's key tuple of the pair's carrier): the shuffle
    key, and the header of the tuple that wraps the original pair. The
    key is read from the carrier, not taken from the reduce group: keys
    that compare equal (``True == 1``) share a group without sharing a
    size."""
    if not keys:
        return _NONE_BYTES + _HEADER_BYTES
    ik = keys[0]
    return (_NUMBER_BYTES if type(ik) in _NUMBERS else sizeof(ik)) + _HEADER_BYTES


def _group_sizes(carriers, j: int, ctx: TaskContext):
    """The sizes a shuffle-fed reducer's group arrived with:
    ``ctx.group_bytes`` inside a reduce task. A reducer called outside
    one is an entry seam and sizes its group here, once: each pair as
    :class:`KeyByIkFn` shuffled it, under its carrier's own key for
    index ``j``."""
    if ctx.group_bytes is not None:
        return ctx.group_bytes
    return [
        _shuffle_wrap_bytes(open_carrier(record[1])[1][j]) + sizeof_pair(*record)
        for record in carriers
    ]


class GroupLookupReducer(Reducer):
    """Reduce side of a shuffle job with the boundary *after* the
    lookup: one lookup per distinct key, results fanned back out to
    every carrier of the group. A thin shell over
    :class:`LookupPipeline` with only the build gate and the ReuseStore
    in front of the index (the shuffle already grouped the duplicates a
    memo or cache would catch); with ``batch_size > 1`` whole groups
    park until one multiget resolves ``batch_size`` of them.
    """

    def __init__(
        self,
        operator: IndexOperator,
        operator_id: str,
        index_id: int,
        stats: Optional[OperatorStatsAccumulator] = None,
        settings: LookupSettings = LookupSettings(),
    ):
        self.operator_id = operator_id
        self.index_id = index_id
        self.pipeline = LookupPipeline(operator, operator_id, index_id, stats, settings)

    def start(self, ctx):
        self.pipeline.reset()

    def reduce(self, ik, carriers, collector, ctx):
        sizes = _group_sizes(carriers, self.index_id, ctx)
        if ik is None:
            # Keyless records need no lookup: emit straight through.
            self._emit_group(carriers, sizes, (), 0, collector)
            return
        pipeline = self.pipeline
        values = pipeline.lookup(ik, ctx)
        if values is not None:
            self._emit_group(carriers, sizes, (values,), pipeline.nbytes, collector)
        elif pipeline.park((ik, list(carriers), sizes)):
            self._drain(collector, ctx)

    def finish(self, collector, ctx):
        self._drain(collector, ctx, finishing=True)

    def _drain(self, collector, ctx, finishing: bool = False):
        pipeline = self.pipeline
        results, parked = pipeline.drain(ctx, finishing)
        fetched_bytes = pipeline.fetched_bytes
        for ik, carriers, sizes in parked:
            self._emit_group(
                carriers, sizes, (results[ik],), fetched_bytes[ik], collector
            )

    def _emit_group(self, carriers, sizes, results, results_bytes, collector):
        """Emit the group's carriers under their original keys, this
        index's slot filled with ``results`` (their sizes summing to
        ``results_bytes``). ``sizes`` are the sizes the shuffled pairs
        ``(ik, (k1, carrier))`` arrived with: each pair going out is its
        shuffled pair less the shuffle key and the wrapper ``KeyByIkFn``
        put around it, with that one slot changed."""
        j, tag = self.index_id, _CARRIER_TAG
        filled_bytes = _HEADER_BYTES + results_bytes
        out_records: List[tuple] = []
        out_sizes: List[int] = []
        for (original_key, (_, v1, ikl, ivl)), nbytes in zip(carriers, sizes):
            keys, old = ikl[j], ivl[j]
            nbytes += (
                (filled_bytes if keys else _HEADER_BYTES)
                - (_NONE_BYTES if old is None else sizeof(old))
                - _shuffle_wrap_bytes(keys)
            )
            out_records.append((original_key, (
                tag, v1, ikl, ivl[:j] + (results if keys else (),) + ivl[j + 1 :]
            )))
            out_sizes.append(nbytes)
        collector.extend(out_records, out_sizes)

    @property
    def name(self) -> str:
        return f"grouplookup[{self.operator_id}.{self.index_id}]"


class CarrierMaterializeReducer(Reducer):
    """Reduce side of a shuffle job with the boundary *before* the
    lookup: just materialise the grouped carriers (duplicate keys end up
    adjacent, so the next stage's ``LookupFn(dedup_adjacent=True)``
    removes the redundancy). ``index_id`` names the index whose key the
    carriers were shuffled under, which is all that separates a pair
    going out from the shuffled pair it arrived in."""

    def __init__(self, index_id: int):
        self.index_id = index_id

    def reduce(self, ik, carriers, collector, ctx):
        j = self.index_id
        out_records: List[tuple] = []
        out_sizes: List[int] = []
        for record, nbytes in zip(carriers, _group_sizes(carriers, j, ctx)):
            out_records.append(record)
            out_sizes.append(nbytes - _shuffle_wrap_bytes(record[1][2][j]))
        collector.extend(out_records, out_sizes)

    @property
    def name(self) -> str:
        return "materialize"


class SchemePartitioner(Partitioner):
    """Partitions shuffle keys with the *index's own* partition scheme,
    co-partitioning lookup keys with index partitions (Section 3.4)."""

    def __init__(self, scheme):
        self.scheme = scheme

    def partition(self, key, num_partitions):
        if key is None:
            return 0
        p = self.scheme.partition_of(key)
        return p % num_partitions


class RecordMeter(StreamStage):
    """Pass-through stage that reports record/byte flow to a callback;
    used to measure the original Map's output size (``Smap``)."""

    def __init__(self, on_batch, label: str = "meter"):
        self._on_batch = on_batch
        self._label = label
        self._count = 0
        self._bytes = 0.0

    def start(self, ctx):
        self._count = 0
        self._bytes = 0.0

    def consume(self, records, sizes, collector, ctx):
        before_bytes = collector.bytes
        collector.extend(records, sizes)
        self._count += len(records)
        self._bytes += collector.bytes - before_bytes

    def finish(self, collector, ctx):
        self._on_batch(self._count, self._bytes)

    @property
    def name(self) -> str:
        return self._label
