"""Runtime statistics: Flajolet-Martin sketches, per-task samples,
variance gating, and the statistics catalog (Section 4.2).

EFind collects the Table-1 quantities with counters as tasks complete:

* ``preProcess``: input count/size, keys per index, output size;
* ``lookup``: key and result sizes, sampled ``T_j``, shadow-cache miss
  ratio ``R``;
* ``postProcess`` / ``Map``: output sizes;
* ``Theta`` (duplicates per distinct lookup key) via FM sketches whose
  local bit vectors are OR-ed across tasks.

Re-optimization is gated on the sample variance of per-task statistics:
"we make sure that the standard deviation over mean is below a threshold
(e.g., 0.05) before performing re-optimization."
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional

from repro.mapreduce.api import stable_hash

#: Flajolet-Martin magic constant (phi) used to unbias the estimate.
_FM_PHI = 0.77351


class FMSketch:
    """Flajolet-Martin distinct counting with stochastic averaging.

    ``num_buckets`` independent bitmaps; each key goes to one bucket and
    sets the bit at the position of the lowest set bit of its hash. The
    estimate is ``(m / phi) * 2**(mean lowest-unset-bit)``.
    """

    def __init__(self, num_buckets: int = 64, bitmap_bits: int = 32):
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        self.num_buckets = num_buckets
        self.bitmap_bits = bitmap_bits
        self.bitmaps: List[int] = [0] * num_buckets

    def add(self, key: Any) -> None:
        self.add_all((key,))

    def add_all(self, keys: Iterable[Any]) -> None:
        """Add every key of ``keys``. Bits are only OR-ed in, so the
        bitmaps do not depend on the order (or the grouping) of adds,
        nor on how often a hash repeats: ``keys`` is read once into a
        set of hashes, so each distinct exact ``int`` is hashed and
        placed once. Every other key is hashed as it comes (``1``,
        ``1.0`` and ``True`` are three hashes of one value)."""
        bitmaps, num_buckets, top = self.bitmaps, self.num_buckets, self.bitmap_bits - 1
        # stable_hash's exact-int rung, inline.
        for h in {key & 0x7FFFFFFF if type(key) is int else stable_hash(key)
                  for key in keys}:
            h = h * 2654435761 & 0xFFFFFFFFFFFF
            bucket = h % num_buckets
            h //= num_buckets
            position = (h & -h).bit_length() - 1 if h else top  # lowest set bit
            bitmaps[bucket] |= 1 << (position if position < top else top)

    def merge(self, other: "FMSketch") -> None:
        """OR another sketch in (local task sketches -> global sketch)."""
        if other.num_buckets != self.num_buckets:
            raise ValueError("cannot merge sketches of different widths")
        for i in range(self.num_buckets):
            self.bitmaps[i] |= other.bitmaps[i]

    def estimate(self) -> float:
        """Estimated number of distinct keys added."""
        total_r = sum(
            _lowest_zero_bit_position(bm) for bm in self.bitmaps
        )
        mean_r = total_r / self.num_buckets
        return (self.num_buckets / _FM_PHI) * (2.0**mean_r)

    def copy(self) -> "FMSketch":
        clone = FMSketch(self.num_buckets, self.bitmap_bits)
        clone.bitmaps = list(self.bitmaps)
        return clone


def _lowest_zero_bit_position(bitmap: int) -> int:
    position = 0
    while bitmap & 1:
        bitmap >>= 1
        position += 1
    return position


@dataclass
class IndexSample:
    """One task's counts for one index of its operator (Table 1:
    Nik_j, Sik_j, Siv_j, T_j, R, and the batch / reuse / build terms).
    Every field starts at 0, so an index a task never touched adds
    nothing to :meth:`OperatorStatsAccumulator.aggregate`."""

    nik: int = 0
    #: Records that listed more than one key for this index: what a
    #: shuffle strategy, which keys each record by one of them, cannot run.
    multi_key_records: int = 0
    sik_bytes: float = 0.0
    siv_bytes: float = 0.0
    lookups: int = 0
    tj_total: float = 0.0
    tj_samples: int = 0
    cache_probes: int = 0
    cache_misses: int = 0
    batches: int = 0
    batch_keys: int = 0
    c_req_total: float = 0.0
    c_key_total: float = 0.0
    reuse_probes: int = 0
    reuse_hits: int = 0
    # Partial-index builds (indices/build/): lookups that hit the built
    # portion vs. fell back to a scan-assisted lookup, and the summed
    # scan service times; untouched unless a build session is attached.
    build_covered: int = 0
    build_scanned: int = 0
    build_scan_tj_total: float = 0.0


@dataclass
class TaskSample:
    """Per-task operator statistics; one per (task, operator), with one
    :class:`IndexSample` per index of the operator in ``index``."""

    task_id: str
    n1: int = 0
    s1_bytes: float = 0.0
    spre_bytes: float = 0.0
    sidx_bytes: float = 0.0
    spost_bytes: float = 0.0
    index: List[IndexSample] = field(default_factory=list)

    @property
    def looked_up(self) -> bool:
        """Whether any index of this task fetched a key."""
        return any(stat.lookups for stat in self.index)


@dataclass
class IndexStats:
    """Aggregated Table-1 statistics for one index of one operator."""

    nik: float = 1.0  # avg lookup keys per input record
    multi_key_records: int = 0  # records with more than one lookup key
    sik: float = 8.0  # avg key size (bytes)
    siv: float = 64.0  # avg result size per key (bytes)
    tj: float = 0.5e-3  # avg index service time (seconds)
    miss_ratio: float = 1.0  # R
    theta: float = 1.0  # duplicates per distinct key
    distinct: float = 0.0  # FM-estimated distinct lookup keys
    lookups_observed: int = 0
    probes_observed: int = 0
    c_req: float = 0.0  # sampled fixed per-multiget overhead
    c_key: float = 0.0  # sampled per-key marginal multiget cost
    batch_fill: float = 1.0  # observed mean keys per multiget
    batches_observed: int = 0
    reuse_hit_ratio: float = 0.0  # observed cross-job reuse-hit fraction
    reuse_seed: float = 0.0  # planner prior from warm-store occupancy
    reuse_probes_observed: int = 0
    # Partial-index build state (indices/build/). Coverage defaults to 1
    # -- a prebuilt index covers everything -- so every formula reduces
    # to the pre-build-subsystem expression unless a build session
    # reports otherwise. ``build_scan_tj`` is the observed scan-assisted
    # service time (0 = none observed; the cost model then falls back to
    # ``DEFAULT_SCAN_MULTIPLIER`` times ``effective_tj()``).
    # ``build_debt`` is this job's charged incremental-build time; it is
    # strategy-invariant (the builder piggybacks on the map phase no
    # matter which access strategy runs) so it is reported in the audit
    # log rather than added to any equation.
    build_coverage: float = 1.0
    build_debt: float = 0.0
    build_scan_tj: float = 0.0

    def effective_tj(self) -> float:
        """Per-lookup service time the cost model should charge.

        With no batches observed this is the plain sampled ``tj``
        (Equations 1-4 unchanged). Once the runtime has seen batched
        lookups it is the amortised ``C_req / fill + C_key``: the
        fixed request overhead spread over the observed mean batch
        fill.
        """
        if self.batches_observed <= 0 or self.batch_fill <= 0:
            return self.tj
        return self.c_req / self.batch_fill + self.c_key

    def effective_latency(self, latency: float) -> float:
        """Per-lookup share of the network round-trip latency: one
        message per batch, so amortised by the observed fill."""
        if self.batches_observed <= 0 or self.batch_fill <= 0:
            return latency
        return latency / self.batch_fill

    def reuse_hit_fraction(self) -> float:
        """The reuse-hit term of Equations 1-4: the observed hit ratio
        once this run has probed the store, else the occupancy-seeded
        prior (``reuse_seed``) the planner derived from the warm store.
        Zero -- no reuse effect -- when neither is available."""
        if self.reuse_probes_observed > 0:
            return min(1.0, max(0.0, self.reuse_hit_ratio))
        return min(1.0, max(0.0, self.reuse_seed))

    def reuse_survival(self) -> float:
        """Fraction of would-be fetches that still reach the index
        (1 with no reuse store; the cost model multiplies its fetch
        terms by this, leaving the pre-reuse formulas intact when the
        store is absent or cold)."""
        return max(0.0, 1.0 - self.reuse_hit_fraction())

    def capacity_bounded_miss_ratio(
        self, n1: float, cache_capacity: int
    ) -> float:
        """Refine R with the compulsory-miss bound: when the distinct
        key set fits in the cache, a node's steady-state misses are at
        most one per distinct key, so ``R <= distinct / (N1 * Nik)``.
        Short statistics samples (a cold first wave) overestimate R;
        this bound restores the steady-state value."""
        if self.distinct <= 0 or self.distinct > cache_capacity:
            return self.miss_ratio
        keys_per_machine = n1 * self.nik
        if keys_per_machine <= 0:
            return self.miss_ratio
        return min(self.miss_ratio, self.distinct / keys_per_machine)


@dataclass
class OperatorStats:
    """Aggregated statistics for one IndexOperator."""

    n1: float = 0.0  # avg inputs per machine
    s1: float = 64.0  # avg input pair size
    spre: float = 64.0  # avg preProcess output size per input
    sidx: float = 64.0  # avg lookup output size per input
    spost: float = 64.0  # avg postProcess output size per input
    smap: float = 64.0  # avg Map output size per Map input (head ops)
    per_index: Dict[int, IndexStats] = field(default_factory=dict)
    num_tasks_sampled: int = 0

    def index(self, index_id: int) -> IndexStats:
        return self.per_index.setdefault(index_id, IndexStats())

    def to_dict(self) -> dict:
        """The one serialised form of these statistics, read back by
        :meth:`from_dict`: the catalog file and each audit record's
        ``operators[].stats``. Every field by name, ``per_index`` last
        and keyed by str. Derived terms (``effective_tj()``,
        ``reuse_survival()``) are not stored; they follow from these."""
        out = asdict(self)
        out["per_index"] = {str(j): idx for j, idx in out.pop("per_index").items()}
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "OperatorStats":
        """Reverse :meth:`to_dict`. A missing or unknown field raises a
        ``ValueError`` that names it."""
        stats = cls(**_fields(cls, raw, "operator statistics"))
        stats.per_index = {
            int(j): IndexStats(**_fields(IndexStats, idx, f"per_index[{j}]"))
            for j, idx in stats.per_index.items()
        }
        return stats


def _fields(cls, raw: Any, what: str) -> dict:
    """``raw`` when its keys are exactly the fields of dataclass ``cls``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what}: expected an object, got {type(raw).__name__}")
    names = [f.name for f in fields(cls)]
    for name in names:
        if name not in raw:
            raise ValueError(f"{what}: missing field {name!r}")
    for name in raw:
        if name not in names:
            raise ValueError(f"{what}: unknown field {name!r}")
    return raw


class OperatorStatsAccumulator:
    """Collects task samples + FM sketches for one operator and derives
    :class:`OperatorStats` and the variance gate."""

    def __init__(
        self,
        operator_id: str,
        num_indices: int,
        num_machines: int,
        cache_capacity: int = 1024,
    ):
        self.operator_id = operator_id
        self.num_indices = num_indices
        self.num_machines = max(1, num_machines)
        self.cache_capacity = cache_capacity
        self._samples: Dict[str, TaskSample] = {}
        self.fm: Dict[int, FMSketch] = {j: FMSketch() for j in range(num_indices)}
        self.smap_bytes_total: float = 0.0
        self.smap_inputs_total: int = 0

    # ------------------------------------------------------------------
    @property
    def samples(self) -> List[TaskSample]:
        return [s for s in self._samples.values() if s.n1 > 0 or s.looked_up]

    def sample_for(self, task_id: str) -> TaskSample:
        """Get-or-create the sample for one task; the EFind chained
        functions of one operator all write into the same sample."""
        sample = self._samples.get(task_id)
        if sample is None:
            sample = TaskSample(
                task_id, index=[IndexSample() for _ in range(self.num_indices)]
            )
            self._samples[task_id] = sample
        return sample

    def add_sample(self, sample: TaskSample) -> None:
        if sample.n1 > 0 or sample.looked_up:
            self._samples[sample.task_id] = sample

    def add_key_to_sketch(self, index_id: int, key: Any) -> None:
        self.fm[index_id].add(key)

    def record_map_output(self, inputs: int, output_bytes: float) -> None:
        self.smap_inputs_total += inputs
        self.smap_bytes_total += output_bytes

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        return len(self.samples)

    def total_inputs(self) -> int:
        return sum(s.n1 for s in self.samples)

    def aggregate(self) -> OperatorStats:
        """Fold all samples into one :class:`OperatorStats`."""
        stats = OperatorStats(num_tasks_sampled=len(self.samples))
        total_n1 = self.total_inputs()
        if total_n1 == 0:
            return stats
        stats.n1 = total_n1 / self.num_machines
        stats.s1 = _safe_div(sum(s.s1_bytes for s in self.samples), total_n1)
        stats.spre = _safe_div(sum(s.spre_bytes for s in self.samples), total_n1)
        stats.sidx = _safe_div(sum(s.sidx_bytes for s in self.samples), total_n1)
        stats.spost = _safe_div(sum(s.spost_bytes for s in self.samples), total_n1)
        if self.smap_inputs_total:
            stats.smap = self.smap_bytes_total / self.smap_inputs_total
        else:
            stats.smap = stats.spost

        for j in range(self.num_indices):
            idx = stats.index(j)
            # One sum() per field over the tasks' samples of index j, in
            # sample order (3.12's sum() compensates float rounding).
            per_task = [s.index[j] for s in self.samples]
            total_keys = sum(t.nik for t in per_task)
            idx.nik = _safe_div(total_keys, total_n1)
            idx.multi_key_records = sum(map(_MULTI_KEY_RECORDS, per_task))
            idx.sik = _safe_div(sum(t.sik_bytes for t in per_task), total_keys, 8.0)
            lookups = sum(t.lookups for t in per_task)
            idx.lookups_observed = lookups
            # Siv is the result size per *looked-up* key; deduplicated
            # runs look up fewer keys than they request.
            idx.siv = _safe_div(sum(t.siv_bytes for t in per_task), lookups, 64.0)
            tj_samples = sum(t.tj_samples for t in per_task)
            if tj_samples:
                idx.tj = sum(t.tj_total for t in per_task) / tj_samples
            batches = sum(t.batches for t in per_task)
            idx.batches_observed = batches
            if batches:
                batch_keys = sum(t.batch_keys for t in per_task)
                idx.batch_fill = max(1.0, batch_keys / batches)
                idx.c_req = sum(t.c_req_total for t in per_task) / batches
                if batch_keys:
                    idx.c_key = sum(t.c_key_total for t in per_task) / batch_keys
            probes = sum(t.cache_probes for t in per_task)
            idx.probes_observed = probes
            if probes:
                idx.miss_ratio = sum(t.cache_misses for t in per_task) / probes
            reuse_probes = sum(t.reuse_probes for t in per_task)
            idx.reuse_probes_observed = reuse_probes
            if reuse_probes:
                idx.reuse_hit_ratio = sum(t.reuse_hits for t in per_task) / reuse_probes
            covered = sum(t.build_covered for t in per_task)
            scanned = sum(t.build_scanned for t in per_task)
            if covered or scanned:
                idx.build_coverage = covered / (covered + scanned)
            if scanned:
                scan_tj = sum(t.build_scan_tj_total for t in per_task)
                idx.build_scan_tj = scan_tj / scanned
            if total_keys:
                distinct = max(1.0, self.fm[j].estimate())
                idx.distinct = distinct
                idx.theta = max(1.0, total_keys / distinct)
                idx.miss_ratio = idx.capacity_bounded_miss_ratio(
                    stats.n1, self.cache_capacity
                )
        return stats

    def relative_deviation(self) -> float:
        """Max over stat types of the *relative standard error of the
        mean*: ``stddev / (mean * sqrt(n))`` across task samples.

        Equation 5 computes the sample variance; the paper's gate then
        argues via the central limit theorem that "the sample mean is
        within 3 times the standard deviation from the true mean" --
        i.e. what must be small is the uncertainty of the *mean*, which
        shrinks with ``sqrt(n)``. (At the paper's scale each task holds
        ~10^5 records, so plain stddev/mean is already tiny; at
        simulation scale per-task filter ratios are noisy and the
        sqrt(n) factor is what the CLT actually grants.)

        Infinite when fewer than 2 samples.
        """
        if len(self.samples) < 2:
            return math.inf
        worst = 0.0
        for extractor in (
            lambda s: float(s.n1),
            lambda s: _safe_div(s.spre_bytes, s.n1),
            lambda s: _safe_div(s.sidx_bytes, s.n1),
            lambda s: _safe_div(s.spost_bytes, s.n1),
        ):
            values = [extractor(s) for s in self.samples if s.n1 > 0]
            if len(values) < 2:
                continue
            mean = sum(values) / len(values)
            if mean == 0:
                continue
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            relative_se = math.sqrt(var) / (abs(mean) * math.sqrt(len(values)))
            worst = max(worst, relative_se)
        return worst


_MULTI_KEY_RECORDS = attrgetter("multi_key_records")


def _safe_div(num: float, den: float, default: float = 0.0) -> float:
    if den == 0:
        return default
    return num / den


class StatisticsCatalog:
    """The catalog of Section 4.1: operator statistics persisted across
    jobs, keyed by a stable operator signature.

    Supports JSON round-tripping (:meth:`to_dict` / :meth:`from_dict`,
    :meth:`save` / :meth:`load`) so statistics survive process restarts
    -- the paper's "record statistics at the end of a job, and then use
    the statistics collected from previous jobs" workflow. Each entry is
    in :meth:`OperatorStats.to_dict`'s form, the one the audit log
    records too; loading refuses an entry with a missing or unknown
    field.
    """

    def __init__(self) -> None:
        self._stats: Dict[str, OperatorStats] = {}

    def get(self, signature: str) -> Optional[OperatorStats]:
        return self._stats.get(signature)

    def put(self, signature: str, stats: OperatorStats) -> None:
        """Store ``stats``, retaining prior estimates for quantities the
        new run did not observe (a re-partitioned run performs no cache
        probes, so it must not clobber a measured miss ratio, and a run
        with deduplicated lookups must not clobber Theta)."""
        old = self._stats.get(signature)
        if old is not None:
            # Runs whose lookups happened in a shuffle job's reduce do
            # not observe the post-lookup record size.
            if stats.sidx == 0 and old.sidx > 0:
                stats.sidx = old.sidx
            for j, idx in stats.per_index.items():
                prior = old.per_index.get(j)
                if prior is None:
                    continue
                if idx.probes_observed == 0 and prior.probes_observed > 0:
                    idx.miss_ratio = prior.miss_ratio
                    idx.probes_observed = prior.probes_observed
                if idx.lookups_observed == 0 and prior.lookups_observed > 0:
                    idx.tj = prior.tj
                    idx.siv = prior.siv
                    idx.lookups_observed = prior.lookups_observed
        self._stats[signature] = stats

    def __contains__(self, signature: str) -> bool:
        return signature in self._stats

    def __len__(self) -> int:
        return len(self._stats)

    def clear(self) -> None:
        self._stats.clear()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serialisable snapshot of every stored statistic."""
        return {signature: stats.to_dict() for signature, stats in self._stats.items()}

    @classmethod
    def from_dict(cls, payload: dict) -> "StatisticsCatalog":
        catalog = cls()
        for signature, raw in payload.items():
            catalog._stats[signature] = OperatorStats.from_dict(raw)
        return catalog

    def save(self, path: str) -> None:
        """Write the catalog to a JSON file."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "StatisticsCatalog":
        """Read a catalog previously written by :meth:`save`."""
        import json

        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
