"""Layer probes: untraced timings of single public calls, each on data
captured from the workload, each repeated until ``min_seconds`` of
samples exist; the median sample is reported.

A probe isolates one layer from outside (nothing under ``src/`` is
edited), so it shows *which* layer a change moved; the end-to-end
numbers in measure.py say whether that mattered.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Callable, Dict

from repro.common.sizing import sizeof_pair
from repro.core.cache import LRUCache
from repro.core.costmodel import CostEnv
from repro.core.optimizer import optimize_job
from repro.dfs.filesystem import DistributedFileSystem
from repro.mapreduce.api import FnReducer, HashPartitioner, IdentityMapper
from repro.mapreduce.jobconf import JobConf
from repro.mapreduce.runtime import JobRunner
from repro.mapreduce.shuffle import bucket_bytes, group_by_key, partition_records

from hostbench.measure import NOMINAL_CALIBRATION_S, Spans, calibrate
from hostbench.workloads import State, Workload

BATCH = 64
REDUCE_TASKS = 12
_MIN_SAMPLE = 5e-3


def _repeat(fn: Callable[[], object], min_seconds: float) -> float:
    """Median wall seconds of one ``fn()`` call. Calls shorter than
    ``_MIN_SAMPLE`` are looped so the clock reads do not dominate."""
    started = time.perf_counter()
    fn()
    first = time.perf_counter() - started
    loops = max(1, int(_MIN_SAMPLE / max(first, 1e-9)))
    samples, total = [], 0.0
    while total < min_seconds or len(samples) < 3:
        started = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - started
        samples.append(elapsed / loops)
        total += elapsed
    return median(samples)


def run_probes(
    wl: Workload, st: State, spans: Spans, min_seconds: float
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    records = st.records
    n = len(records)
    keys = st.hot_keys

    def probe(name: str, fn: Callable[[], object]) -> float:
        """Nominal-host seconds of one ``fn()`` (see measure.calibrate)."""
        before = calibrate()
        with spans.span(f"probe:{name}"):
            sample = _repeat(fn, min_seconds)
        return sample * NOMINAL_CALIBRATION_S / ((before + calibrate()) / 2)

    # common.sizing -- the call every layer boundary makes per record.
    def size_all():
        for key, value in records:
            sizeof_pair(key, value)

    out["common.sizing.sizeof_ns_per_rec"] = probe("sizing", size_all) / n * 1e9

    # dfs -- write the input to a fresh file system, read it back.
    scratch_dfs = DistributedFileSystem(st.cluster, block_size=st.dfs.block_size)
    write_s = probe("dfs.write", lambda: scratch_dfs.write("/probe/in", records))
    out["dfs.write_krec_per_s"] = n / write_s / 1e3

    def read_all():
        scratch_dfs.read("/probe/in")
        scratch_dfs.splits("/probe/in")

    out["dfs.read_krec_per_s"] = n / probe("dfs.read", read_all) / 1e3

    # mapreduce -- the engine floor: an index-free job over the input.
    def plain_job():
        conf = JobConf(
            name="probe-plain",
            input_paths=[st.input_path],
            output_path="/out/probe-plain",
            map_chain=[IdentityMapper()],
            reducer=FnReducer(lambda key, values: [(key, len(values))], "count"),
            num_reduce_tasks=REDUCE_TASKS,
        )
        return JobRunner(st.cluster, st.dfs).run(conf)

    out["mapreduce.plain_job_wall_s"] = probe("mapreduce.plain_job", plain_job)

    partitioner = HashPartitioner()

    def shuffle():
        for bucket in partition_records(records, partitioner, REDUCE_TASKS):
            group_by_key(bucket)
            bucket_bytes(bucket)

    out["mapreduce.shuffle_us_per_rec"] = probe("mapreduce.shuffle", shuffle) / n * 1e6

    # indices -- the hot index over the workload's real key stream.
    index = st.hot_index
    out["indices.lookup_us"] = (
        probe("indices.lookup", lambda: [index.lookup(key) for key in keys])
        / len(keys)
        * 1e6
    )
    batches = [keys[i : i + BATCH] for i in range(0, len(keys), BATCH)]
    out["indices.lookup_batch_us_per_key"] = (
        probe(
            "indices.lookup_batch",
            lambda: [index.lookup_batch(batch) for batch in batches],
        )
        / len(keys)
        * 1e6
    )
    out["indices.put_us"] = (
        probe("indices.put", lambda: wl.load_hot_index(st)) / len(index) * 1e6
    )
    index.reset_accounting()

    # core.cache -- the lookup cache alone, replaying the key stream.
    replayed = LRUCache(wl.cache_capacity)

    def replay():
        replayed.clear()
        for key in keys:
            hit, _ = replayed.get(key)
            if not hit:
                replayed.put(key, True)

    out["core.cache.lru_op_ns"] = probe("core.cache", replay) / len(keys) * 1e9
    out["core.cache.miss_ratio"] = replayed.miss_ratio

    # core.optimizer -- plan the job from the statistics a run left.
    iconf, catalog = wl.planner_probe(st)
    env = CostEnv.from_time_model(st.cluster.time_model)
    per_operator = {
        op_id: (
            catalog.get(op.signature()),
            placement,
            [accessor.supports_locality for accessor in op.accessors],
        )
        for op_id, placement, op in iconf.placed_operators()
    }
    out["core.optimizer.optimize_job_ms"] = (
        probe("core.optimizer", lambda: optimize_job(env, per_operator)) * 1e3
    )
    return out
