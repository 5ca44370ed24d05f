"""What a matrix of small EFind jobs does, pinned bit for bit.

Each job runs one index operator chain under one strategy, at batch
size B = 1 or 7, with faults off or with 4 % of lookup attempts failing
and two attempts per lookup: the ``q3`` jobs then complete with some
lookups retried, while each ``gen2`` job loses a lookup for good and
fails midway through a task. For each one the golden holds the output in
emission order (a sha256 of its ``repr``), the job's counters, and for
every operator a sha256 of its ``TaskSample``s (as ``asdict``, floats as
``.hex()``) and of its FM sketches,
the simulated time and a sha256 of the trace's spans and instants --
or, for a job that failed, the error and what its samples held at that
point. An operator's stages may be arranged differently, but none of
this may move.

The jobs:

* ``q3``: TPC-H Q3, two chained head operators of one index each, under
  forced Base, Cache, Repart (boundaries ``pre``, ``idx`` and ``post``),
  Idxloc, and Dynamic;
* ``gen2``: a tail operator over two indices, run with Cache and Base in
  one chain, with a Repart cut on its second index (each boundary), with
  an Idxloc cut on its second index, and under Dynamic.

Regenerate (only for a change that means to move these bits)::

    PYTHONPATH=src python tests/core/test_operator_golden.py --write
"""

import contextlib
import hashlib
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import repro.core.runner as runner_module
from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Placement, Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.plan import AccessPlan, OperatorPlan
from repro.core.runner import EFindRunner
from repro.core.statistics import OperatorStatsAccumulator
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer
from repro.obs import Observability
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan, RetryPolicy
from repro.workloads import tpch

GOLDEN = Path(__file__).with_name("golden") / "operator_matrix.json"
RETRY = RetryPolicy(
    max_attempts=2, base_backoff=2e-3, max_backoff=20e-3, attempt_timeout=10e-3
)


class TwoIndexOperator(IndexOperator):
    """Reads its lookup keys out of the record -- ``value == (payload,
    keys0, keys1)``, up to two keys for index 0 and at most one for
    index 1 -- and emits one pair per looked-up result set."""

    def pre_process(self, key, value, index_input):
        _payload, keys0, keys1 = value
        for ik in keys0:
            index_input.put(0, ik)
        for ik in keys1:
            index_input.put(1, ik)
        return key, value

    def post_process(self, key, value, index_output, collector):
        for j in range(index_output.num_indices):
            collector.collect((key, j), (value[0], tuple(index_output.get(j).get_all())))


def _cluster():
    return Cluster(num_nodes=6, map_slots_per_node=2, reduce_slots_per_node=2)


def _q3_env():
    data = tpch.generate(tpch.TpchConfig(sf=0.001))
    cluster = _cluster()
    dfs = DistributedFileSystem(cluster, block_size=8 * 1024)
    tpch.write_lineitem(dfs, "/lineitem", data)
    indexes = tpch.build_indexes(cluster, data, num_partitions=8)

    def make_job(name):
        return tpch.make_q3_job(name, "/lineitem", f"/out/{name}", indexes, num_reduce_tasks=4)

    return cluster, dfs, indexes.stores(), make_job


def _gen2_env():
    cluster = _cluster()
    dfs = DistributedFileSystem(cluster, block_size=4 * 1024)
    rng = random.Random(42)
    records = [
        (
            i,
            (
                "x" * rng.randrange(4, 40),
                tuple(rng.randrange(400) for _ in range(rng.choice((0, 1, 1, 1, 2)))),
                tuple(f"c{rng.randrange(25)}" for _ in range(rng.choice((0, 1, 1)))),
            ),
        )
        for i in range(900)
    ]
    dfs.write("/in/gen2", records)
    stores = []
    for name, keys, service_time in (
        ("gen2-a", range(350), 1.1e-3),  # keys 350..399 find nothing
        ("gen2-b", (f"c{c}" for c in range(25)), 0.7e-3),
    ):
        kv = DistributedKVStore(name, cluster, num_partitions=6, service_time=service_time)
        for k in keys:
            kv.put(k, (k, "v" * (len(str(k)) * 3)))
            if str(k).endswith("3"):
                kv.put(k, ("again", k))
        stores.append(kv)

    def make_job(name):
        job = IndexJobConf(name)
        job.set_input_paths("/in/gen2").set_output_path(f"/out/{name}")
        job.set_mapper(FnMapper(lambda k, v: [(k % 97, v)], "fold"))
        job.set_reducer(
            FnReducer(lambda k, vs: [(k, v) for v in vs], "ungroup"), num_reduce_tasks=3
        )
        op = TwoIndexOperator("two")
        for kv in stores:
            op.add_index(IndexAccessor(kv))
        job.add_tail_index_operator(op)
        return job

    return cluster, dfs, stores, make_job


def _plan(strategies):
    plan = AccessPlan()
    plan.operators["tail0"] = OperatorPlan(
        "tail0", Placement.AFTER_REDUCE, order=[0, 1], strategies=dict(enumerate(strategies))
    )
    return plan


def _forced(strategy, boundary=None):
    return {"mode": "forced", "forced_strategy": strategy, "boundary_override": boundary}


def _planned(strategies, boundary=None):
    return {"mode": "plan", "plan": _plan(strategies), "boundary_override": boundary}


#: family -> (environment builder, {strategy name: run keyword arguments}).
FAMILIES = {
    "q3": (
        _q3_env,
        {
            "base": lambda: _forced(Strategy.BASELINE),
            "cache": lambda: _forced(Strategy.CACHE),
            "repart-pre": lambda: _forced(Strategy.REPART, "pre"),
            "repart-idx": lambda: _forced(Strategy.REPART, "idx"),
            "repart-post": lambda: _forced(Strategy.REPART, "post"),
            "idxloc": lambda: _forced(Strategy.IDXLOC),
            "dynamic": lambda: {"mode": "dynamic"},
        },
    ),
    "gen2": (
        _gen2_env,
        {
            "cache+base": lambda: _planned((Strategy.CACHE, Strategy.BASELINE)),
            "cache+repart-pre": lambda: _planned((Strategy.CACHE, Strategy.REPART), "pre"),
            "cache+repart-idx": lambda: _planned((Strategy.CACHE, Strategy.REPART), "idx"),
            "cache+repart-post": lambda: _planned((Strategy.CACHE, Strategy.REPART), "post"),
            "cache+idxloc": lambda: _planned((Strategy.CACHE, Strategy.IDXLOC)),
            "dynamic": lambda: {"mode": "dynamic"},
        },
    ),
}
CASES = [
    f"{family}/{strategy}/b{batch}/{faults}"
    for family, (_, strategies) in FAMILIES.items()
    for strategy in strategies
    for batch in (1, 7)
    for faults in ("clean", "faults")
]


def _hexed(value):
    """``value`` with every float written as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@contextlib.contextmanager
def _accumulators():
    """Every ``OperatorStatsAccumulator`` the runner makes meanwhile, in
    the order it makes them."""
    made = []

    class Recording(OperatorStatsAccumulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    runner_module.OperatorStatsAccumulator = Recording
    try:
        yield made
    finally:
        runner_module.OperatorStatsAccumulator = OperatorStatsAccumulator


def observe(case: str) -> dict:
    family, strategy, batch, faults = case.split("/")
    make_env, strategies = FAMILIES[family]
    cluster, dfs, stores, make_job = make_env()
    obs = Observability()
    kwargs = {"batch_size": int(batch[1:]), "obs": obs}
    if faults == "faults":
        plan = FaultPlan(seed=11, lookup_failure_rate=0.04)
        for store in stores:
            store.set_fault_plan(plan, RETRY)
        kwargs["fault_plan"] = plan
    runner = EFindRunner(cluster, dfs, **kwargs)
    name = case.replace("/", "-")
    with _accumulators() as made:
        try:
            result, error = runner.run(make_job(name), **strategies[strategy]()), None
        except Exception as exc:  # the failure is part of what is pinned
            result, error = None, f"{type(exc).__name__}: {exc}"
    observed = {
        "error": error,
        "samples": [
            {
                "op": acc.operator_id,
                "tasks": len(acc._samples),
                "samples": _sha([_hexed(asdict(s)) for s in acc._samples.values()]),
                "fm": _sha([acc.fm[j].bitmaps for j in sorted(acc.fm)]),
            }
            for acc in made
        ],
        "trace": _sha(
            [(s.name, s.cat, s.start, s.end, s.depth) for s in obs.tracer.spans]
            + [(i.name, i.cat, i.ts, i.depth) for i in obs.tracer.instants]
        ),
    }
    if result is not None:
        observed.update(
            records=len(result.output),
            output=_sha(result.output),
            counters=_hexed(result.counters.to_dict()),
            sim_time=result.sim_time.hex(),
            stages=result.num_stages,
        )
    return observed


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_job_matches_golden(golden, case):
    observed = observe(case)
    expected = golden[case]
    for what in expected:
        assert observed[what] == expected[what], (case, what)
    assert sorted(observed) == sorted(expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.write_text(
        json.dumps({case: observe(case) for case in CASES}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
