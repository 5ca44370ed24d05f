"""Intermediate data dies with its consumer (DESIGN.md 5.12).

A run leaves only its declared output in the DFS -- no ``/_efind``
temp file of an extra job outlives the job that read it -- and while
its result is held, a record the run made is alive only if the result's
output still reaches it: the task lists, shuffle buckets and stage
outputs in between have let go of theirs.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.mapreduce.api import FnMapper, FnReducer
from repro.mapreduce.jobconf import JobConf
from repro.mapreduce.runtime import JobRunner

FORCED = [Strategy.BASELINE, Strategy.CACHE, Strategy.REPART, Strategy.IDXLOC]


def reference(dfs):
    """Counts per city of ``efind_env``'s head job, from its input and
    the index's contents (user ``u`` lives in ``city{u % 25}``)."""
    return sorted(
        Counter(
            f"city{int(user[4:]) % 25:02d}" for _, (user, _) in dfs.read("/in/events")
        ).items()
    )


def assert_only_declared_output(dfs, name):
    assert dfs.listdir("/_efind") == []
    assert dfs.listdir() == ["/in/events", f"/out/{name}"]


class TestNoTempFilesLeft:
    @pytest.mark.parametrize("strategy", FORCED, ids=lambda s: s.value)
    def test_forced(self, efind_env, strategy):
        res = efind_env.runner().run(
            efind_env.make_job("lt-forced"),
            mode="forced",
            forced_strategy=strategy,
            extra_job_targets=["head0"],
        )
        if strategy in (Strategy.REPART, Strategy.IDXLOC):
            assert res.num_stages == 2
        assert sorted(res.output) == reference(efind_env.dfs)
        assert_only_declared_output(efind_env.dfs, "lt-forced")
        for stage in res.stage_results[:-1]:
            assert stage.output == [] and stage.output_sizes == []
        assert sorted(res.stage_results[-1].output) == sorted(res.output)

    def test_optimized(self, efind_env):
        profiler = efind_env.runner()
        profiler.run(
            efind_env.make_job("lt-profile"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        res = efind_env.runner(catalog=profiler.catalog).run(
            efind_env.make_job("lt-optimized"), mode="static"
        )
        assert res.num_stages == 2
        assert sorted(res.output) == reference(efind_env.dfs)
        assert efind_env.dfs.listdir("/_efind") == []
        assert efind_env.dfs.exists("/out/lt-optimized")

    def test_dynamic_mid_map_resume(self, efind_env):
        res = efind_env.runner(plan_change_overhead=0.5).run(
            efind_env.make_job("lt-dynamic"), mode="dynamic"
        )
        assert res.replanned and res.replan_phase == "map"
        assert sorted(res.output) == reference(efind_env.dfs)
        assert_only_declared_output(efind_env.dfs, "lt-dynamic")
        # The resume has read the finished map tasks' output.
        for run in res.stage_results[0].map_runs:
            assert run.output == [] and run.output_sizes is None


class Box:
    """A value the tests can hold weakly; slotted like the engine's own."""

    __slots__ = ("value", "__weakref__")
    made = weakref.WeakSet()

    def __init__(self, value):
        self.value = value
        Box.made.add(self)

    def wire_size(self):
        return 8

    @classmethod
    def alive(cls):
        gc.collect()
        return {id(box) for box in cls.made}


def reachable_boxes(output):
    return {id(value) for _, value in output if isinstance(value, Box)}


class BoxingOperator(IndexOperator):
    """``(user, payload)`` -> ``(city, Box(payload))``."""

    def pre_process(self, key, value, index_input):
        user, payload = value
        index_input.put(0, user)
        return key, Box(payload)

    def post_process(self, key, value, index_output, collector):
        cities = index_output.get(0).get_all()
        collector.collect(cities[0] if cities else "unknown", value)


def _boxed_count(key, values):
    yield (key, Box(len(values)))


class TestOnlyTheOutputStaysAlive:
    def test_job_runner(self, efind_env):
        conf = JobConf(
            name="lt-boxes",
            input_paths=["/in/events"],
            output_path="/out/lt-boxes",
            map_chain=[FnMapper(lambda k, v: [(v[0], Box(v[1]))], "box")],
            reducer=FnReducer(_boxed_count, "count"),
            num_reduce_tasks=8,
        )
        before = Box.alive()
        res = JobRunner(efind_env.cluster, efind_env.dfs).run(conf)
        made = Box.alive() - before
        assert made and made == reachable_boxes(res.output)
        assert sum(box.value for _, box in res.output) == efind_env.num_records

    def test_efind_runner_under_repart(self, efind_env):
        job = IndexJobConf("lt-repart-boxes")
        job.set_input_paths("/in/events").set_output_path("/out/lt-repart-boxes")
        job.set_mapper(FnMapper(lambda k, v: [(k, v)], "ident"))
        job.set_reducer(FnReducer(_boxed_count, "count"), num_reduce_tasks=8)
        job.add_head_index_operator(
            BoxingOperator("box-op").add_index(IndexAccessor(efind_env.kv))
        )
        before = Box.alive()
        res = efind_env.runner().run(
            job,
            mode="forced",
            forced_strategy=Strategy.REPART,
            extra_job_targets=["head0"],
        )
        assert res.num_stages == 2
        made = Box.alive() - before
        assert made and made == reachable_boxes(res.output)
        counts = sorted((city, box.value) for city, box in res.output)
        assert counts == reference(efind_env.dfs)
