"""Straggler & skew profiling: distribution math, cause attribution,
and behavior on real traced runs."""

import random

import pytest

from repro.core.accessor import IndexAccessor
from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.core.runner import EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import FnMapper, FnReducer
from repro.obs import Observability
from repro.obs.analysis import load_artifacts
from repro.obs.analysis.stragglers import (
    coefficient_of_variation,
    gini,
    phase_profiles,
    render,
)
from repro.obs.trace import (
    DEPTH_JOB,
    DEPTH_OP,
    DEPTH_PHASE,
    DEPTH_STAGE,
    DEPTH_TASK,
    DRIVER_TRACK,
    slot_track,
)
from repro.simcluster.cluster import Cluster
from repro.simcluster.faults import FaultPlan


class TestDistributionMath:
    def test_gini_even(self):
        assert gini([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_gini_concentrated(self):
        # one task holds everything: G = (n-1)/n
        assert gini([0.0, 0.0, 0.0, 12.0]) == pytest.approx(0.75)

    def test_gini_degenerate(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0]) == 0.0

    def test_cv(self):
        assert coefficient_of_variation([2.0, 2.0]) == 0.0
        assert coefficient_of_variation([1.0]) == 0.0
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)


def _task(stage, idx, kind, wave, track, start, dur, op_totals=None, name="task"):
    marker = "m" if kind == "map" else "r"
    return {
        "name": name, "cat": "task", "track": track, "start": start,
        "dur": dur, "depth": DEPTH_TASK,
        "args": {
            "task": f"{stage}-{marker}{idx:04d}", "kind": kind, "wave": wave,
            "op_totals": op_totals or {},
        },
    }


def _profiles(task_spans, stage="j"):
    """``phase_profiles`` over hand-built task spans, wrapped in the
    enclosing job/stage/phase spans every real export has."""
    def driver(name, depth, **args):
        return {
            "name": name, "cat": "job", "track": DRIVER_TRACK, "start": 0.0,
            "dur": 10.0, "depth": depth, "args": dict(args, job=stage),
        }

    kinds = sorted(
        {s["args"]["kind"] for s in task_spans if s["depth"] == DEPTH_TASK}
    )
    return phase_profiles(
        task_spans
        + [driver(f"efind:{stage}", DEPTH_JOB), driver(stage, DEPTH_STAGE)]
        + [driver(kind, DEPTH_PHASE, kind=kind) for kind in kinds]
    )


class TestCauseAttribution:
    def _wave(self, slow_totals, slow_dur=1.0):
        spans = [
            _task("j", i, "map", 0, slot_track(f"n{i}", "map", 0), 0.0, 0.2,
                  op_totals={"lookup": [10, 0.05], "dfs.read": [1, 0.01]})
            for i in range(4)
        ]
        spans.append(
            _task("j", 9, "map", 0, slot_track("n9", "map", 0), 0.0, slow_dur,
                  op_totals=slow_totals)
        )
        return spans

    def _one_straggler(self, spans):
        (profile,) = _profiles(spans)
        assert len(profile.stragglers) == 1
        return profile.stragglers[0]

    def test_fault_retries_win_outright(self):
        s = self._one_straggler(
            self._wave({"lookup": [10, 0.9], "lookup.retry": [7, 0.0]})
        )
        assert s.cause == "fault-retries"
        assert s.evidence["lookup.retry.count"][0] == 7

    def test_slow_lookups(self):
        s = self._one_straggler(
            self._wave({"lookup": [10, 0.9], "index.fetch": [10, 0.8],
                        "dfs.read": [1, 0.01]})
        )
        # peers have no index.fetch at all -> median 0 -> not a burst
        assert s.cause == "slow-lookups"

    def test_cache_miss_burst(self):
        spans = [
            _task("j", i, "map", 0, slot_track(f"n{i}", "map", 0), 0.0, 0.2,
                  op_totals={"lookup": [10, 0.05], "cache.probe": [10, 0.001],
                             "index.fetch": [4, 0.04]})
            for i in range(4)
        ]
        spans.append(
            _task("j", 9, "map", 0, slot_track("n9", "map", 0), 0.0, 1.0,
                  op_totals={"lookup": [10, 0.9], "cache.probe": [10, 0.001],
                             "index.fetch": [40, 0.85]})
        )
        s = self._one_straggler(spans)
        assert s.cause == "cache-miss-burst"
        assert s.evidence["index.fetch.count"] == (40.0, 4.0)
        assert s.evidence["cache.probe.count"] == (10.0, 10.0)

    def test_probe_free_task_never_a_cache_miss_burst(self):
        # Regression: a baseline-strategy task records index.fetch ops
        # but zero cache.probe ops (it has no cache to miss). Its excess
        # fetches are plain lookup volume and must attribute to
        # slow-lookups, not to a cache-miss burst.
        spans = [
            _task("j", i, "map", 0, slot_track(f"n{i}", "map", 0), 0.0, 0.2,
                  op_totals={"lookup": [10, 0.05], "index.fetch": [4, 0.04]})
            for i in range(4)
        ]
        spans.append(
            _task("j", 9, "map", 0, slot_track("n9", "map", 0), 0.0, 1.0,
                  op_totals={"lookup": [10, 0.9], "index.fetch": [40, 0.85]})
        )
        s = self._one_straggler(spans)
        assert s.cause == "slow-lookups"
        assert "cache.probe.count" not in s.evidence

    def test_input_skew(self):
        s = self._one_straggler(
            self._wave({"lookup": [10, 0.05], "dfs.read": [1, 0.9]})
        )
        assert s.cause == "input-skew"

    def test_slow_compute_residual(self):
        s = self._one_straggler(self._wave({"lookup": [10, 0.05]}))
        assert s.cause == "slow-compute"

    def test_partition_skew_on_reducers(self):
        spans = []
        for i in range(4):
            spans.append(
                _task("j", i, "reduce", 0, slot_track(f"n{i}", "reduce", 0),
                      0.0, 0.2, op_totals={"shuffle.fetch": [8, 0.05]})
            )
            spans.append({
                "name": "shuffle.fetch", "cat": "op",
                "track": slot_track(f"n{i}", "reduce", 0),
                "start": 0.0, "dur": 0.05, "depth": DEPTH_OP,
                "args": {"task": f"j-r{i:04d}", "bytes": 1000.0},
            })
        spans.append(
            _task("j", 9, "reduce", 0, slot_track("n9", "reduce", 0), 0.0, 1.0,
                  op_totals={"shuffle.fetch": [80, 0.9]})
        )
        spans.append({
            "name": "shuffle.fetch", "cat": "op",
            "track": slot_track("n9", "reduce", 0),
            "start": 0.0, "dur": 0.9, "depth": DEPTH_OP,
            "args": {"task": "j-r0009", "bytes": 9000.0},
        })
        (profile,) = _profiles(spans)
        (s,) = profile.stragglers
        assert s.cause == "partition-skew"
        assert s.evidence["input.bytes"] == (9000.0, 1000.0)
        assert profile.input_gini > 0.3

    def test_crashed_attempts_not_profiled_as_tasks(self):
        spans = self._wave({"lookup": [10, 0.05]})
        spans.append(
            _task("j", 5, "map", 0, slot_track("n5", "map", 0), 0.0, 5.0,
                  name="task.crash")
        )
        (profile,) = _profiles(spans)
        assert profile.tasks == 5  # the crash span is excluded


def _killed(stage, idx, kind, wave, track, projected, role="primary"):
    marker = "m" if kind == "map" else "r"
    return {
        "name": "task.killed", "cat": "task", "track": track, "start": 0.0,
        "dur": 0.3, "depth": DEPTH_TASK,
        "args": {
            "task": f"{stage}-{marker}{idx:04d}", "kind": kind, "wave": wave,
            "role": role, "projected_dur": projected,
        },
    }


class TestSpeculationMitigation:
    """A straggler whose primary was killed by a winning backup never
    materialises as a slow ``task`` span; its *projected* duration is
    judged instead and attributed to ``mitigated-by-speculation``."""

    def _wave(self, n=4, dur=0.2):
        return [
            _task("j", i, "map", 0, slot_track(f"n{i}", "map", 0), 0.0, dur,
                  op_totals={"lookup": [10, 0.05]})
            for i in range(n)
        ]

    def test_killed_primary_over_threshold_is_mitigated(self):
        spans = self._wave()
        spans.append(
            _killed("j", 9, "map", 0, slot_track("n9", "map", 0), 1.0)
        )
        (profile,) = _profiles(spans)
        (s,) = profile.stragglers
        assert s.cause == "mitigated-by-speculation"
        assert s.duration == 1.0  # the projected, not the killed stub
        assert s.slowdown == pytest.approx(1.0 / 0.2)
        assert s.evidence["projected.seconds"] == (1.0, 0.2)

    def test_killed_primary_below_threshold_not_flagged(self):
        spans = self._wave()
        spans.append(
            _killed("j", 9, "map", 0, slot_track("n9", "map", 0), 0.25)
        )
        (profile,) = _profiles(spans)
        assert profile.stragglers == []

    def test_killed_backup_spans_ignored(self):
        # A *lost* backup's kill span carries role="backup"; it is
        # scheduler bookkeeping, never a straggler.
        spans = self._wave()
        spans.append(
            _killed("j", 9, "map", 0, slot_track("n9", "map", 0), 5.0,
                    role="backup")
        )
        (profile,) = _profiles(spans)
        assert profile.stragglers == []

    def test_killed_primary_needs_completed_wave_peers(self):
        # With fewer than two completed peers there is no wave median to
        # judge the projection against.
        spans = self._wave(n=1)
        spans.append(
            _killed("j", 9, "map", 0, slot_track("n9", "map", 0), 5.0)
        )
        (profile,) = _profiles(spans)
        assert profile.stragglers == []


class _CityOp(IndexOperator):
    def pre_process(self, key, value, index_input):
        user, payload = value
        index_input.put(0, user)
        return key, payload

    def post_process(self, key, value, index_output, collector):
        cities = index_output.get(0).get_all()
        collector.collect(cities[0] if cities else "unknown", value)


def _slow_host_run(tmp_path, tag, speculation_factor):
    """Lookup-heavy job on a 12-node cluster with one x4-slow host;
    fresh environment per run so the runs are fully independent."""
    cluster = Cluster(num_nodes=12, map_slots_per_node=2, reduce_slots_per_node=2)
    dfs = DistributedFileSystem(cluster, block_size=32 * 1024)
    rng = random.Random(13)
    records = [
        (i, (f"user{rng.randrange(400):04d}", "x" * 150)) for i in range(8000)
    ]
    dfs.write("/in/events", records)
    kv = DistributedKVStore("profiles", cluster, service_time=20e-3)
    for u in range(400):
        kv.put_unique(f"user{u:04d}", f"city{u % 25:02d}")
    job = IndexJobConf("st-spec")
    job.set_input_paths("/in/events").set_output_path("/out/st-spec")
    job.add_head_index_operator(_CityOp("city-op").add_index(IndexAccessor(kv)))
    job.set_mapper(FnMapper(lambda k, v: [(k, v)], "ident"))
    job.set_reducer(
        FnReducer(lambda k, vs: [(k, len(vs))], "count"), num_reduce_tasks=8
    )
    obs = Observability()
    runner = EFindRunner(
        cluster,
        dfs,
        fault_plan=FaultPlan(seed=7, straggler_factors={"node05": 4.0}),
        speculation_factor=speculation_factor,
        obs=obs,
    )
    result = runner.run(job, mode="forced", forced_strategy=Strategy.CACHE)
    obs.export(str(tmp_path / tag), "st-spec")
    (artifact,) = load_artifacts(str(tmp_path / tag))
    return result, phase_profiles(artifact.spans)


class TestSpeculationDifferentialClassification:
    def test_slow_host_cause_flips_with_speculation(self, tmp_path):
        """The same seeded slow host reads ``slow-lookups`` with
        speculation off and ``mitigated-by-speculation`` with it on --
        same tasks flagged either way, so the tail is explained, not
        hidden."""
        off_result, off_profiles = _slow_host_run(tmp_path, "off", None)
        on_result, on_profiles = _slow_host_run(tmp_path, "on", 1.5)

        def map_stragglers(profiles):
            return {
                s.task: s
                for p in profiles
                if p.kind == "map"
                for s in p.stragglers
            }

        off_s = map_stragglers(off_profiles)
        on_s = map_stragglers(on_profiles)
        assert off_s, "the x4 host must produce map stragglers"
        assert set(on_s) == set(off_s)  # same tail tasks either way
        for s in off_s.values():
            assert s.cause != "mitigated-by-speculation"
        for s in on_s.values():
            assert s.cause == "mitigated-by-speculation"
            assert "projected.seconds" in s.evidence
        # And the mitigation is real: backups won and the clock moved.
        spec = on_result.counters.group("spec")
        assert spec.get("backups_won", 0) == len(on_s)
        assert on_result.sim_time < off_result.sim_time
        assert sorted(on_result.output) == sorted(off_result.output)


class TestRealRun:
    def test_profiles_cover_every_phase(self, efind_env, tmp_path):
        obs = Observability()
        efind_env.runner(obs=obs).run(
            efind_env.make_job("st-dyn"), mode="dynamic"
        )
        obs.export(str(tmp_path), "st-dyn")
        (artifact,) = load_artifacts(str(tmp_path))
        profiles = phase_profiles(artifact.spans)
        kinds = {(p.stage, p.kind) for p in profiles}
        assert any(k == "map" for _, k in kinds)
        assert any(k == "reduce" for _, k in kinds)
        for p in profiles:
            assert p.tasks == sum(w.tasks for w in p.waves)
            assert 0.0 <= p.input_gini < 1.0
        text = "\n".join(render(profiles))
        assert "wave 0" in text

    def test_replanned_run_profiled_per_stage_attempt(self, tmp_path):
        """A dynamic replan aborts the main stage after its first wave
        and re-runs the rest under a new plan and the same conf name.
        Pooled by task id, the clean-cluster Fig. 11(b) Q3 run reads as
        one 66-task map phase whose "wave 0" mixes 24 baseline-plan
        with 24 cache-plan tasks -- 20 bogus slow-lookups stragglers."""
        from repro.bench.harness import bench_cluster
        from repro.workloads import tpch

        cluster = bench_cluster()
        dfs = DistributedFileSystem(cluster, block_size=12 * 1024)
        data = tpch.generate(tpch.TpchConfig(sf=0.002))
        tpch.write_lineitem(dfs, "/in/lineitem", data)
        indexes = tpch.build_indexes(cluster, data, service_time=6e-3)
        obs = Observability()
        result = EFindRunner(cluster, dfs, obs=obs).run(
            tpch.make_q3_job("q3-dyn", "/in/lineitem", "/out/q3-dyn", indexes),
            mode="dynamic",
        )
        assert result.replanned
        obs.export(str(tmp_path), "q3-dyn")
        (artifact,) = load_artifacts(str(tmp_path))
        profiles = phase_profiles(artifact.spans)
        slots = {
            "map": cluster.total_map_slots,
            "reduce": cluster.total_reduce_slots,
        }
        for p in profiles:
            assert all(w.tasks <= slots[p.kind] for w in p.waves), (p.stage, p.kind)
        assert [p.attempt for p in profiles if p.kind == "map"] == [0, 1]
        assert [s.task for p in profiles for s in p.stragglers] == []

    def test_deterministic(self, efind_env, tmp_path):
        results = []
        for i in range(2):
            obs = Observability()
            efind_env.runner(obs=obs).run(
                efind_env.make_job("st-det"), mode="dynamic"
            )
            obs.export(str(tmp_path / str(i)), "st-det")
            (artifact,) = load_artifacts(str(tmp_path / str(i)))
            results.append([p.to_dict() for p in phase_profiles(artifact.spans)])
        assert results[0] == results[1]
