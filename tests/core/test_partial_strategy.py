"""The PARTIAL hybrid strategy and the build gates, end to end: planner
eligibility under partial coverage, coverage-blended costs, scan-assisted
execution, warming trajectories, and the full-coverage/prebuilt
equivalence contract."""

import pytest

from repro.core.costmodel import (
    DEFAULT_SCAN_MULTIPLIER,
    CostEnv,
    Placement,
    Strategy,
    cost_cache,
    cost_partial,
    scan_lookup_time,
)
from repro.core.optimizer import eligible_strategies
from repro.core.statistics import IndexStats, OperatorStats
from repro.indices.build import BuildSession


def _stats(coverage):
    op = OperatorStats(n1=1000.0)
    op.per_index[0] = IndexStats(nik=1.0, theta=4.0, build_coverage=coverage)
    return op


def _env():
    return CostEnv(
        bw=100e6, f=0.3, t_cache=1e-6, extra_job_overhead=3.0, latency=1e-4
    )


class TestPartialPlanning:
    @pytest.mark.parametrize("coverage", [0.25, 0.5, 0.99])
    def test_partial_replaces_cache_while_building(self, coverage):
        out = eligible_strategies(
            _stats(coverage), 0, supports_locality=False, allow_extra_job=True
        )
        assert Strategy.PARTIAL in out
        assert Strategy.CACHE not in out
        assert Strategy.BASELINE in out

    @pytest.mark.parametrize("coverage", [0.0, 1.0])
    def test_boundary_coverage_keeps_pre_build_set(self, coverage):
        out = eligible_strategies(
            _stats(coverage), 0, supports_locality=False, allow_extra_job=True
        )
        assert Strategy.CACHE in out
        assert Strategy.PARTIAL not in out

    def test_non_idempotent_still_pins_baseline(self):
        out = eligible_strategies(
            _stats(0.5),
            0,
            supports_locality=False,
            allow_extra_job=True,
            idempotent=False,
        )
        assert out == [Strategy.BASELINE]

    def test_cost_partial_degenerates_to_cache_at_full_coverage(self):
        env, op = _env(), _stats(1.0)
        idx = op.index(0)
        assert cost_partial(env, op, idx, Placement.BEFORE_MAP) == cost_cache(
            env, op, idx
        )

    def test_cost_partial_is_scan_cost_at_zero_coverage(self):
        env, op = _env(), _stats(0.0)
        idx = op.index(0)
        expected = op.n1 * idx.nik * scan_lookup_time(env, idx)
        assert cost_partial(env, op, idx, Placement.BEFORE_MAP) == pytest.approx(
            expected
        )

    def test_cost_partial_monotone_in_coverage(self):
        env = _env()
        costs = [
            cost_partial(
                env, _stats(c), _stats(c).index(0), Placement.BEFORE_MAP
            )
            for c in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert costs == sorted(costs, reverse=True)
        assert costs[0] > costs[-1]

    def test_unsampled_scan_uses_default_multiplier(self):
        env, op = _env(), _stats(0.5)
        idx = op.index(0)
        assert idx.build_scan_tj == 0.0
        slow = scan_lookup_time(env, idx)
        fast = (idx.sik + idx.siv) / env.lookup_bw + env.latency + idx.tj
        assert slow - fast == pytest.approx(
            (DEFAULT_SCAN_MULTIPLIER - 1.0) * idx.tj
        )


def _run(env, session, name, strategy=Strategy.CACHE, mode="forced", obs=None):
    env.kv.reset_accounting()
    runner = env.runner(build=session, obs=obs)
    if mode == "forced":
        return runner.run(
            env.make_job(name), mode="forced", forced_strategy=strategy
        )
    return runner.run(env.make_job(name), mode=mode)


class TestBuildGatesExecution:
    def test_zero_coverage_scans_everything(self, efind_env):
        session = BuildSession({efind_env.kv.name: efind_env.kv})
        result = _run(efind_env, session, "scan-all")
        build = result.counters.group("build")
        assert build["unindexed_lookups"] == efind_env.num_records
        assert build.get("indexed_lookups", 0) == 0
        assert build["scan_seconds"] > 0
        # The builder piggybacked on the same job.
        assert build["records_indexed"] > 0
        assert build["build_seconds"] > 0

    def test_output_identical_to_unbuilt_run(self, efind_env):
        plain = _run(efind_env, None, "plain")
        session = BuildSession({efind_env.kv.name: efind_env.kv})
        partial = _run(efind_env, session, "gated")
        assert sorted(partial.output) == sorted(plain.output)

    def test_forced_partial_matches_forced_cache(self, efind_env):
        mk = lambda: BuildSession({efind_env.kv.name: efind_env.kv})
        sess_a, sess_b = mk(), mk()
        sess_a.manager.advance(efind_env.kv.name, 0.5)
        sess_b.manager.advance(efind_env.kv.name, 0.5)
        cache = _run(efind_env, sess_a, "half-cache", Strategy.CACHE)
        partial = _run(efind_env, sess_b, "half-partial", Strategy.PARTIAL)
        assert sorted(partial.output) == sorted(cache.output)
        assert partial.sim_time == cache.sim_time

    def test_full_coverage_run_equals_prebuilt_exactly(self, efind_env):
        """The acceptance contract: a session at 100% coverage is
        indistinguishable -- plan, counters, simulated time -- from no
        build subsystem at all."""
        prebuilt = _run(efind_env, None, "pre")
        session = BuildSession({efind_env.kv.name: efind_env.kv})
        session.manager.complete(efind_env.kv.name)
        built = _run(efind_env, session, "pre")  # same name: same schedule
        assert built.sim_time == prebuilt.sim_time
        assert sorted(built.output) == sorted(prebuilt.output)
        # Only the free coverage telemetry remains; nothing cost-bearing.
        build = built.counters.group("build")
        assert set(build) == {"indexed_lookups"}

    def test_full_coverage_dynamic_run_equals_prebuilt_exactly(self, efind_env):
        prebuilt = _run(efind_env, None, "dyn", mode="dynamic")
        session = BuildSession({efind_env.kv.name: efind_env.kv})
        session.manager.complete(efind_env.kv.name)
        built = _run(efind_env, session, "dyn", mode="dynamic")
        assert built.sim_time == prebuilt.sim_time
        assert sorted(built.output) == sorted(prebuilt.output)

    def test_scans_cost_more_than_indexed_lookups(self, efind_env):
        empty = BuildSession({efind_env.kv.name: efind_env.kv})
        full = BuildSession({efind_env.kv.name: efind_env.kv})
        full.manager.complete(efind_env.kv.name)
        unbuilt = _run(efind_env, empty, "slow")
        covered = _run(efind_env, full, "fast")
        assert unbuilt.sim_time > covered.sim_time

    def test_warming_trajectory_converges_and_speeds_up(self, efind_env):
        """Three jobs at fraction 1/3 walk coverage 0 -> 1/3 -> 2/3 -> 1
        with strictly decreasing scan counts and lookup+scan time."""
        kv = efind_env.kv
        session = BuildSession({kv.name: kv}, fraction=1.0 / 3.0)
        scans, times = [], []
        for i, want in enumerate((0.0, 1 / 3, 2 / 3)):
            assert session.coverage(kv.name) == pytest.approx(want)
            result = _run(efind_env, session, f"warm-{i}")
            scans.append(
                result.counters.group("build").get("unindexed_lookups", 0)
            )
            times.append(result.sim_time)
        assert session.coverage(kv.name) == 1.0
        assert scans[0] > scans[1] > scans[2] > 0
        assert times[0] > times[1] > times[2]
        # Converged: the next run neither scans nor builds.
        final = _run(efind_env, session, "warm-done")
        build = final.counters.group("build")
        assert build.get("unindexed_lookups", 0) == 0
        assert build.get("build_seconds", 0.0) == 0.0
        assert build.get("scan_seconds", 0.0) == 0.0

    def test_coverage_frozen_within_a_job(self, efind_env):
        """Coverage only commits at the job boundary, so one job's scan
        count matches its entry coverage exactly."""
        kv = efind_env.kv
        session = BuildSession({kv.name: kv}, fraction=1.0)
        result = _run(efind_env, session, "freeze")
        # Entered at 0 coverage: every lookup scanned even though the
        # job itself built the whole index.
        build = result.counters.group("build")
        assert build["unindexed_lookups"] == efind_env.num_records
        assert session.coverage(kv.name) == 1.0


class TestPartialAudit:
    def test_adaptive_audit_carries_build_state(self, efind_env):
        from repro.obs import Observability

        kv = efind_env.kv
        session = BuildSession({kv.name: kv}, fraction=1.0 / 3.0)
        session.manager.advance(kv.name, 1.0 / 3.0)
        result = _run(
            efind_env, session, "audited", mode="dynamic", obs=Observability()
        )
        evaluated = [r for r in result.audit if r.operators]
        assert evaluated, "expected at least one stable-stats evaluation"
        for record in evaluated:
            for op in record.operators:
                for sample in op["stats"]["per_index"].values():
                    assert sample["build_coverage"] == pytest.approx(1 / 3)
                    assert "build_debt" in sample
                for table in op["strategies"].values():
                    assert "partial" in table["costs"]
                    assert "partial" in table["eligible"]
                    assert "cache" not in table["eligible"]

    def test_explain_reports_partial_coverage(self, efind_env):
        from repro.core.explain import explain

        kv = efind_env.kv
        session = BuildSession({kv.name: kv})
        session.manager.advance(kv.name, 0.5)
        runner = efind_env.runner(build=session)
        job = efind_env.make_job("exp")
        result = runner.run(job, mode="forced", forced_strategy=Strategy.CACHE)
        text = explain(
            efind_env.make_job("exp"), runner=runner, result=result
        )
        assert "build coverage:" in text
        assert "build.*:" in text

    def test_rebuild_invalidates_reuse_store(self, efind_env):
        from repro.core.reuse import ReuseStore

        kv = efind_env.kv
        reuse = ReuseStore()
        build = BuildSession({kv.name: kv})
        build.manager.complete(kv.name)

        def run(name):
            efind_env.kv.reset_accounting()
            runner = efind_env.runner(build=build, reuse=reuse)
            return runner.run(
                efind_env.make_job(name),
                mode="forced",
                forced_strategy=Strategy.CACHE,
            )

        run("seed")
        warm = run("warm")
        assert warm.counters.group("reuse")["hits"] > 0
        build.rebuild(kv.name)
        build.manager.complete(kv.name)  # contents unchanged, epoch bumped
        stale = run("stale")
        assert stale.counters.group("reuse").get("hits", 0) == 0
        assert stale.counters.group("reuse")["stale_drops"] > 0
