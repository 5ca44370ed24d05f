"""The observer-effect guarantee and end-to-end trace acceptance.

Tracing must be purely passive: attaching an :class:`Observability` to
a runner cannot change simulated times, counters, or outputs, and with
tracing disabled the runtime takes the exact pre-observability code
paths (``ctx.trace`` stays None).
"""

import pytest

from repro.obs import Observability
from repro.obs.export import (
    max_event_depth,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.trace import DEPTH_OP, DEPTH_TASK


class TestObserverEffect:
    def test_tracing_changes_nothing_simulated(self, efind_env):
        plain = efind_env.runner().run(
            efind_env.make_job("oe-plain"), mode="dynamic"
        )
        obs = Observability()
        traced = efind_env.runner(obs=obs).run(
            efind_env.make_job("oe-traced"), mode="dynamic"
        )
        assert traced.sim_time == plain.sim_time
        assert traced.counters.to_dict() == plain.counters.to_dict()
        assert sorted(traced.output) == sorted(plain.output)
        assert len(obs.tracer) > 0  # and yet the trace is rich

    def test_forced_mode_tracing_is_also_passive(self, efind_env):
        from repro.core.costmodel import Strategy

        plain = efind_env.runner().run(
            efind_env.make_job("oe-f"),
            mode="forced",
            forced_strategy=Strategy.CACHE,
        )
        obs = Observability()
        traced = efind_env.runner(obs=obs).run(
            efind_env.make_job("oe-f2"),
            mode="forced",
            forced_strategy=Strategy.CACHE,
        )
        assert traced.sim_time == plain.sim_time


class TestLiveObserverEffect:
    """The live leg: a session with the full default rule set folds the
    recording when the run ends, so it is as passive as tracing
    itself."""

    def test_subscribed_bus_changes_nothing_simulated(self, efind_env):
        from repro.obs.live import LiveSession, recording_rows, samples

        plain = efind_env.runner().run(
            efind_env.make_job("oe-live-ref"), mode="dynamic"
        )
        session = LiveSession()
        obs = Observability(bus=session.bus)
        live = efind_env.runner(obs=obs).run(
            efind_env.make_job("oe-live"), mode="dynamic"
        )
        session.finish()
        assert samples(recording_rows(obs.tracer))  # the fold had input
        assert live.sim_time == plain.sim_time
        assert live.counters.to_dict() == plain.counters.to_dict()
        assert sorted(live.output) == sorted(plain.output)

    def test_per_task_publish_is_passive_and_complete(self, efind_env):
        """Nothing is judged while the job runs. ``finish()`` folds every
        recorded task span, once, and the simulation is bit-identical to
        a run without."""
        from repro.obs.live import LiveSession

        plain = efind_env.runner().run(
            efind_env.make_job("oe-task-ref"), mode="dynamic"
        )
        # Fires on the first map task's sample and never clears, so its
        # sample count is the number of map tasks the fold saw.
        session = LiveSession(rules=[{
            "name": "any-map", "metric": "throughput.map",
            "predicate": {"type": "threshold", "op": ">=", "value": 0.0},
        }])
        obs = Observability(bus=session.bus)
        assert session.bus == [obs.tracer]
        live = efind_env.runner(obs=obs).run(
            efind_env.make_job("oe-task"), mode="dynamic"
        )
        assert session.alerts == []
        session.finish()
        assert live.sim_time == plain.sim_time
        assert live.counters.to_dict() == plain.counters.to_dict()
        assert sorted(live.output) == sorted(plain.output)

        maps = [
            s for s in obs.tracer.spans
            if s.name == "task" and s.args["kind"] == "map"
        ]
        (alert,) = session.alerts
        assert maps and alert.samples == len(maps)
        # A recording is folded once.
        assert session.bus == []
        session.finish()
        assert session.alerts == [alert] and alert.samples == len(maps)

    def test_alert_timeline_byte_deterministic_across_processes(self, tmp_path):
        """The exported alerts.jsonl of the same run is byte-identical
        under different ``PYTHONHASHSEED`` values: no iteration-order
        or hash-randomized state leaks into the timeline."""
        import os
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            import sys
            from repro.bench.harness import bench_cluster
            from repro.core.runner import EFindRunner
            from repro.dfs.filesystem import DistributedFileSystem
            from repro.obs import Observability
            from repro.obs.live import LiveSession
            from repro.simcluster.faults import FaultPlan
            from repro.workloads import tpch

            cluster = bench_cluster()
            dfs = DistributedFileSystem(cluster, block_size=12 * 1024)
            data = tpch.generate(tpch.TpchConfig(sf=0.002))
            tpch.write_lineitem(dfs, "/in/lineitem", data)
            indexes = tpch.build_indexes(cluster, data, service_time=6e-3)
            session = LiveSession()
            obs = Observability(bus=session.bus)
            EFindRunner(
                cluster, dfs, obs=obs,
                fault_plan=FaultPlan(seed=7, straggler_factors={"node05": 4.0}),
            ).run(
                tpch.make_q3_job("hs", "/in/lineitem", "/out/hs", indexes),
                mode="dynamic",
            )
            session.finish()
            session.export_alerts(sys.argv[1])
            """
        )
        outputs = []
        for seed in ("0", "31337"):
            out = tmp_path / f"alerts-{seed}.jsonl"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), "src") if p
            )
            subprocess.run(
                [sys.executable, "-c", script, str(out)],
                check=True,
                env=env,
                cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"wave-straggler" in outputs[0]  # the run really alerted


class TestTraceStructure:
    def test_spans_cover_all_levels(self, efind_env):
        obs = Observability()
        res = efind_env.runner(obs=obs).run(
            efind_env.make_job("ts-levels"), mode="dynamic"
        )
        t = obs.tracer
        cats = {s.cat for s in t.spans}
        assert {"job", "stage", "phase", "wave", "task", "op"} <= cats
        assert t.max_depth() >= DEPTH_OP
        (job_span,) = t.spans_named("efind:ts-levels")
        assert job_span.start == res.start_time
        assert job_span.end == res.end_time

    def test_every_task_attempt_has_a_span(self, efind_env):
        obs = Observability()
        res = efind_env.runner(obs=obs).run(
            efind_env.make_job("ts-tasks"), mode="dynamic"
        )
        task_spans = obs.tracer.spans_named("task")
        attempts = sum(
            len(sr.map_runs) + len(sr.reduce_runs)
            for sr in res.stage_results
        )
        assert len(task_spans) == attempts
        for s in task_spans:
            assert s.depth == DEPTH_TASK
            assert s.args["kind"] in ("map", "reduce")
            # tasks nest inside their job span
            assert res.start_time <= s.start <= s.end <= res.end_time

    def test_metrics_fold_lookup_latencies(self, efind_env):
        obs = Observability()
        efind_env.runner(obs=obs).run(
            efind_env.make_job("ts-metrics"), mode="dynamic"
        )
        snap = obs.metrics.to_dict()
        assert snap["counters"]["trace.lookup.count"] > 0
        hist = snap["histograms"]["trace.lookup.latency_s"]
        assert hist["count"] == snap["counters"]["trace.lookup.count"]
        # job counters snapshotted next to trace metrics
        assert any(k.startswith("job.ts-metrics.") for k in snap["gauges"])


@pytest.fixture(scope="module")
def q3_traced():
    """One dynamic TPC-H Q3 run (the Figure 11(b) workload) with full
    observability attached."""
    from repro.bench.harness import bench_cluster
    from repro.core.runner import EFindRunner
    from repro.dfs.filesystem import DistributedFileSystem
    from repro.workloads import tpch

    cluster = bench_cluster()
    dfs = DistributedFileSystem(cluster, block_size=12 * 1024)
    data = tpch.generate(tpch.TpchConfig(sf=0.002))
    tpch.write_lineitem(dfs, "/in/lineitem", data)
    indexes = tpch.build_indexes(cluster, data, service_time=6e-3)
    obs = Observability()
    runner = EFindRunner(cluster, dfs, obs=obs)
    result = runner.run(
        tpch.make_q3_job("q3-traced", "/in/lineitem", "/out/q3-traced", indexes),
        mode="dynamic",
    )
    return obs, result


class TestTpchQ3Acceptance:
    """The PR's acceptance criterion: the exported Chrome trace for a
    TPC-H Q3 run loads with >= 4 span nesting levels and a complete
    Algorithm-1 audit record for every re-optimization point."""

    def test_chrome_trace_validates_with_deep_nesting(self, q3_traced):
        obs, _result = q3_traced
        payload = to_chrome_trace(obs.tracer)
        assert validate_chrome_trace(payload) == []
        assert max_event_depth(payload) >= 4

    def test_audit_complete_for_every_evaluation(self, q3_traced):
        obs, result = q3_traced
        assert len(obs.audit) >= 1
        for record in obs.audit.records:
            assert record.verdict in (
                "no_relevant_operators",
                "variance_gate_failed",
                "improvement_below_threshold",
                "same_strategies",
                "replan",
            )
            assert record.gate or record.verdict == "no_relevant_operators"
            if record.verdict == "replan":
                assert record.operators, "replan without cost detail"
                for op in record.operators:
                    for table in op["strategies"].values():
                        assert set(table["costs"]) == {
                            "base", "cache", "repart", "idxloc", "partial",
                        }
        if result.replanned:
            assert obs.audit.applied, "applied replan missing from audit"
            assert obs.audit.applied[0].reuse.get("cutover") in (
                "mid-map", "mid-reduce",
            )

    def test_export_round_trips(self, q3_traced, tmp_path, capsys):
        obs, _result = q3_traced
        paths = obs.export(str(tmp_path), "q3")
        from repro.obs.analysis.__main__ import main

        assert main(["report", paths["trace"]]) == 0
        report = capsys.readouterr().out
        assert "job q3-traced: " in report and "task(s) on path" in report
        assert "adaptive evaluation" in report
