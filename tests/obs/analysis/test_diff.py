"""Two-run differential analysis: exactness and attribution.

The two contract-level invariants (also pinned on real bench artifacts
by ``benchmarks/test_trace_diff.py``):

* ``diff(run, run)`` is exactly ``0.0`` at every hierarchy level;
* on any pair, contributors sum to the total sim-time delta to within
  1e-9, with unmatched spans as explicit added/removed contributors.

Plus the analysis layers on top: op-level attribution from
``op_totals``, audit verdict flips with the largest moved term named,
counter and alert-timeline deltas, and the three CLI surfaces.
"""

import json

import pytest

from repro.obs.analysis.diff import (
    diff_artifacts,
    diff_paths,
    diff_sets,
    render,
    render_artifact,
)
from repro.obs.analysis.loader import TraceArtifacts

from test_align import small_run, span  # noqa: E402  (shared fixtures)
from repro.obs.trace import DEPTH_TASK


def artifact(spans, base="x", **kwargs):
    return TraceArtifacts(
        base=base, trace_path="", payload={}, spans=spans, **kwargs
    )


def assert_exact(diff):
    assert abs(diff.total_delta - diff.attributed_delta) < 1e-9


class TestExactness:
    def test_self_diff_is_exact_zero_at_every_level(self):
        a = artifact(small_run(extra_stage=True))
        diff = diff_artifacts(a, a)
        assert diff.identical
        assert diff.total_delta == 0.0
        assert all(v == 0.0 for v in diff.max_abs_by_level().values())
        assert all(c.delta == 0.0 for c in diff.contributors)

    def test_attribution_sums_to_total_delta(self):
        old = artifact(small_run(task_durs=(0.5, 0.4)))
        new = artifact(_stretched_run(extra=0.2))
        diff = diff_artifacts(old, new)
        assert diff.total_delta == pytest.approx(0.2)
        assert_exact(diff)

    def test_slower_task_lands_on_compute(self):
        # Same op_totals, longer duration: the delta must land on the
        # binding task's compute remainder, not on an op.
        old = artifact(small_run())
        new_spans = _stretched_run(extra=0.2)
        for s in new_spans:
            if s["args"].get("task") == "j-m0000":
                s["args"]["op_totals"] = {"lookup": [10, 0.5 / 4]}
        diff = diff_artifacts(old, artifact(new_spans))
        compute = [c for c in diff.contributors if c.kind == "compute"]
        (c,) = [c for c in compute if c.delta != 0.0]
        assert c.task == "m0000"
        assert c.delta == pytest.approx(0.2)
        assert c.old_track == "node00/map0"

    def test_slower_lookup_lands_on_op(self):
        diff = diff_artifacts(
            artifact(small_run()),
            artifact(_stretched_run(extra=0.2, into_lookup=True)),
        )
        ops = [c for c in diff.contributors if c.level == "op" and c.delta]
        (c,) = ops
        assert c.op == "lookup"
        assert c.delta == pytest.approx(0.2)
        # ... and the compute remainder stays ~zero.
        compute = [c for c in diff.contributors if c.kind == "compute"]
        assert all(abs(c.delta) < 1e-9 for c in compute)
        assert_exact(diff)

    def test_ranked_covers_90_percent(self):
        diff = diff_artifacts(
            artifact(small_run()), artifact(_stretched_run(extra=0.2))
        )
        shown, covered = diff.ranked()
        assert covered >= 0.90
        # --top truncation is honored.
        top1, _ = diff.ranked(top=1)
        assert len(top1) == 1


class TestStructuralChanges:
    def test_off_frontier_added_task_is_explicit_zero_weight(self):
        # The extra task is shorter than the binding straggler, so it
        # never moves the clock -- reported, but at zero delta.
        old = artifact(small_run())
        new = artifact(small_run(task_durs=(0.5, 0.4, 0.3)))
        diff = diff_artifacts(old, new)
        added = [c for c in diff.contributors if c.kind == "added-offpath"]
        (c,) = added
        assert c.task == "m0002"
        assert c.delta == 0.0
        assert "off-frontier" in c.note
        assert not diff.identical  # structure changed even at zero delta
        assert_exact(diff)

    def test_removed_stage_is_explicit_contributor(self):
        old = artifact(small_run(extra_stage=True))
        new = artifact(small_run())
        diff = diff_artifacts(old, new)
        removed = [
            c for c in diff.contributors
            if c.kind == "removed" and c.level == "stage"
        ]
        (c,) = removed
        assert c.delta == pytest.approx(-0.2)
        assert_exact(diff)

    def test_speculative_backup_is_flagged(self):
        new_spans = small_run()
        # A backup winner on another host, plus the killed primary.
        new_spans.append(
            span(
                "task", DEPTH_TASK, "node07/map0", 0.15, 0.2,
                task="j-m0000", kind="map", wave=0, attempt=1,
                speculative=True, op_totals={},
            )
        )
        diff = diff_artifacts(artifact(small_run()), artifact(new_spans))
        spec = [c for c in diff.contributors if "speculative" in c.note]
        assert spec, "backup task must be called out as speculative"
        assert_exact(diff)


class TestSideChannels:
    def test_counter_deltas_join_across_job_rename(self):
        old = artifact(
            small_run("slow-off"),
            metrics={"gauges": {"job.slow-off.spec.backups_launched": 0.0},
                     "counters": {}},
        )
        new = artifact(
            small_run("slow-on"),
            metrics={"gauges": {"job.slow-on.spec.backups_launched": 3.0},
                     "counters": {"trace.lookup.count": 7.0}},
        )
        diff = diff_artifacts(old, new)
        by_name = {(c.group, c.name): c for c in diff.counters}
        c = by_name[("spec", "backups_launched")]
        assert (c.old, c.new) == (0.0, 3.0)
        assert c.job == "slow-off -> slow-on"
        assert by_name[("trace", "lookup.count")].old is None

    def test_audit_verdict_flip_names_largest_moved_term(self):
        def row(verdict, t_lookup):
            return {
                "seq": 1, "job": "j", "phase": "map", "verdict": verdict,
                "sim_time": 0.4, "new_plan": "cache",
                "env": {"t_seek": 0.01},
                "operators": [{
                    "operator": "op0",
                    "stats": {
                        "n1": 100,
                        "per_index": {"0": {"t_lookup": t_lookup}},
                    },
                    "strategies": {
                        "0": {"costs": {"base": 1.0, "cache": 2.0}}
                    },
                }],
            }

        note = {"seq": 0, "job": "j", "phase": "map", "verdict": "note"}
        old = artifact(small_run(), audit_rows=[note, row("keep", 0.01)])
        new = artifact(small_run(), audit_rows=[row("switch", 0.04)])
        diff = diff_artifacts(old, new)
        (flip,) = diff.audit.flips
        assert (flip.old_verdict, flip.new_verdict) == ("keep", "switch")
        assert flip.largest_moved_term.startswith("op0[0].t_lookup")
        assert flip.cost_tables["op0"]["0"]["base"] == (1.0, 1.0)
        assert not diff.audit.unmatched  # notes don't count as evals

    def test_unmatched_audit_evaluation_reported(self):
        row = {"seq": 1, "job": "j", "phase": "map", "verdict": "replan",
               "sim_time": 0.3}
        diff = diff_artifacts(
            artifact(small_run()), artifact(small_run(), audit_rows=[row])
        )
        ((side, job, phase, verdict, _t),) = diff.audit.unmatched
        assert (side, verdict) == ("added", "replan")

    def test_alert_timeline_delta(self):
        fired = {"seq": 0, "rule": "wave-straggler", "severity": "warn",
                 "fired_at": 0.1, "cleared_at": 0.4, "state": "cleared"}
        diff = diff_artifacts(
            artifact(small_run(), alert_rows=[fired]),
            artifact(small_run(), alert_rows=[]),
        )
        (a,) = diff.alerts
        assert a.rule == "wave-straggler"
        assert (a.fired_old, a.fired_new) == (1, 0)
        assert a.duration_old == pytest.approx(0.3)
        assert not diff.identical

    def test_phase_work_deltas_report_moved_bucket(self):
        diff = diff_artifacts(
            artifact(small_run()),
            artifact(_stretched_run(extra=0.2, into_lookup=True)),
        )
        (work,) = [
            p for p in diff.phase_work if any(p.deltas().values())
        ]
        assert work.deltas()["lookup"] == pytest.approx(0.2)


class TestSetsAndRender:
    def test_equal_leftovers_pair_positionally(self):
        olds = [artifact(small_run("a"), base="slow-off-cache")]
        news = [artifact(small_run("a"), base="slow-on-cache")]
        diff = diff_sets(olds, news)
        (pair,) = diff.artifacts
        assert (pair.base_old, pair.base_new) == (
            "slow-off-cache", "slow-on-cache"
        )
        assert not diff.added_bases and not diff.removed_bases

    def test_unequal_leftovers_flagged_not_guessed(self):
        olds = [artifact(small_run("a"), base="left")]
        news = [
            artifact(small_run("a"), base="right"),
            artifact(small_run("b"), base="extra"),
        ]
        diff = diff_sets(olds, news)
        assert diff.artifacts == []
        assert [b for b, _ in diff.added_bases] == ["extra", "right"]
        assert [b for b, _ in diff.removed_bases] == ["left"]
        assert not diff.identical

    def test_render_smoke(self):
        a = artifact(small_run())
        text = "\n".join(render(diff_sets([a], [a])))
        assert "IDENTICAL" in text
        changed = diff_artifacts(a, artifact(_stretched_run(extra=0.2)))
        text = "\n".join(render_artifact(changed))
        assert "top contributors" in text and "m0000" in text


def _stretched_run(extra=0.2, into_lookup=False):
    """``small_run`` with task m0000 slower by ``extra`` seconds --
    charged to its lookup op_totals when ``into_lookup``."""
    spans = small_run(task_durs=(0.5 + extra, 0.4))
    if into_lookup:
        for s in spans:
            if s["args"].get("task") == "j-m0000":
                # small_run charges dur/4 to lookup; keep the original
                # base charge and add the whole stretch to it.
                s["args"]["op_totals"] = {"lookup": [10, 0.5 / 4 + extra]}
    return spans


class TestCli:
    def _export(self, tmp_path, sub, dur_scale=1.0):
        from repro.obs import Observability
        from repro.obs.trace import DEPTH_JOB, DEPTH_STAGE, DRIVER_TRACK

        obs = Observability()
        obs.tracer.span(
            "efind:q", "job", DRIVER_TRACK, 0.0, 2.0 * dur_scale,
            DEPTH_JOB, job="q",
        )
        obs.tracer.span(
            "q", "stage", DRIVER_TRACK, 0.1, 1.8 * dur_scale,
            DEPTH_STAGE, job="q",
        )
        d = tmp_path / sub
        obs.export(str(d), "q")
        return str(d)

    def test_diff_cli_exit_codes_and_json(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        a = self._export(tmp_path, "a")
        b = self._export(tmp_path, "b", dur_scale=1.5)
        assert main(["diff", a, a]) == 0
        assert "IDENTICAL" in capsys.readouterr().out
        assert main(["diff", a, b, "--top", "3"]) == 1
        assert "DIFFERS" in capsys.readouterr().out
        assert main(["diff", a, b, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["identical"] is False
        assert doc["total_delta"] == pytest.approx(1.0)
        (art,) = doc["artifacts"]
        assert art["attributed_delta"] == pytest.approx(art["total_delta"])

    def test_diff_cli_bad_path_exits_2(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        rc = main(["diff", str(tmp_path / "nope"), str(tmp_path / "nope")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def _baseline(self, tmp_path, name, base_time):
        doc = {
            "schema_version": 1, "suite": "tpch",
            "time_unit": "simulated seconds",
            "experiments": {"fig11b": {"title": "Q3", "rows": [
                {"label": "Q3", "times": {"Base": base_time}}]}},
        }
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def test_regress_trace_flags_append_root_cause(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        old = self._baseline(tmp_path, "old.json", 2.0)
        new = self._baseline(tmp_path, "new.json", 3.0)
        ta = self._export(tmp_path, "ta")
        tb = self._export(tmp_path, "tb", dur_scale=1.5)
        rc = main(["regress", old, new, "--trace-old", ta, "--trace-new", tb])
        assert rc == 1
        out = capsys.readouterr().out
        assert "root cause (trace diff old -> new)" in out
        assert "DIFFERS" in out

    def test_regress_trace_flags_quiet_when_gate_passes(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        old = self._baseline(tmp_path, "old.json", 2.0)
        ta = self._export(tmp_path, "ta")
        rc = main(["regress", old, old, "--trace-old", ta, "--trace-new", ta])
        assert rc == 0
        assert "root cause" not in capsys.readouterr().out

    def test_regress_trace_flags_must_come_together(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        old = self._baseline(tmp_path, "old.json", 2.0)
        rc = main(["regress", old, old, "--trace-old", str(tmp_path)])
        assert rc == 2
        assert "together" in capsys.readouterr().err

    def test_regress_json_embeds_trace_diff(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        old = self._baseline(tmp_path, "old.json", 2.0)
        ta = self._export(tmp_path, "ta")
        rc = main(["regress", old, old, "--json",
                   "--trace-old", ta, "--trace-new", ta])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace_diff"]["identical"] is True
