"""Tests for the Chrome-trace exporter, validator, and the sections
``python -m repro.obs.analysis report`` prints for one export."""

import json

from repro.obs import Observability
from repro.obs.export import (
    max_event_depth,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.analysis.__main__ import main as analysis_main
from repro.obs.analysis.drift import replan_timeline
from repro.obs.analysis.loader import find_trace_files, load_json_file
from repro.obs.analysis.stragglers import slowest_lookups
from repro.obs.trace import (
    DEPTH_JOB,
    DEPTH_OP,
    DEPTH_PHASE,
    DEPTH_STAGE,
    DEPTH_TASK,
    DRIVER_TRACK,
    Tracer,
    slot_track,
)


def build_report(trace_path, capsys) -> str:
    """What ``python -m repro.obs.analysis report TRACE`` prints."""
    assert analysis_main(["report", trace_path]) == 0
    return capsys.readouterr().out


def small_tracer() -> Tracer:
    """A hand-built two-track trace with one phase and two tasks."""
    t = Tracer()
    t.span("efind:j", "job", DRIVER_TRACK, 0.0, 3.0, DEPTH_JOB, job="j")
    t.span("j", "stage", DRIVER_TRACK, 0.0, 3.0, DEPTH_STAGE, job="j")
    t.span("j/map", "phase", DRIVER_TRACK, 0.5, 2.5, DEPTH_PHASE,
           kind="map", job="j")
    for i, (start, dur) in enumerate([(0.5, 1.0), (0.5, 2.0)]):
        t.span("task", "task", slot_track("node00", "map", i), start,
               start + dur, DEPTH_TASK, task=f"j-m{i}", kind="map", wave=0)
    t.span("lookup", "op", slot_track("node00", "map", 1), 1.0, 1.2,
           DEPTH_OP, op="head0", index=0)
    t.instant("slot.commit", "sched", slot_track("node00", "map", 0), 0.5,
              DEPTH_TASK, wave=0)
    return t


class TestChromeExport:
    def test_valid_and_deep_enough(self):
        payload = to_chrome_trace(small_tracer())
        assert validate_chrome_trace(payload) == []
        assert max_event_depth(payload) == DEPTH_OP

    def test_driver_is_first_process(self):
        payload = to_chrome_trace(small_tracer())
        name_by_pid = {
            ev["pid"]: ev["args"]["name"]
            for ev in payload["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert name_by_pid[1] == "driver"
        assert set(name_by_pid.values()) == {"driver", "node00"}

    def test_timestamps_are_simulated_microseconds(self):
        payload = to_chrome_trace(small_tracer())
        (lookup,) = [
            ev for ev in payload["traceEvents"] if ev.get("name") == "lookup"
        ]
        assert lookup["ts"] == 1.0 * 1e6
        assert lookup["dur"] == round(0.2 * 1e6, 3)
        assert payload["otherData"]["clock"] == "simulated"

    def test_instants_have_scope(self):
        payload = to_chrome_trace(small_tracer())
        (inst,) = [ev for ev in payload["traceEvents"] if ev["ph"] == "i"]
        assert inst["s"] == "t"
        assert isinstance(inst["args"]["depth"], int)


class TestValidator:
    def test_detects_negative_duration(self):
        payload = to_chrome_trace(small_tracer())
        for ev in payload["traceEvents"]:
            if ev["ph"] == "X":
                ev["dur"] = -1.0
                break
        assert any("bad dur" in p for p in validate_chrome_trace(payload))

    def test_detects_missing_depth(self):
        payload = to_chrome_trace(small_tracer())
        for ev in payload["traceEvents"]:
            if ev["ph"] == "X":
                del ev["args"]["depth"]
                break
        assert any("args.depth" in p for p in validate_chrome_trace(payload))

    def test_detects_unnamed_thread(self):
        payload = to_chrome_trace(small_tracer())
        payload["traceEvents"] = [
            ev
            for ev in payload["traceEvents"]
            if not (ev["ph"] == "M" and ev["name"] == "thread_name")
        ]
        assert any("thread_name" in p for p in validate_chrome_trace(payload))

    def test_empty_trace_is_a_problem(self):
        assert validate_chrome_trace({"traceEvents": []})
        assert validate_chrome_trace({})

    def test_unknown_phase_is_named_precisely(self):
        payload = to_chrome_trace(small_tracer())
        payload["traceEvents"][0]["ph"] = "Z"
        (problem,) = [
            p for p in validate_chrome_trace(payload) if "phase" in p
        ]
        assert "unsupported phase 'Z'" in problem
        # ...and tells the reader what would have been accepted.
        for known in ("X", "i", "M", "b", "e"):
            assert known in problem


ALERT_ROWS = [
    {
        "seq": 0, "rule": "wave-straggler", "severity": "warning",
        "metric": "straggler_ratio", "fired_at": 0.6, "cleared_at": 1.8,
        "state": "cleared", "peak": 3.0, "samples": 2,
        "evidence": [{"ts": 0.6, "value": 3.0}], "detail": {},
    },
    {
        "seq": 1, "rule": "retry-storm", "severity": "critical",
        "metric": "fault_retry_rate", "fired_at": 2.0, "cleared_at": None,
        "state": "open", "peak": 5.0, "samples": 4,
        "evidence": [{"ts": 2.0, "value": 5.0}], "detail": {},
    },
]


class TestAlertBands:
    """Live alert timelines export as async b/e band pairs the
    validator and report tooling must recognize."""

    def test_bands_validate_and_pair_up(self):
        payload = to_chrome_trace(small_tracer(), alerts=ALERT_ROWS)
        assert validate_chrome_trace(payload) == []
        bands = [
            ev for ev in payload["traceEvents"] if ev.get("cat") == "alert"
        ]
        assert [ev["ph"] for ev in bands] == ["b", "e", "b", "e"]
        begin = bands[0]
        assert begin["name"] == "wave-straggler"
        assert begin["ts"] == 0.6 * 1e6
        assert begin["args"]["severity"] == "warning"
        # An open alert's closing "e" sits at the trace end, but its
        # band still says so.
        assert bands[2]["args"]["state"] == "open"

    def test_unbalanced_pair_is_detected(self):
        payload = to_chrome_trace(small_tracer(), alerts=ALERT_ROWS)
        payload["traceEvents"] = [
            ev
            for ev in payload["traceEvents"]
            if not (ev.get("ph") == "e" and ev.get("cat") == "alert")
        ]
        problems = validate_chrome_trace(payload)
        assert any(
            "unmatched 'b'/'e'" in p and "wave-straggler" in p
            for p in problems
        )

    def test_alert_rows_recoverable_from_bands(self):
        from repro.obs.analysis.loader import extract_alerts

        payload = to_chrome_trace(small_tracer(), alerts=ALERT_ROWS)
        rows = extract_alerts(payload)
        assert [r["rule"] for r in rows] == ["wave-straggler", "retry-storm"]
        assert rows[0]["cleared_at"] == 1.8
        assert rows[1]["cleared_at"] is None  # open band stays open

    def test_report_joins_alerts(self, tmp_path, capsys):
        trace_path = str(tmp_path / "j.trace.json")
        write_chrome_trace(small_tracer(), trace_path, alerts=ALERT_ROWS)
        write_jsonl(ALERT_ROWS, str(tmp_path / "j.alerts.jsonl"))
        report = build_report(trace_path, capsys)
        assert "SLO alerts" in report
        assert "wave-straggler" in report
        assert "[ALERT" in report  # critical-path lines annotated


class TestReport:
    def test_round_trip_and_sections(self, tmp_path, capsys):
        trace_path = str(tmp_path / "j.trace.json")
        write_chrome_trace(small_tracer(), trace_path)
        write_jsonl(
            [
                {
                    "seq": 0, "job": "j", "phase": "map", "sim_time": 1.5,
                    "verdict": "replan", "improvement": 0.8, "applied": True,
                    "current_plan": "p0", "new_plan": "p1",
                    "reuse": {"cutover": "mid-map"},
                }
            ],
            str(tmp_path / "j.audit.jsonl"),
        )
        assert find_trace_files(str(tmp_path)) == [trace_path]
        report = build_report(trace_path, capsys)
        assert "job j: 3.000s simulated, 3.000s accounted (100.0%)" in report
        # the critical chain is the slowest task of the only wave (2s)
        assert "+2.000s task j-m1 wave 0" in report
        assert "lookup 200.000ms" in report
        assert "replan" in report and "cutover=mid-map" in report

    def test_sections_degrade_gracefully(self):
        assert slowest_lookups([]) == [
            "no lookup spans in trace (detail may be capped or untraced)"
        ]
        assert replan_timeline([]) == ["no adaptive evaluations in audit log"]


class TestObservabilityExport:
    def test_export_writes_three_artifacts(self, tmp_path):
        obs = Observability()
        obs.tracer.span("efind:j", "job", DRIVER_TRACK, 0.0, 1.0, DEPTH_JOB)
        paths = obs.export(str(tmp_path), "j")
        assert set(paths) == {"trace", "audit", "metrics"}
        payload = load_json_file(paths["trace"], "trace")
        assert validate_chrome_trace(payload) == []
        with open(paths["metrics"], encoding="utf-8") as fh:
            metrics = json.load(fh)
        assert set(metrics) == {"counters", "gauges", "histograms"}

    def test_live_export_adds_alerts_artifact(self, tmp_path):
        obs = Observability()
        obs.tracer.span("efind:j", "job", DRIVER_TRACK, 0.0, 1.0, DEPTH_JOB)
        paths = obs.export(str(tmp_path), "j", alerts=ALERT_ROWS)
        assert set(paths) == {"trace", "audit", "metrics", "alerts"}
        with open(paths["alerts"], encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows == ALERT_ROWS
        payload = load_json_file(paths["trace"], "trace")
        assert validate_chrome_trace(payload) == []
