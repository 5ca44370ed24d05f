"""Artifact-loading robustness: empty/partial trace directories must
produce actionable errors and non-zero exits, never tracebacks."""

import copy
import dataclasses
import json

import pytest

from repro.obs.analysis import critical_path, diff, drift, regress, stragglers
from repro.obs.analysis.loader import (
    Result,
    TraceArtifactError,
    load_artifacts,
    load_one,
)
from repro.obs.trace import DEPTH_TASK


def _write_valid_export(tmp_path, base="j"):
    from repro.obs import Observability
    from repro.obs.trace import DEPTH_JOB, DRIVER_TRACK

    obs = Observability()
    obs.tracer.span(
        f"efind:{base}", "job", DRIVER_TRACK, 0.0, 1.0, DEPTH_JOB, job=base
    )
    return obs.export(str(tmp_path), base)


class TestLoaderErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(TraceArtifactError, match="no such file"):
            load_artifacts(str(tmp_path / "nope"))

    def test_empty_directory(self, tmp_path):
        with pytest.raises(TraceArtifactError, match="no \\*.trace.json"):
            load_artifacts(str(tmp_path))

    def test_empty_trace_file(self, tmp_path):
        p = tmp_path / "x.trace.json"
        p.write_text("")
        with pytest.raises(TraceArtifactError, match="empty"):
            load_artifacts(str(tmp_path))

    def test_truncated_trace_file(self, tmp_path):
        p = tmp_path / "x.trace.json"
        p.write_text('{"traceEvents": [{"ph": "X", ')
        with pytest.raises(TraceArtifactError, match="not valid JSON"):
            load_one(str(p))

    def test_wrong_structure(self, tmp_path):
        p = tmp_path / "x.trace.json"
        p.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(TraceArtifactError, match="traceEvents"):
            load_one(str(p))

    def test_truncated_audit_line_has_line_number(self, tmp_path):
        paths = _write_valid_export(tmp_path)
        with open(paths["audit"], "a", encoding="utf-8") as fh:
            fh.write('{"seq": 1, "job"')
        with pytest.raises(TraceArtifactError, match=":1:"):
            load_one(paths["trace"])

    def test_missing_siblings_tolerated(self, tmp_path):
        import os

        paths = _write_valid_export(tmp_path)
        os.remove(paths["audit"])
        os.remove(paths["metrics"])
        (artifact,) = load_artifacts(str(tmp_path))
        assert artifact.audit_rows == []
        assert artifact.metrics == {}

    def test_valid_export_round_trips(self, tmp_path):
        _write_valid_export(tmp_path, base="jj")
        (artifact,) = load_artifacts(str(tmp_path))
        assert artifact.base == "jj"
        assert len(artifact.spans) == 1
        assert artifact.spans[0]["args"]["job"] == "jj"


    def test_indented_layout_of_older_exports_still_loads(self, tmp_path):
        """Traces written before the one-event-per-line layout were
        ``json.dump(..., indent=1)``: they load, and to the same thing."""
        paths = _write_valid_export(tmp_path, base="old")
        new_layout = load_one(paths["trace"])
        with open(paths["trace"], encoding="utf-8") as fh:
            payload = json.load(fh)
        with open(paths["trace"], "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        old_layout = load_one(paths["trace"])
        assert old_layout == new_layout
        assert len(old_layout.spans) == 1


class TestCliErrors:
    """Both CLIs exit non-zero with one-line reasons on bad input."""

    def test_obs_report_missing_dir(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        rc = main(["report", str(tmp_path / "nope")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no such file" in err
        assert "Traceback" not in err

    def test_obs_report_empty_dir(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        rc = main(["report", str(tmp_path)])
        assert rc == 2
        assert "no *.trace.json" in capsys.readouterr().err

    def test_obs_validate_empty_dir(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        rc = main(["validate", str(tmp_path)])
        assert rc == 2
        assert "no *.trace.json" in capsys.readouterr().err

    def test_obs_validate_folds_corrupt_file_into_verdict(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        _write_valid_export(tmp_path, base="ok")
        (tmp_path / "bad.trace.json").write_text("{turncated")
        rc = main(["validate", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "INVALID" in out
        assert "ok.trace.json: ok" in out.replace(str(tmp_path) + "/", "")

    def test_obs_report_partial_trace_fails_clearly(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        (tmp_path / "partial.trace.json").write_text('{"traceEvents": [')
        rc = main(["report", str(tmp_path)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_analysis_cli_missing_dir(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        for cmd in ("report", "critical-path", "stragglers", "drift"):
            rc = main([cmd, str(tmp_path / "nope")])
            assert rc == 2
            assert "no such file" in capsys.readouterr().err

    def test_analysis_regress_missing_baseline(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        rc = main(["regress", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert rc == 2
        assert "baseline file not found" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Malformed rows inside otherwise valid files
# ----------------------------------------------------------------------
_TASK_EVENT = {
    "ph": "X", "name": "task", "cat": "task", "pid": 1, "tid": 1,
    "ts": 0.0, "dur": 5e5,
    "args": {"depth": DEPTH_TASK, "task": "j-m0000", "kind": "map",
             "op_totals": {"lookup": [3, 0.1]}},
}


def _add_event(paths, event):
    with open(paths["trace"], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["traceEvents"].append(event)
    with open(paths["trace"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _x_without_dur(paths):
    _add_event(paths, {k: v for k, v in _TASK_EVENT.items() if k != "dur"})


def _short_op_totals_entry(paths):
    event = copy.deepcopy(_TASK_EVENT)
    event["args"]["op_totals"]["lookup"] = [3]
    _add_event(paths, event)


def _instant_without_ts(paths):
    _add_event(
        paths,
        {"ph": "i", "name": "slot.commit", "pid": 1, "tid": 1, "s": "t"},
    )


def _job_depth_as_text(paths):
    # Skipped without a word once: no job line in ``report``, no job in
    # ``diff``, while ``validate`` called it "missing args.depth".
    _add_event(
        paths,
        {"ph": "X", "name": "efind:bad", "cat": "job", "pid": 1, "tid": 1,
         "ts": 0.0, "dur": 1e6, "args": {"depth": "0", "job": "bad"}},
    )


def _audit_null_sim_time(paths):
    row = {"seq": 0, "job": "j", "phase": "map", "verdict": "replan",
           "sim_time": None}
    with open(paths["audit"], "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")


def _alert_text_fired_at(paths):
    row = {"seq": 0, "rule": "wave-straggler", "fired_at": "soon",
           "cleared_at": None}
    alerts = paths["trace"][: -len(".trace.json")] + ".alerts.jsonl"
    with open(alerts, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")


#: (corruption, file suffix the message must name, field it must name)
MALFORMED_ROWS = [
    (_x_without_dur, "bad.trace.json", "'dur'"),
    (_short_op_totals_entry, "bad.trace.json", "op_totals"),
    (_instant_without_ts, "bad.trace.json", "'ts'"),
    (_job_depth_as_text, "bad.trace.json", "'args.depth' = '0'"),
    (_audit_null_sim_time, "bad.audit.jsonl:1", "'sim_time'"),
    (_alert_text_fired_at, "bad.alerts.jsonl:1", "'fired_at'"),
]


def _analysis_argv(command, good, bad, tmp_path):
    if command == "regress":
        baseline = tmp_path / "BENCH.json"
        baseline.write_text(json.dumps({"schema_version": 1, "experiments": {}}))
        return ["regress", "--json", str(baseline), str(baseline),
                "--trace-old", good, "--trace-new", bad]
    return {"report": ["report", bad], "diff": ["diff", good, bad]}[command]


class TestMalformedRows:
    """A bad row in a well-formed file is an artifact problem like any
    other: exit 2 and one line naming the file, the row and the field
    -- not a traceback with exit 1, which for ``diff`` and ``regress``
    means "the runs differ"."""

    @pytest.mark.parametrize("command", ["report", "diff", "regress"])
    @pytest.mark.parametrize(
        "corrupt, where, field_name", MALFORMED_ROWS,
        ids=[case[0].__name__.strip("_") for case in MALFORMED_ROWS],
    )
    def test_cli_exits_2_with_one_line(
        self, corrupt, where, field_name, command, tmp_path, capsys
    ):
        from repro.obs.analysis.__main__ import main

        good = _write_valid_export(tmp_path / "good", base="ok")["trace"]
        bad_paths = _write_valid_export(tmp_path / "bad", base="bad")
        corrupt(bad_paths)
        rc = main(_analysis_argv(command, good, bad_paths["trace"], tmp_path))
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert where in err and field_name in err

    def test_event_index_is_named(self, tmp_path):
        paths = _write_valid_export(tmp_path)
        with open(paths["trace"], encoding="utf-8") as fh:
            position = len(json.load(fh)["traceEvents"])
        _x_without_dur(paths)
        with pytest.raises(TraceArtifactError, match=rf"traceEvents\[{position}\]"):
            load_one(paths["trace"])


# ----------------------------------------------------------------------
# The one serialiser
# ----------------------------------------------------------------------
RESULT_CLASSES = [
    cls
    for module in (critical_path, diff, drift, regress, stragglers)
    for cls in vars(module).values()
    if isinstance(cls, type) and issubclass(cls, Result) and cls is not Result
]


def _sample(cls):
    """An instance with a plausible value per field, by annotation."""
    values = {}
    for f in dataclasses.fields(cls):
        kind = str(f.type)
        if kind.startswith("List"):
            values[f.name] = []
        elif kind.startswith("Dict"):
            values[f.name] = {}
        elif "float" in kind:
            values[f.name] = 1.5
        elif "int" in kind:
            values[f.name] = 2
        elif kind == "bool":
            values[f.name] = True
        elif kind == "AuditDiff":
            values[f.name] = _sample(diff.AuditDiff)
        else:
            values[f.name] = "x"
    return cls(**values)


class TestResultSerialiser:
    def test_every_analysis_module_is_covered(self):
        assert len(RESULT_CLASSES) == 20

    @pytest.mark.parametrize("cls", RESULT_CLASSES, ids=lambda c: c.__name__)
    def test_to_dict_is_fields_plus_derived(self, cls):
        doc = _sample(cls).to_dict()
        names = [f.name for f in dataclasses.fields(cls)] + list(cls._derived)
        assert sorted(doc) == sorted(names)
        assert json.loads(json.dumps(doc)) == doc

    def test_nested_results_tuples_and_keys_become_plain_json(self):
        flip = _sample(diff.AuditFlip)
        flip.cost_tables = {"op0": {"0": {"base": (1.0, None)}}}
        audit = diff.AuditDiff(1, 2, [flip], [("added", "j", "map", "keep", 0.5)])
        doc = audit.to_dict()
        assert doc["flips"][0]["cost_tables"]["op0"]["0"]["base"] == [1.0, None]
        assert doc["unmatched"] == [["added", "j", "map", "keep", 0.5]]
        summary = _sample(critical_path.PhaseSummary)
        summary.whatif_wave_slack = {0: 0.25, 1: 0.5}
        doc = summary.to_dict()
        assert doc["whatif_wave_slack"] == {"0": 0.25, "1": 0.5}
        assert doc["whatif_total_slack"] == 0.75

    def test_reshaped_fields_keep_their_shape(self):
        work = _sample(diff.PhaseWorkDelta)
        work.buckets = {"io": (1.0, 3.0)}
        assert work.to_dict()["buckets"] == {
            "io": {"old": 1.0, "new": 3.0, "delta": 2.0}
        }
        straggler = _sample(stragglers.Straggler)
        straggler.evidence = {"compute.seconds": (2.0, 1.0)}
        assert straggler.to_dict()["evidence"] == {
            "compute.seconds": {"task": 2.0, "wave_median": 1.0}
        }
        job = _sample(drift.JobDrift)
        job.evolution = {"op/0/tj": (0.1, 0.2)}
        assert job.to_dict()["evolution"] == {
            "op/0/tj": {"first": 0.1, "last": 0.2}
        }
