"""Artifact-loading robustness: empty/partial trace directories must
produce actionable errors and non-zero exits, never tracebacks."""

import json

import pytest

from repro.obs.analysis.loader import (
    TraceArtifactError,
    load_artifacts,
    load_one,
)


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
