"""Alert-source precedence in the artifact loader.

``load_one`` prefers a sibling ``<base>.alerts.jsonl`` over alert
bands embedded in the Chrome trace; the embedded bands are only a
fallback for traces downloaded without their siblings. The sharp edge:
an *empty but present* sibling means "this live run fired nothing" and
must NOT fall back to the embedded bands (which would resurrect the
very alerts the file says did not survive export filtering).
"""

import os

from repro.obs import Observability
from repro.obs.analysis.loader import load_artifacts
from repro.obs.trace import DEPTH_JOB, DRIVER_TRACK


ALERT = {
    "seq": 0, "rule": "wave-straggler", "severity": "warning",
    "metric": "wave.p99", "fired_at": 0.1, "cleared_at": 0.4,
    "state": "cleared", "peak": 2.5,
}


def export(tmp_path, alerts):
    obs = Observability()
    obs.tracer.span(
        "efind:j", "job", DRIVER_TRACK, 0.0, 1.0, DEPTH_JOB, job="j"
    )
    return obs.export(str(tmp_path), "j", alerts=alerts)


class TestAlertPrecedence:
    def test_sibling_present_wins_over_embedded_bands(self, tmp_path):
        paths = export(tmp_path, alerts=[ALERT])
        # Rewrite the sibling with a different rule name; the embedded
        # trace bands still carry "wave-straggler".
        edited = dict(ALERT, rule="edited-rule")
        with open(paths["alerts"], "w", encoding="utf-8") as fh:
            fh.write(__import__("json").dumps(edited) + "\n")
        (artifact,) = load_artifacts(str(tmp_path))
        assert [r["rule"] for r in artifact.alert_rows] == ["edited-rule"]

    def test_sibling_absent_falls_back_to_embedded_bands(self, tmp_path):
        paths = export(tmp_path, alerts=[ALERT])
        os.remove(paths["alerts"])
        (artifact,) = load_artifacts(str(tmp_path))
        (row,) = artifact.alert_rows
        assert row["rule"] == "wave-straggler"
        assert row["fired_at"] == 0.1
        assert row["cleared_at"] == 0.4
        # The raw event list is let go only after spans and the alert
        # fallback were read from it; otherData stays readable.
        assert "traceEvents" not in artifact.payload
        assert [s["name"] for s in artifact.spans] == ["efind:j"]
        assert artifact.dropped_detail == 0

    def test_both_absent_yields_no_alerts(self, tmp_path):
        export(tmp_path, alerts=None)
        (artifact,) = load_artifacts(str(tmp_path))
        assert artifact.alert_rows == []

    def test_empty_but_present_sibling_does_not_fall_back(self, tmp_path):
        paths = export(tmp_path, alerts=[ALERT])
        # Truncate the sibling: "live run, nothing fired". The trace
        # still embeds a band -- it must stay ignored.
        open(paths["alerts"], "w", encoding="utf-8").close()
        (artifact,) = load_artifacts(str(tmp_path))
        assert artifact.alert_rows == []
