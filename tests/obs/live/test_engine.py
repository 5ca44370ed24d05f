"""Tests for the SLO rule engine's alert state machine and the
alerts.jsonl / analysis-join helpers."""

import json

from repro.obs.live.engine import (
    MAX_EVIDENCE,
    SLOEngine,
    alert_labels,
    overlapping_alerts,
    summary_lines,
    write_alerts,
)
from repro.obs.live.rules import parse_rule


def threshold_rule(**overrides):
    base = {
        "name": "hot",
        "metric": "straggler_ratio",
        "severity": "warning",
        "predicate": {"type": "threshold", "op": ">=", "value": 2.0},
    }
    base.update(overrides)
    return parse_rule(base)


def feed(engine, samples, metric="straggler_ratio"):
    for ts, value in samples:
        engine.on_sample(metric, ts, value, {})


class TestThreshold:
    def test_fire_and_clear(self):
        engine = SLOEngine([threshold_rule()])
        feed(engine, [(0.0, 1.0), (1.0, 3.0), (2.0, 4.0), (3.0, 1.0)])
        (alert,) = engine.alerts
        assert alert.fired_at == 1.0
        assert alert.cleared_at == 3.0
        assert not alert.open
        assert alert.peak == 4.0
        assert alert.samples == 2

    def test_open_at_end_of_stream(self):
        engine = SLOEngine([threshold_rule()])
        feed(engine, [(0.0, 5.0)])
        (alert,) = engine.alerts
        assert alert.open and alert.cleared_at is None
        (row,) = engine.alert_rows()
        assert (row["state"], row["cleared_at"]) == ("open", None)

    def test_refire_after_clear_is_a_new_alert(self):
        engine = SLOEngine([threshold_rule()])
        feed(engine, [(0.0, 3.0), (1.0, 0.0), (2.0, 3.0)])
        assert len(engine.alerts) == 2
        assert engine.alerts[0].cleared_at == 1.0
        assert engine.alerts[1].open

    def test_min_count_absorbs_blips(self):
        rule = threshold_rule(min_count=3)
        engine = SLOEngine([rule])
        feed(engine, [(0.0, 3.0), (1.0, 3.0), (2.0, 0.0), (3.0, 3.0)])
        assert engine.alerts == []  # the blip reset the streak
        feed(engine, [(4.0, 3.0), (5.0, 3.0)])
        (alert,) = engine.alerts
        assert alert.fired_at == 5.0

    def test_low_side_peak_is_a_min(self):
        rule = threshold_rule(
            predicate={"type": "threshold", "op": "<=", "value": 0.5}
        )
        engine = SLOEngine([rule])
        feed(engine, [(0.0, 0.4), (1.0, 0.1), (2.0, 0.3)])
        (alert,) = engine.alerts
        assert alert.peak == 0.1

    def test_evidence_capped_but_samples_exact(self):
        engine = SLOEngine([threshold_rule()])
        feed(engine, [(float(i), 3.0) for i in range(MAX_EVIDENCE + 5)])
        (alert,) = engine.alerts
        assert len(alert.evidence) == MAX_EVIDENCE
        assert alert.samples == MAX_EVIDENCE + 5


class TestSustained:
    def test_fires_only_after_hold_time(self):
        rule = threshold_rule(
            name="storm",
            predicate={"type": "sustained", "op": ">=", "value": 2.0,
                       "for": 1.0},
        )
        engine = SLOEngine([rule])
        feed(engine, [(0.0, 3.0), (0.5, 3.0)])
        assert engine.alerts == []  # held 0.5s < 1.0s
        feed(engine, [(1.0, 3.0)])
        (alert,) = engine.alerts
        assert alert.fired_at == 1.0

    def test_dip_resets_the_hold(self):
        rule = threshold_rule(
            predicate={"type": "sustained", "op": ">=", "value": 2.0,
                       "for": 1.0},
        )
        engine = SLOEngine([rule])
        feed(engine, [(0.0, 3.0), (0.9, 1.0), (1.0, 3.0), (1.5, 3.0)])
        assert engine.alerts == []
        feed(engine, [(2.0, 3.0)])
        assert len(engine.alerts) == 1


class TestRateOfChange:
    def test_slope_over_trailing_window(self):
        rule = threshold_rule(
            predicate={"type": "rate_of_change", "op": "<=", "value": -0.9,
                       "per": 1.0},
        )
        engine = SLOEngine([rule])
        # Flat then collapsing: slope (0.0 - 1.0) / (2.0 - 1.5) = -2.0.
        feed(engine, [(0.0, 1.0), (1.5, 1.0), (2.0, 0.0)])
        (alert,) = engine.alerts
        assert alert.fired_at == 2.0

    def test_single_sample_never_judges(self):
        rule = threshold_rule(
            predicate={"type": "rate_of_change", "op": ">=", "value": 0.0,
                       "per": 1.0},
        )
        engine = SLOEngine([rule])
        feed(engine, [(0.0, 1.0)])
        assert engine.alerts == []

    def test_old_samples_age_out_of_the_slope(self):
        rule = threshold_rule(
            predicate={"type": "rate_of_change", "op": "<=", "value": -0.9,
                       "per": 1.0},
        )
        engine = SLOEngine([rule])
        # The collapse happened long before the trailing window.
        feed(engine, [(0.0, 5.0), (5.0, 1.0), (5.5, 1.0), (6.0, 1.0)])
        assert engine.alerts == []


class TestRouting:
    def test_rules_only_see_their_metric(self):
        engine = SLOEngine([threshold_rule(metric="cache_hit_ratio")])
        feed(engine, [(0.0, 99.0)], metric="straggler_ratio")
        assert engine.alerts == []

    def test_feed_judges_samples_in_order(self):
        engine = SLOEngine([threshold_rule()])
        engine.feed([
            ("straggler_ratio", 0.0, 3.0, {"wave": 0}),
            ("cache_hit_ratio", 0.5, 0.0, {}),
            ("straggler_ratio", 1.0, 1.0, {"wave": 1}),
        ])
        (alert,) = engine.alerts
        assert (alert.fired_at, alert.cleared_at) == (0.0, 1.0)
        assert alert.detail == {"wave": 0}


class TestRowsAndJoin:
    def _rows(self):
        engine = SLOEngine([threshold_rule()])
        feed(engine, [(1.0, 3.0), (2.0, 1.0), (5.0, 3.0)])
        return engine.alert_rows()

    def test_rows_are_json_ready_and_ordered(self, tmp_path):
        rows = self._rows()
        assert [r["seq"] for r in rows] == [0, 1]
        assert rows[0]["state"] == "cleared"
        assert rows[1]["state"] == "open"
        path = str(tmp_path / "alerts.jsonl")
        write_alerts(rows, path)
        with open(path, "r", encoding="utf-8") as fh:
            assert [json.loads(line) for line in fh] == rows

    def test_overlapping_alerts(self):
        rows = self._rows()
        # [1,2] cleared window; [5, inf) open window.
        assert [r["seq"] for r in overlapping_alerts(rows, 0.0, 0.5)] == []
        assert [r["seq"] for r in overlapping_alerts(rows, 1.5, 1.7)] == [0]
        assert [r["seq"] for r in overlapping_alerts(rows, 2.0, 3.0)] == [0]
        assert [r["seq"] for r in overlapping_alerts(rows, 9.0, 10.0)] == [1]
        assert [r["seq"] for r in overlapping_alerts(rows, 0.0, 10.0)] == [0, 1]

    def test_alert_labels_dedup(self):
        rows = self._rows()
        assert alert_labels(rows) == ["hot(warning)"]

    def test_summary_lines(self):
        assert summary_lines([]) == ["no alerts fired"]
        lines = summary_lines(self._rows())
        assert "t=1.000s..2.000s" in lines[0]
        assert "(open)" in lines[1]
