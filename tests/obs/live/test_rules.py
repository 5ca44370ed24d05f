"""Tests for SLO rule parsing, validation errors, and the rule file."""

import json
import os

import pytest

from repro.obs.live.fold import METRICS
from repro.obs.live.rules import (
    DEFAULT_RULES_JSON,
    RuleError,
    SloRule,
    coerce_rules,
    load_rules,
    parse_rule,
    parse_rules,
)

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..", "..")


def _rule(**overrides):
    base = {
        "name": "r",
        "metric": "straggler_ratio",
        "severity": "warning",
        "predicate": {"type": "threshold", "op": ">=", "value": 1.0},
    }
    base.update(overrides)
    return base


class TestParseRule:
    def test_minimal_threshold(self):
        rule = parse_rule(_rule())
        assert rule.kind == "threshold"
        assert rule.min_count == 1
        assert rule.compare(1.0) and not rule.compare(0.5)

    def test_ops(self):
        for op, yes, no in ((">", 2.0, 1.0), (">=", 1.0, 0.9),
                            ("<", 0.5, 1.0), ("<=", 1.0, 1.1)):
            rule = parse_rule(
                _rule(predicate={"type": "threshold", "op": op, "value": 1.0})
            )
            assert rule.compare(yes) and not rule.compare(no)

    def test_sustained_needs_for(self):
        with pytest.raises(RuleError, match="positive 'for'"):
            parse_rule(
                _rule(predicate={"type": "sustained", "op": ">", "value": 1.0})
            )

    def test_rate_of_change_needs_per(self):
        with pytest.raises(RuleError, match="positive 'per'"):
            parse_rule(
                _rule(
                    predicate={
                        "type": "rate_of_change", "op": "<", "value": -1.0,
                    }
                )
            )

    def test_errors_name_the_rule_and_field(self):
        with pytest.raises(RuleError, match="rule 'r'.*severity 'loud'"):
            parse_rule(_rule(severity="loud"))
        with pytest.raises(RuleError, match="unknown predicate type 'spike'"):
            parse_rule(
                _rule(predicate={"type": "spike", "op": ">", "value": 1.0})
            )
        with pytest.raises(RuleError, match="unknown op '=='"):
            parse_rule(
                _rule(predicate={"type": "threshold", "op": "==", "value": 1})
            )
        with pytest.raises(RuleError, match="missing 'name'"):
            parse_rule({"metric": "straggler_ratio"})
        with pytest.raises(RuleError, match="must be a number"):
            parse_rule(
                _rule(predicate={"type": "threshold", "op": ">", "value": True})
            )
        with pytest.raises(RuleError, match="'min_count' must be an integer"):
            parse_rule(_rule(min_count=0))

    def test_unknown_metric_rejected(self):
        """A misspelt metric would never see a sample, so the rule could
        never fire: it is refused, naming the rule and the field."""
        with pytest.raises(RuleError, match="rule 'r'.*unknown metric 'straggler'"):
            parse_rule(_rule(metric="straggler"))
        assert set(METRICS) == {
            "throughput.map", "throughput.reduce", "cache_hit_ratio",
            "reuse_hit_ratio", "fault_retry_rate", "build_progress",
            "straggler_ratio",
        }
        for metric in METRICS:
            assert parse_rule(_rule(metric=metric)).metric == metric

    def test_duplicate_names_rejected(self):
        with pytest.raises(RuleError, match="duplicate rule name"):
            parse_rules([_rule(), _rule()])

    def test_not_a_list(self):
        with pytest.raises(RuleError, match="must be a JSON list"):
            parse_rules({"name": "r"})


class TestLoadRules:
    def test_none_and_empty_answer_defaults(self):
        defaults = load_rules(None)
        assert [r.name for r in defaults] == [
            "wave-straggler", "retry-storm", "cache-hit-collapse",
        ]
        assert [r.name for r in load_rules("")] == [r.name for r in defaults]

    def test_missing_file(self):
        with pytest.raises(RuleError, match="does not exist"):
            load_rules("/nonexistent/rules.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("[{", encoding="utf-8")
        with pytest.raises(RuleError, match="not valid JSON"):
            load_rules(str(path))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(DEFAULT_RULES_JSON), encoding="utf-8")
        assert load_rules(str(path)) == load_rules(None)


class TestCoerceRules:
    def test_accepts_all_shapes(self):
        defaults = load_rules(None)
        assert coerce_rules(None) == defaults
        assert coerce_rules(defaults) == defaults
        assert coerce_rules(DEFAULT_RULES_JSON) == defaults
        mixed = [defaults[0], DEFAULT_RULES_JSON[1]]
        assert coerce_rules(mixed) == defaults[:2]


class TestRuleFileSync:
    def test_benchmarks_slo_rules_mirror_the_builtin_set(self):
        """``benchmarks/slo_rules.json`` is the operator-facing template
        for the built-in rule set; the two must not drift."""
        path = os.path.join(REPO_ROOT, "benchmarks", "slo_rules.json")
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc == DEFAULT_RULES_JSON
        assert parse_rules(doc) == load_rules(None)


def test_to_dict_reparses_identically():
    for rule in load_rules(None):
        assert parse_rule(rule.to_dict()) == rule
        assert isinstance(rule, SloRule)
