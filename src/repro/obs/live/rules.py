"""Declarative SLO rules: loading, validation, and the predicate grammar.

A rule file (``benchmarks/slo_rules.json`` by convention) is a JSON
list of rule objects::

    {
      "name": "wave-straggler",
      "metric": "straggler_ratio",
      "severity": "warning",
      "predicate": {"type": "threshold", "op": ">=", "value": 2.5},
      "min_count": 1,
      "description": "a wave's tail ran far past its median peer"
    }

Three predicate types:

* ``threshold`` -- ``{"type": "threshold", "op": OP, "value": X}``:
  the sample itself compares true against ``X``;
* ``rate_of_change`` -- ``{"type": "rate_of_change", "op": OP,
  "value": X, "per": SECONDS}``: the slope of the metric over the
  trailing ``per`` seconds (units per second) compares true against
  ``X`` (needs at least two samples spanning nonzero time);
* ``sustained`` -- ``{"type": "sustained", "op": OP, "value": X,
  "for": SECONDS}``: the threshold has held continuously for at least
  ``for`` seconds of simulated time.

``metric`` is one of the names :func:`repro.obs.live.fold.samples`
emits (:data:`repro.obs.live.fold.METRICS`), so a misspelt metric is
refused instead of silently never firing. ``op`` is one of ``>``
``>=`` ``<`` ``<=``; ``severity`` is ``info``, ``warning``, or
``critical``; ``min_count`` (optional, default 1) requires that many
*consecutive* tripping samples before the alert fires, absorbing
one-sample blips. Validation errors raise
:class:`RuleError` naming the offending rule and field.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Union

from repro.obs.live.fold import METRICS

SEVERITIES = ("info", "warning", "critical")
OPS = (">", ">=", "<", "<=")
PREDICATE_TYPES = ("threshold", "rate_of_change", "sustained")


class RuleError(ValueError):
    """A rule file (or rule object) is structurally invalid."""


@dataclass(frozen=True)
class SloRule:
    """One validated SLO rule."""

    name: str
    metric: str
    severity: str
    kind: str  # predicate type
    op: str
    value: float
    for_seconds: float = 0.0  # sustained only
    per_seconds: float = 0.0  # rate_of_change only
    min_count: int = 1
    description: str = ""

    def compare(self, value: float) -> bool:
        if self.op == ">":
            return value > self.value
        if self.op == ">=":
            return value >= self.value
        if self.op == "<":
            return value < self.value
        return value <= self.value

    def to_dict(self) -> dict:
        predicate: dict = {"type": self.kind, "op": self.op, "value": self.value}
        if self.kind == "sustained":
            predicate["for"] = self.for_seconds
        if self.kind == "rate_of_change":
            predicate["per"] = self.per_seconds
        return {
            "name": self.name,
            "metric": self.metric,
            "severity": self.severity,
            "predicate": predicate,
            "min_count": self.min_count,
            "description": self.description,
        }


#: The built-in default rule set. ``benchmarks/slo_rules.json`` mirrors
#: this exactly (a test keeps the two in sync); the file exists so
#: operators have a template to copy and tune.
DEFAULT_RULES_JSON: List[dict] = [
    {
        "name": "wave-straggler",
        "metric": "straggler_ratio",
        "severity": "warning",
        "predicate": {"type": "threshold", "op": ">=", "value": 2.5},
        "min_count": 1,
        "description": (
            "a sealed wave's slowest completed task ran >= 2.5x its "
            "wave median -- a straggling host or a hot partition"
        ),
    },
    {
        "name": "retry-storm",
        "metric": "fault_retry_rate",
        "severity": "critical",
        "predicate": {"type": "sustained", "op": ">=", "value": 4.0, "for": 0.5},
        "min_count": 1,
        "description": (
            "fault retries (task re-executions + lookup retries) held "
            "at >= 4/s of simulated time for half a second"
        ),
    },
    {
        "name": "cache-hit-collapse",
        "metric": "cache_hit_ratio",
        "severity": "warning",
        "predicate": {
            "type": "rate_of_change", "op": "<=", "value": -0.9, "per": 0.5,
        },
        "min_count": 3,
        "description": (
            "the windowed lookup-cache hit ratio is falling steeply "
            "(a working-set shift or cache poisoning); rate-of-change "
            "so a cold start's rising ratio never trips it"
        ),
    },
]


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise RuleError(f"{where}: {message}")


def parse_rule(obj: Any, where: str = "rule") -> SloRule:
    """Validate one rule object into an :class:`SloRule`."""
    _require(isinstance(obj, dict), where, f"must be an object, got {type(obj).__name__}")
    name = obj.get("name")
    _require(isinstance(name, str) and bool(name), where, "missing 'name' string")
    where = f"rule {name!r}"
    metric = obj.get("metric")
    _require(
        isinstance(metric, str) and bool(metric), where, "missing 'metric' string"
    )
    _require(
        metric in METRICS,
        where,
        f"unknown metric {metric!r} (known: {', '.join(METRICS)})",
    )
    severity = obj.get("severity", "warning")
    _require(
        severity in SEVERITIES,
        where,
        f"unknown severity {severity!r} (known: {', '.join(SEVERITIES)})",
    )
    predicate = obj.get("predicate")
    _require(isinstance(predicate, dict), where, "missing 'predicate' object")
    kind = predicate.get("type")
    _require(
        kind in PREDICATE_TYPES,
        where,
        f"unknown predicate type {kind!r} "
        f"(known: {', '.join(PREDICATE_TYPES)})",
    )
    op = predicate.get("op")
    _require(op in OPS, where, f"unknown op {op!r} (known: {' '.join(OPS)})")
    value = predicate.get("value")
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        where,
        "predicate 'value' must be a number",
    )
    for_seconds = 0.0
    per_seconds = 0.0
    if kind == "sustained":
        for_seconds = predicate.get("for")
        _require(
            isinstance(for_seconds, (int, float)) and for_seconds > 0,
            where,
            "sustained predicate needs a positive 'for' (seconds)",
        )
    if kind == "rate_of_change":
        per_seconds = predicate.get("per")
        _require(
            isinstance(per_seconds, (int, float)) and per_seconds > 0,
            where,
            "rate_of_change predicate needs a positive 'per' (seconds)",
        )
    min_count = obj.get("min_count", 1)
    _require(
        isinstance(min_count, int) and min_count >= 1,
        where,
        "'min_count' must be an integer >= 1",
    )
    description = obj.get("description", "")
    _require(isinstance(description, str), where, "'description' must be a string")
    return SloRule(
        name=name,
        metric=metric,
        severity=severity,
        kind=kind,
        op=op,
        value=float(value),
        for_seconds=float(for_seconds),
        per_seconds=float(per_seconds),
        min_count=min_count,
        description=description,
    )


def parse_rules(doc: Any, where: str = "rules") -> List[SloRule]:
    _require(isinstance(doc, list), where, f"must be a JSON list of rule objects, got {type(doc).__name__}")
    rules = [parse_rule(obj, f"{where}[{i}]") for i, obj in enumerate(doc)]
    seen = set()
    for rule in rules:
        _require(rule.name not in seen, where, f"duplicate rule name {rule.name!r}")
        seen.add(rule.name)
    return rules


def load_rules(path: Optional[str] = None) -> List[SloRule]:
    """Load and validate a rule file; ``None`` (or ``""``) answers the
    built-in :data:`DEFAULT_RULES_JSON` set."""
    if not path:
        return parse_rules(DEFAULT_RULES_JSON, "default rules")
    if not os.path.exists(path):
        raise RuleError(f"{path}: rule file does not exist")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise RuleError(f"{path}: not valid JSON: {exc}") from exc
    return parse_rules(doc, path)


def coerce_rules(
    rules: Union[None, str, Sequence[SloRule], Sequence[dict]],
) -> List[SloRule]:
    """Accept what callers naturally hold: None/"" (defaults), a rule
    file path, a list of :class:`SloRule`, or a list of rule dicts."""
    if rules is None or isinstance(rules, str):
        return load_rules(rules)
    out: List[SloRule] = []
    for i, rule in enumerate(rules):
        out.append(
            rule if isinstance(rule, SloRule) else parse_rule(rule, f"rules[{i}]")
        )
    return out
