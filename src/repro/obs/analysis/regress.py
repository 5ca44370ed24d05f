"""Perf-regression gate: compare two BENCH baseline files.

``python -m repro.obs.analysis regress OLD NEW`` loads two files
written by ``python -m repro.bench --baseline`` and compares every
(experiment, row, mode) simulated time plus the deterministic counter
groups. Because the benches are simulated, an unchanged tree produces
*identical* numbers -- tolerances exist to absorb intentional small
perturbations (e.g. a cost-constant retune), not machine noise.

A comparison fails (non-zero exit) when any time exceeds its tolerance
upward, any counter moves beyond tolerance, or an (experiment, row,
mode) present in OLD disappears from NEW. Faster-than-baseline times
are reported as improvements but do not fail; they are the cue to
refresh the committed baseline.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.analysis.loader import Result, TraceArtifactError

#: Default gate: 5% relative or 1ms absolute slack, whichever is larger.
DEFAULT_REL_TOL = 0.05
DEFAULT_ABS_TOL = 1e-3

_STATUS_FAILING = ("regression", "counter-drift", "missing")


@dataclass
class Tolerances:
    """Per-comparison slack, with optional per-experiment overrides."""

    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    per_experiment: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def for_experiment(self, name: str) -> "Tolerances":
        override = self.per_experiment.get(name, {})
        return Tolerances(
            rel_tol=float(override.get("rel_tol", self.rel_tol)),
            abs_tol=float(override.get("abs_tol", self.abs_tol)),
        )

    @classmethod
    def load(cls, path: str) -> "Tolerances":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls(
            rel_tol=float(raw.get("rel_tol", DEFAULT_REL_TOL)),
            abs_tol=float(raw.get("abs_tol", DEFAULT_ABS_TOL)),
            per_experiment={
                str(k): dict(v)
                for k, v in (raw.get("per_experiment") or {}).items()
            },
        )


@dataclass
class Delta(Result):
    """One compared quantity (a mode's time, or one counter)."""

    experiment: str
    row: str
    mode: str
    quantity: str  # "time" or "<counter group>.<name>", e.g. "build.<name>"
    old: Optional[float]
    new: Optional[float]
    status: str  # ok | regression | improvement | counter-drift | missing | added

    _derived = ("change",)

    @property
    def change(self) -> Optional[float]:
        if self.old in (None, 0.0) or self.new is None:
            return None
        return self.new / self.old - 1.0


@dataclass
class RegressionReport(Result):
    deltas: List[Delta]

    _derived = ("ok", "compared", "failures", "improvements")

    @property
    def compared(self) -> int:
        return len(self.deltas)

    @property
    def failures(self) -> List[Delta]:
        return [d for d in self.deltas if d.status in _STATUS_FAILING]

    @property
    def improvements(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.failures


def load_baseline(path: str) -> dict:
    """Load and validate one BENCH_*.json file."""
    if not os.path.exists(path):
        raise TraceArtifactError(
            f"baseline file not found: {path} "
            f"(generate with: python -m repro.bench --baseline)"
        )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TraceArtifactError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "experiments" not in doc:
        raise TraceArtifactError(
            f"{path} is not a baseline file (missing 'experiments')"
        )
    version = doc.get("schema_version")
    if version != 1:
        raise TraceArtifactError(
            f"{path} has baseline schema_version {version!r}; this tool "
            f"understands version 1 -- regenerate the baseline"
        )
    return doc


def _exceeds(old: float, new: float, tol: Tolerances) -> bool:
    return abs(new - old) > max(tol.abs_tol, tol.rel_tol * abs(old))


def _counter_groups(row: dict) -> set:
    """Keys of a baseline row that hold ``{mode: {name: value}}``
    counter totals -- whatever they are called, so a counter group
    added to the baseline files is compared without being listed here."""
    return {
        key
        for key, value in row.items()
        if key not in ("label", "times")
        and isinstance(value, dict)
        and all(isinstance(v, dict) for v in value.values())
    }


def compare(old: dict, new: dict, tolerances: Tolerances) -> RegressionReport:
    """Compare two loaded baseline documents."""
    deltas: List[Delta] = []
    old_experiments = old.get("experiments", {})
    new_experiments = new.get("experiments", {})

    def add(experiment, row, mode, quantity, o, n, status):
        deltas.append(Delta(experiment, row, mode, quantity, o, n, status))

    for experiment in sorted(set(old_experiments) | set(new_experiments)):
        tol = tolerances.for_experiment(experiment)
        old_rows = {
            r["label"]: r
            for r in old_experiments.get(experiment, {}).get("rows", [])
        }
        new_rows = {
            r["label"]: r
            for r in new_experiments.get(experiment, {}).get("rows", [])
        }
        for label in sorted(set(old_rows) | set(new_rows)):
            if label not in new_rows:
                add(experiment, label, "*", "row", None, None, "missing")
                # Also emit the vanished row's per-mode times, so the
                # report shows *what* went missing, not just that
                # something did.
                for mode, t in sorted(old_rows[label].get("times", {}).items()):
                    add(experiment, label, mode, "time",
                        float(t), None, "missing")
                continue
            if label not in old_rows:
                add(experiment, label, "*", "row", None, None, "added")
                for mode, t in sorted(new_rows[label].get("times", {}).items()):
                    add(experiment, label, mode, "time",
                        None, float(t), "added")
                continue
            old_row, new_row = old_rows[label], new_rows[label]
            old_times = old_row.get("times", {})
            new_times = new_row.get("times", {})
            for mode in sorted(set(old_times) | set(new_times)):
                if mode not in new_times:
                    add(experiment, label, mode, "time",
                        old_times[mode], None, "missing")
                    continue
                if mode not in old_times:
                    add(experiment, label, mode, "time",
                        None, new_times[mode], "added")
                    continue
                o, n = float(old_times[mode]), float(new_times[mode])
                if not _exceeds(o, n, tol):
                    status = "ok"
                elif n > o:
                    status = "regression"
                else:
                    status = "improvement"
                add(experiment, label, mode, "time", o, n, status)
            for group in sorted(_counter_groups(old_row) | _counter_groups(new_row)):
                old_group = old_row.get(group, {})
                new_group = new_row.get(group, {})
                for mode in sorted(set(old_group) | set(new_group)):
                    old_counters = old_group.get(mode, {})
                    new_counters = new_group.get(mode, {})
                    for name in sorted(set(old_counters) | set(new_counters)):
                        o = old_counters.get(name)
                        n = new_counters.get(name)
                        quantity = f"{group}.{name}"
                        if o is None:
                            add(experiment, label, mode, quantity, o, n, "added")
                        elif n is None:
                            add(experiment, label, mode, quantity, o, n, "missing")
                        elif _exceeds(float(o), float(n), tol):
                            add(experiment, label, mode, quantity,
                                float(o), float(n), "counter-drift")
                        else:
                            add(experiment, label, mode, quantity,
                                float(o), float(n), "ok")
    return RegressionReport(deltas=deltas)


def compare_files(
    old_path: str, new_path: str, tolerances: Optional[Tolerances] = None
) -> RegressionReport:
    return compare(
        load_baseline(old_path),
        load_baseline(new_path),
        tolerances or Tolerances(),
    )


def render(report: RegressionReport, verbose: bool = False) -> List[str]:
    lines: List[str] = []
    shown = report.deltas if verbose else (
        report.failures + report.improvements
        + [d for d in report.deltas if d.status == "added"]
    )
    def fmt(value: Optional[float]) -> str:
        return "absent" if value is None else f"{value:.6g}"

    for d in shown:
        if d.change is not None:
            detail = f"{d.old:.6g} -> {d.new:.6g} ({d.change:+.1%})"
        else:
            # No percentage is computable (old absent or zero), but the
            # magnitudes still matter: an added mode's time, a vanished
            # row's times, a counter that moved off zero.
            detail = f"{fmt(d.old)} -> {fmt(d.new)}"
        lines.append(
            f"  [{d.status:>13s}] {d.experiment} / {d.row} / {d.mode} "
            f"{d.quantity}: {detail}"
        )
    verdict = "OK" if report.ok else "REGRESSION"
    lines.append(
        f"{verdict}: {len(report.deltas)} quantities compared, "
        f"{len(report.failures)} failing, "
        f"{len(report.improvements)} improved"
    )
    return lines
