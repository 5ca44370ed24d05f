"""The adaptive-decision audit log.

One :class:`AuditRecord` per Algorithm-1 evaluation (PAPER §4.2): the
variance-gate inputs and verdict, the fresh Table-1 statistics it
priced (in the catalog's form), the Equation 1-4 cost estimate of
*every* strategy at every index position, and -- when the runner
applies a plan change -- the mid-Map/mid-Reduce reuse outcome (Figures
9-10). The log answers "why did (or didn't) the job re-plan here?"
without re-running anything.

Like the rest of :mod:`repro.obs`, the log is passive: it prices
strategies with the same cost model the optimizer already ran, in
driver code, charging no simulated time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.costmodel import Strategy, strategy_cost
from repro.core.optimizer import eligible_strategies

#: Verdict strings, in evaluation order.
VERDICT_NO_OPERATORS = "no_relevant_operators"
VERDICT_VARIANCE_GATE = "variance_gate_failed"
VERDICT_NO_IMPROVEMENT = "improvement_below_threshold"
VERDICT_SAME_STRATEGIES = "same_strategies"
VERDICT_REPLAN = "replan"
#: Marker verdict for free-form runtime notes (e.g. speculation changed
#: a wave's shape). Note rows are not Algorithm-1 evaluations: audit
#: consumers that re-price or count evaluations must skip them.
VERDICT_NOTE = "note"


@dataclass
class AuditRecord:
    """One Algorithm-1 evaluation, fully expanded."""

    seq: int
    job: str
    phase: str  # "map" | "reduce"
    sim_time: float  # simulated seconds at evaluation
    verdict: str
    variance_threshold: float
    plan_change_cost: float
    scale: float  # remaining-work extrapolation factor
    #: The CostEnv the evaluation priced with, as ``asdict(env)``.
    #: Recorded so offline tools (the drift detector) can re-run
    #: Equations 1-4 from the log alone, with no cluster object.
    env: Dict[str, float] = field(default_factory=dict)
    #: Per relevant operator: num_samples, relative_deviation, stable.
    gate: List[Dict[str, Any]] = field(default_factory=list)
    #: Per *stable* operator: ``operator``, ``placement``, ``stats``
    #: (the priced statistics in :meth:`OperatorStats.to_dict` form, the
    #: catalog's), ``strategies`` (Equation 1-4 cost of every strategy
    #: per index, and which are eligible), the ``current`` and
    #: ``chosen`` strategies, ``chosen_order`` and ``chosen_cost``.
    operators: List[Dict[str, Any]] = field(default_factory=list)
    current_cost: Optional[float] = None
    new_cost: Optional[float] = None
    current_plan: Optional[str] = None
    new_plan: Optional[str] = None
    applied: bool = False
    applied_at: Optional[float] = None
    #: Reuse outcome of an applied change (Figures 9-10): which phase
    #: was cut over, tasks whose output was kept, tasks re-run, ...
    reuse: Dict[str, Any] = field(default_factory=dict)

    @property
    def improvement(self) -> Optional[float]:
        if self.current_cost is None or self.new_cost is None:
            return None
        return self.current_cost - self.new_cost

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "job": self.job,
            "phase": self.phase,
            "sim_time": self.sim_time,
            "verdict": self.verdict,
            "variance_threshold": self.variance_threshold,
            "plan_change_cost": self.plan_change_cost,
            "scale": self.scale,
            "env": _json_safe(self.env),
            "gate": [_json_safe(g) for g in self.gate],
            "operators": [_json_safe(o) for o in self.operators],
            "current_cost": _json_safe(self.current_cost),
            "new_cost": _json_safe(self.new_cost),
            "improvement": _json_safe(self.improvement),
            "current_plan": self.current_plan,
            "new_plan": self.new_plan,
            "applied": self.applied,
            "applied_at": self.applied_at,
            "reuse": _json_safe(self.reuse),
        }


def _json_safe(value: Any) -> Any:
    """Replace non-JSON floats (inf from the <2-sample gate) recursively."""
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return None
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def strategy_cost_table(
    env,
    stats,
    placement,
    locality,
    idempotent,
) -> Dict[str, Dict[str, Any]]:
    """Equations 1-4 priced for every strategy of every index.

    All four strategies are priced (carried_bytes=0, i.e. as if the
    index went first) so the log shows the full comparison surface;
    ``eligible`` marks which of them the executor could actually run.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for j, idx in sorted(stats.per_index.items()):
        eligible = eligible_strategies(
            stats,
            j,
            supports_locality=bool(locality[j]) if j < len(locality) else False,
            allow_extra_job=True,
            idempotent=bool(idempotent[j]) if j < len(idempotent) else True,
        )
        out[str(j)] = {
            "costs": {
                s.value: strategy_cost(s, env, stats, idx, placement)
                for s in Strategy
            },
            "eligible": [s.value for s in eligible],
        }
    return out


class AdaptiveAuditLog:
    """Append-only log of Algorithm-1 evaluations for one trace session
    (several jobs may share it; records carry the job name)."""

    def __init__(self) -> None:
        self.records: List[AuditRecord] = []
        #: Free-form runtime notes (``verdict == "note"`` rows in the
        #: exported jsonl), e.g. "speculation changed this wave".
        self.notes: List[dict] = []

    # ------------------------------------------------------------------
    def record_evaluation(
        self,
        *,
        job: str,
        phase: str,
        sim_time: float,
        verdict: str,
        variance_threshold: float,
        plan_change_cost: float,
        scale: float,
        gate: List[Dict[str, Any]],
        env: Optional[Dict[str, float]] = None,
        operators: Optional[List[Dict[str, Any]]] = None,
        current_cost: Optional[float] = None,
        new_cost: Optional[float] = None,
        current_plan: Optional[str] = None,
        new_plan: Optional[str] = None,
    ) -> AuditRecord:
        record = AuditRecord(
            seq=len(self.records),
            job=job,
            phase=phase,
            sim_time=sim_time,
            verdict=verdict,
            variance_threshold=variance_threshold,
            plan_change_cost=plan_change_cost,
            scale=scale,
            env=env or {},
            gate=gate,
            operators=operators or [],
            current_cost=current_cost,
            new_cost=new_cost,
            current_plan=current_plan,
            new_plan=new_plan,
        )
        self.records.append(record)
        return record

    def mark_applied(
        self, record: AuditRecord, applied_at: float, **reuse: Any
    ) -> None:
        """Flag a ``replan`` record as actually applied by the runner,
        with the Figure 9-10 reuse outcome (e.g. completed map tasks
        whose output the new plan kept)."""
        record.applied = True
        record.applied_at = applied_at
        record.reuse.update(reuse)

    def note(
        self, kind: str, *, job: str, phase: str, sim_time: float, **payload: Any
    ) -> dict:
        """Append a free-form runtime note.

        Notes ride in the same exported jsonl as evaluations, tagged
        ``verdict="note"`` so offline consumers can filter them; the
        runtime uses them to record schedule-level interventions (a won
        speculative backup changing a wave's shape) that are not
        Algorithm-1 evaluations but belong in the "why did this run look
        like that?" audit trail.
        """
        row = {
            "job": job,
            "phase": phase,
            "sim_time": sim_time,
            "verdict": VERDICT_NOTE,
            "note_kind": kind,
            "note": _json_safe(payload),
        }
        self.notes.append(row)
        return row

    # ------------------------------------------------------------------
    @property
    def replans(self) -> List[AuditRecord]:
        return [r for r in self.records if r.verdict == VERDICT_REPLAN]

    @property
    def applied(self) -> List[AuditRecord]:
        return [r for r in self.records if r.applied]

    def for_job(self, job: str) -> List[AuditRecord]:
        return [r for r in self.records if r.job == job]

    def to_dicts(self) -> List[dict]:
        """Every evaluation record, then every note, with a contiguous
        ``seq`` (notes are numbered after the records so existing
        record seqs never shift)."""
        rows = [r.to_dict() for r in self.records]
        for i, note in enumerate(self.notes):
            row = dict(note)
            row["seq"] = len(self.records) + i
            rows.append(row)
        return rows

    def summary_lines(self) -> List[str]:
        """Human-readable one-liner per record (used by explain and the
        report tool)."""
        if not self.records and not self.notes:
            return ["no adaptive evaluations recorded"]
        lines = [
            f"{len(self.records)} adaptive evaluation(s), "
            f"{len(self.replans)} replan(s), {len(self.applied)} applied"
            + (f", {len(self.notes)} runtime note(s)" if self.notes else "")
        ]
        for r in self.records:
            imp = r.improvement
            detail = ""
            if imp is not None:
                detail = (
                    f" est {r.current_cost:.3f}s -> {r.new_cost:.3f}s"
                    f" (gain {imp:.3f}s vs change cost {r.plan_change_cost:.3f}s)"
                )
            applied = " [applied]" if r.applied else ""
            lines.append(
                f"  #{r.seq} {r.job} {r.phase}@t={r.sim_time:.3f}s:"
                f" {r.verdict}{detail}{applied}"
            )
            if r.verdict == VERDICT_REPLAN and r.new_plan:
                lines.append(f"      {r.current_plan} -> {r.new_plan}")
            if r.reuse:
                pairs = ", ".join(f"{k}={v}" for k, v in sorted(r.reuse.items()))
                lines.append(f"      reuse: {pairs}")
        for note in self.notes:
            pairs = ", ".join(
                f"{k}={v}" for k, v in sorted(note.get("note", {}).items())
            )
            lines.append(
                f"  note {note.get('note_kind')} {note.get('job')}"
                f" {note.get('phase')}@t={note.get('sim_time', 0.0):.3f}s"
                + (f": {pairs}" if pairs else "")
            )
        return lines

    def __len__(self) -> int:
        return len(self.records)
