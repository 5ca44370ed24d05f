"""Cost-model drift detection: did Equations 1-4 predict reality?

Three independent checks over one traced run (or a directory of them):

* **recompute** -- every audit record carries the exact inputs its
  evaluation priced with (``env``: the CostEnv; ``operators[].stats``:
  the statistics in the catalog's form), so the detector decodes them
  with ``CostEnv(**env)`` and :meth:`OperatorStats.from_dict`, re-runs
  Equations 1-4 offline and compares against the recorded
  per-strategy costs. On an undisturbed run they agree exactly;
  anything larger than float noise means the recorded inputs no
  longer reproduce the recorded outputs -- the cost model and its
  audit trail have drifted apart. A record that does not decode or
  price is skipped with one reason.
* **term join** -- the sampled Table-1 terms (T_j, R) joined against
  what the trace actually measured (mean ``index.fetch`` span duration,
  fetches per lookup), plus first-vs-last sample evolution for the
  terms only the statistics layer can see (Theta, Nik, S_ik, S_iv).
  Measured values come from recorded op spans, which the per-task
  detail cap can subsample; the report says so via ``basis``.
* **executed equivalence** -- in a bench trace directory every variant
  of one figure row ran the *same* workload, so the forced-strategy
  runs are measured executions of the alternatives the optimizer
  priced. A Dynamic/Optimized run measurably slower than the cheapest
  forced variant is flagged: the chosen plan was not the cheapest
  executed-equivalent.

:func:`replan_timeline` renders the audit log itself -- every
evaluation, verdict and applied plan change, in order -- as a trailing
section of ``python -m repro.obs.analysis report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.costmodel import CostEnv, Placement, Strategy, strategy_cost
from repro.core.statistics import OperatorStats
from repro.obs.analysis.loader import Result, TraceArtifacts, job_nodes
from repro.obs.trace import DEPTH_DETAIL, DEPTH_OP

#: Terms whose sampled value can be joined against a trace measurement.
MEASURED_TERMS = ("tj", "miss_ratio")
#: Terms reported as first-vs-last sample evolution instead.
EVOLUTION_TERMS = ("theta", "nik", "sik", "siv", "tj", "miss_ratio")

#: Largest |recorded - recomputed| (seconds) that still counts as an
#: exact re-pricing; ``python -m repro.obs.analysis drift`` exits 1 above.
REPRICE_TOLERANCE = 1e-9

_CHOSEN_MODES = ("dynamic", "optimized")
_FORCED_MODES = ("base", "cache", "repart", "idxloc")


@dataclass
class TermDrift(Result):
    operator: str
    index: str
    term: str
    sampled: float
    measured: Optional[float]
    basis: str  # where the measured value came from

    _derived = ("abs_error", "rel_error")

    @property
    def abs_error(self) -> Optional[float]:
        if self.measured is None:
            return None
        return abs(self.sampled - self.measured)

    @property
    def rel_error(self) -> Optional[float]:
        if self.measured is None:
            return None
        scale = max(abs(self.sampled), abs(self.measured))
        return abs(self.sampled - self.measured) / scale if scale else 0.0


@dataclass
class RecomputedCost(Result):
    seq: int
    operator: str
    index: str
    strategy: str
    recorded: float
    recomputed: float

    _derived = ("abs_error",)

    @property
    def abs_error(self) -> float:
        return abs(self.recorded - self.recomputed)


@dataclass
class JobDrift(Result):
    """Drift findings for one job's audit trail within one trace."""

    job: str
    evaluations: int
    recomputed: List[RecomputedCost] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)  # why a record was skipped
    terms: List[TermDrift] = field(default_factory=list)
    #: term -> (first sample, last sample) over the audit trail.
    evolution: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    _derived = ("recompute_max_abs_error",)

    @property
    def recompute_max_abs_error(self) -> Optional[float]:
        if not self.recomputed:
            return None
        return max(r.abs_error for r in self.recomputed)

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["evolution"] = {
            k: {"first": a, "last": b} for k, (a, b) in self.evolution.items()
        }
        return out


@dataclass
class ExecutedEquivalence(Result):
    """One figure row's measured strategy comparison."""

    row: str
    times: Dict[str, float]  # mode -> measured simulated seconds
    chosen_mode: str
    cheapest_mode: str
    flagged: bool
    excess: float  # chosen time / cheapest time - 1


# ----------------------------------------------------------------------
# Recompute Equations 1-4 from the audit record's own inputs
# ----------------------------------------------------------------------
def recompute_record(row: dict) -> Tuple[List[RecomputedCost], List[str]]:
    """Re-price every recorded strategy cost of one audit record.

    Returns (recomputed costs, skip reasons). Records without operator
    detail (gate refusals) have nothing to recompute and produce
    neither; a record that does not decode or price (an older log
    schema, a damaged row) produces no costs and one reason.
    """
    if not row.get("operators"):
        return [], []
    try:
        return _reprice(row), []
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        why = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
        return [], [f"seq {row.get('seq')}: not re-priced: {why}"]


def _reprice(row: dict) -> List[RecomputedCost]:
    env = CostEnv(**row["env"])
    out: List[RecomputedCost] = []
    for detail in row["operators"]:
        stats = OperatorStats.from_dict(detail["stats"])
        placement = Placement(detail["placement"])
        for j_str, table in sorted(detail["strategies"].items()):
            idx = stats.per_index[int(j_str)]
            for strategy_value, recorded in sorted(table["costs"].items()):
                if recorded is None:
                    continue  # was non-finite; nothing to compare
                recomputed = strategy_cost(
                    Strategy(strategy_value), env, stats, idx, placement
                )
                out.append(
                    RecomputedCost(
                        seq=int(row["seq"]),
                        operator=str(detail["operator"]),
                        index=j_str,
                        strategy=strategy_value,
                        recorded=float(recorded),
                        recomputed=recomputed,
                    )
                )
    return out


def _decoded(detail: dict) -> Optional[OperatorStats]:
    """One operator detail's statistics, None when they do not decode
    (:func:`recompute_record` reports why)."""
    try:
        return OperatorStats.from_dict(detail.get("stats"))
    except (ValueError, AttributeError):
        return None


def mispriced(drifts: List[JobDrift]) -> bool:
    """Whether any recomputed cost misses its recorded one by more than
    :data:`REPRICE_TOLERANCE`."""
    return any(
        not r.abs_error <= REPRICE_TOLERANCE for d in drifts for r in d.recomputed
    )


# ----------------------------------------------------------------------
# Join sampled terms against trace measurements
# ----------------------------------------------------------------------
def _job_op_spans(artifact: TraceArtifacts, job: str) -> List[dict]:
    """Op/detail spans of one EFind job: their ``args.task`` ids start
    with the job's stage-name prefix ``<job>/``."""
    prefix = job + "/"
    return [
        s
        for s in artifact.spans
        if s["depth"] in (DEPTH_OP, DEPTH_DETAIL)
        and str(s["args"].get("task", "")).startswith(prefix)
    ]


def measured_terms(
    artifact: TraceArtifacts, job: str, operator: str, stats: OperatorStats
) -> List[TermDrift]:
    """Per-index sampled-vs-measured rows for one operator's final
    audited statistics."""
    spans = _job_op_spans(artifact, job)
    out: List[TermDrift] = []
    for j, idx in sorted(stats.per_index.items()):
        j_str = str(j)
        fetches = [
            sp
            for sp in spans
            if sp["name"] == "index.fetch" and sp["args"].get("index") == j
        ]
        lookups = [
            sp
            for sp in spans
            if sp["name"] in ("lookup", "lookup.batch")
            and sp["args"].get("index") == j
        ]
        measured_tj: Optional[float] = None
        if fetches:
            measured_tj = sum(f["dur"] for f in fetches) / len(fetches)
        out.append(
            TermDrift(
                operator=operator,
                index=j_str,
                term="tj",
                sampled=idx.tj,
                measured=measured_tj,
                basis=(
                    f"mean of {len(fetches)} index.fetch span(s)"
                    if fetches
                    else "no index.fetch spans recorded (detail capped or "
                    "all cache hits)"
                ),
            )
        )
        measured_r: Optional[float] = None
        lookup_keys = 0.0
        for sp in lookups:
            lookup_keys += float(sp["args"].get("keys", 1))
        if lookup_keys > 0:
            measured_r = len(fetches) / lookup_keys
        out.append(
            TermDrift(
                operator=operator,
                index=j_str,
                term="miss_ratio",
                sampled=idx.miss_ratio,
                measured=measured_r,
                basis=(
                    f"{len(fetches)} fetch(es) / {lookup_keys:g} looked-up "
                    f"key(s) from spans"
                    if lookup_keys
                    else "no lookup spans recorded"
                ),
            )
        )
    return out


def _sample_evolution(rows: List[dict]) -> Dict[str, Tuple[float, float]]:
    """first-vs-last sampled value per (operator, index, term) across a
    job's audit records with operator detail."""
    seen: Dict[str, List[float]] = {}
    for row in rows:
        for detail in row.get("operators") or []:
            stats = _decoded(detail)
            if stats is None:
                continue
            op_id = str(detail.get("operator", "?"))
            for j, idx in sorted(stats.per_index.items()):
                for term in EVOLUTION_TERMS:
                    key = f"{op_id}/{j}/{term}"
                    seen.setdefault(key, []).append(float(getattr(idx, term)))
    return {
        key: (values[0], values[-1])
        for key, values in sorted(seen.items())
        if len(values) >= 2
    }


# ----------------------------------------------------------------------
def job_drift(artifact: TraceArtifacts) -> List[JobDrift]:
    """Drift findings per job with audit records in one artifact."""
    by_job: Dict[str, List[dict]] = {}
    for row in artifact.audit_rows:
        if row.get("verdict") == "note":
            # Runtime notes (e.g. speculation) carry no CostEnv or
            # samples; they are not Algorithm-1 evaluations to re-price.
            continue
        by_job.setdefault(str(row.get("job", "?")), []).append(row)
    out: List[JobDrift] = []
    for job, rows in sorted(by_job.items()):
        drift = JobDrift(job=job, evaluations=len(rows))
        for row in rows:
            recomputed, skipped = recompute_record(row)
            drift.recomputed.extend(recomputed)
            drift.skipped.extend(skipped)
        # Join the trace against the freshest samples (the last record
        # with operator detail).
        for row in reversed(rows):
            details = row.get("operators") or []
            if details:
                for detail in details:
                    stats = _decoded(detail)
                    if stats is not None:
                        drift.terms.extend(
                            measured_terms(
                                artifact, job, str(detail.get("operator", "?")), stats
                            )
                        )
                break
        drift.evolution = _sample_evolution(rows)
        out.append(drift)
    return out


# ----------------------------------------------------------------------
# Executed-equivalence over a bench trace directory
# ----------------------------------------------------------------------
def _job_time(artifact: TraceArtifacts) -> Optional[float]:
    """Simulated duration of the artifact's primary job: the job node
    whose name matches the export base (the Optimized trace also
    contains the profiling job), else the last-ending one."""
    jobs = job_nodes(artifact)
    if not jobs:
        return None
    for job in jobs:
        if job.label == artifact.base:
            return job.dur
    return max(jobs, key=lambda job: job.end).dur


def split_row_mode(base: str) -> Optional[Tuple[str, str]]:
    """``"Q3-dynamic" -> ("Q3", "dynamic")`` per the bench harness's
    export naming; None when the base has no known mode suffix."""
    for mode in _CHOSEN_MODES + _FORCED_MODES:
        suffix = "-" + mode
        if base.endswith(suffix) and len(base) > len(suffix):
            return base[: -len(suffix)], mode
    return None


def executed_equivalence(
    artifacts: List[TraceArtifacts], margin: float = 0.02
) -> List[ExecutedEquivalence]:
    """Compare each row's chosen-plan runs against its forced-strategy
    runs by *measured* simulated time. ``margin`` is the excess
    fraction above the cheapest forced variant tolerated before a
    chosen plan is flagged."""
    rows: Dict[str, Dict[str, float]] = {}
    for artifact in artifacts:
        parsed = split_row_mode(artifact.base)
        if parsed is None:
            continue
        row, mode = parsed
        duration = _job_time(artifact)
        if duration is not None:
            rows.setdefault(row, {})[mode] = duration
    out: List[ExecutedEquivalence] = []
    for row, times in sorted(rows.items()):
        forced = {m: t for m, t in times.items() if m in _FORCED_MODES}
        if not forced:
            continue
        cheapest_mode = min(sorted(forced), key=lambda m: forced[m])
        cheapest = forced[cheapest_mode]
        for mode in _CHOSEN_MODES:
            if mode not in times:
                continue
            excess = times[mode] / cheapest - 1.0 if cheapest > 0 else 0.0
            out.append(
                ExecutedEquivalence(
                    row=row,
                    times=times,
                    chosen_mode=mode,
                    cheapest_mode=cheapest_mode,
                    flagged=excess > margin,
                    excess=excess,
                )
            )
    return out


# ----------------------------------------------------------------------
def render(
    drifts: List[JobDrift],
    equivalence: Optional[List[ExecutedEquivalence]] = None,
) -> List[str]:
    lines: List[str] = []
    if not drifts and not equivalence:
        lines.append("no audit records in trace (statically planned run?)")
    for d in drifts:
        err = d.recompute_max_abs_error
        err_txt = f"{err:.3e}s" if err is not None else "n/a (nothing priced)"
        lines.append(
            f"job {d.job}: {d.evaluations} evaluation(s), "
            f"{len(d.recomputed)} cost(s) recomputed, "
            f"max |recorded - recomputed| = {err_txt}"
        )
        for reason in d.skipped:
            lines.append(f"  skipped: {reason}")
        for t in d.terms:
            if t.measured is None:
                lines.append(
                    f"  {t.operator}/idx{t.index} {t.term}: sampled "
                    f"{t.sampled:.6g}, unmeasured ({t.basis})"
                )
            else:
                lines.append(
                    f"  {t.operator}/idx{t.index} {t.term}: sampled "
                    f"{t.sampled:.6g} vs measured {t.measured:.6g} "
                    f"(rel err {t.rel_error:.1%}; {t.basis})"
                )
        for key, (first, last) in d.evolution.items():
            scale = max(abs(first), abs(last))
            rel = abs(last - first) / scale if scale else 0.0
            lines.append(
                f"  {key}: first sample {first:.6g} -> last {last:.6g} "
                f"(drift {rel:.1%})"
            )
    if equivalence:
        lines.append("executed-equivalence (measured simulated seconds):")
        for e in equivalence:
            flag = "  [NOT CHEAPEST]" if e.flagged else ""
            times = ", ".join(f"{m}={t:.3f}s" for m, t in sorted(e.times.items()))
            lines.append(
                f"  {e.row}: {e.chosen_mode} vs cheapest forced "
                f"{e.cheapest_mode} ({e.excess:+.1%}){flag}  [{times}]"
            )
    return lines


def replan_timeline(audit_rows: List[dict]) -> List[str]:
    """Every Algorithm-1 evaluation in the audit log, in order, with
    verdicts and applied plan changes."""
    if not audit_rows:
        return ["no adaptive evaluations in audit log"]
    evaluations = [r for r in audit_rows if r.get("verdict") != "note"]
    notes = [r for r in audit_rows if r.get("verdict") == "note"]
    lines = [f"{len(evaluations)} adaptive evaluation(s):"]
    for row in notes:
        payload = row.get("note") or {}
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(payload.items()))
        lines.append(
            f"  note {row.get('note_kind')} {row.get('job')}"
            f" {row.get('phase')}@t={row.get('sim_time', 0.0):.3f}s"
            + (f": {pairs}" if pairs else "")
        )
    for row in evaluations:
        imp = row.get("improvement")
        detail = f" gain={imp:.3f}s" if isinstance(imp, (int, float)) else ""
        applied = " [applied]" if row.get("applied") else ""
        lines.append(
            f"  #{row.get('seq')} {row.get('job')} {row.get('phase')}"
            f"@t={row.get('sim_time', 0.0):.3f}s: {row.get('verdict')}"
            f"{detail}{applied}"
        )
        if row.get("verdict") == "replan" and row.get("new_plan"):
            lines.append(
                f"      {row.get('current_plan')} -> {row.get('new_plan')}"
            )
        reuse = row.get("reuse") or {}
        if reuse:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(reuse.items()))
            lines.append(f"      reuse: {pairs}")
    return lines
