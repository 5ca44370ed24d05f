"""Offline trace analytics: interpretation of the artifacts the
:mod:`repro.obs` recording layer exports.

The recording layer (PR 3) answers "what happened"; this package
answers "where did the simulated time go, was the cost model right, and
did this change make anything slower":

* :mod:`repro.obs.analysis.loader`        -- robust artifact loading
  (trace/audit/metrics triples, with clear errors on partial exports)
  and the one span tree every analysis below walks
  (``build_forest``: job -> stage -> phase -> wave -> task nodes);
* :mod:`repro.obs.analysis.critical_path` -- per-job critical-path
  extraction with exact 100% time accounting, per-phase attribution
  (compute vs lookup vs shuffle vs io), and what-if wave slack;
* :mod:`repro.obs.analysis.stragglers`    -- per-wave task-duration
  distributions, partition-skew metrics (Gini / CV), and flagged
  stragglers with op-span cause attribution;
* :mod:`repro.obs.analysis.drift`         -- Eq 1-4 cost-model drift:
  re-prices every audit-log evaluation from its recorded samples and
  joins predictions against measured per-strategy times in the trace;
* :mod:`repro.obs.analysis.regress`       -- BENCH baseline comparison
  (``python -m repro.obs.analysis regress OLD NEW``) with configurable
  tolerances, non-zero exit on regression;
* :mod:`repro.obs.analysis.align` /
  :mod:`repro.obs.analysis.diff`          -- two-run differential
  analysis: structural alignment by stable identity (never
  timestamps) and exact hierarchical attribution of the sim-time
  delta (job -> stage -> phase -> wave -> task -> op), plus audit
  verdict-flip, counter, and alert-timeline diffs
  (``python -m repro.obs.analysis diff OLD NEW``).

Everything here consumes *exported* artifacts -- never live tracer
objects -- so it runs on anything downloaded from CI.
"""

from repro.obs.analysis.loader import (
    TraceArtifactError,
    TraceArtifacts,
    load_artifacts,
)

__all__ = [
    "TraceArtifactError",
    "TraceArtifacts",
    "load_artifacts",
]
