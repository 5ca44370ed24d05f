"""Process-wide trace destination and live-telemetry mode for the
bench harness.

``python -m repro.bench --trace <dir>`` cannot thread a parameter
through the zero-argument ``run_fig*`` entry points, so the trace
directory lives here as module state; ``run_all_modes`` reads it and,
when set, performs the traced double-run (see
:mod:`repro.bench.harness`). ``None`` (the default) means tracing is
fully disabled and benches take the pre-observability code paths.

``--live`` is the same shape: ``None`` (default) means no SLO session
is attached anywhere; ``""`` means live telemetry with the
built-in SLO rule set; any other string is a rule-file path (see
:mod:`repro.obs.live.rules`). Live mode only has an effect during the
traced re-run, so it requires a trace directory.
"""

from __future__ import annotations

from typing import Optional

_trace_dir: Optional[str] = None
_live_rules: Optional[str] = None


def set_trace_dir(directory: Optional[str]) -> None:
    global _trace_dir
    _trace_dir = directory


def get_trace_dir() -> Optional[str]:
    return _trace_dir


def set_live_rules(rules: Optional[str]) -> None:
    """None = live telemetry off; "" = on with built-in rules; any
    other string = on with rules loaded from that path."""
    global _live_rules
    _live_rules = rules


def get_live_rules() -> Optional[str]:
    return _live_rules
