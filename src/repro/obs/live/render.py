"""The terminal renderer behind ``python -m repro.obs live``.

Replays one (or a directory of) exported traced run(s) tick-by-tick
through a fresh :class:`~repro.obs.live.LiveSession` and prints a
progress frame per tick, then the alert timeline. When the run was
recorded live (an ``alerts.jsonl`` sibling exists) and the replay uses
the same rules, the replayed timeline is asserted against the recorded
one -- a free end-to-end determinism check on every render.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.live import LiveSession
from repro.obs.live.engine import summary_lines
from repro.obs.live.replay import events_from_artifacts, replay_ticks

DEFAULT_TICKS = 20


def render_replay(
    artifact,
    rules=None,
    ticks: int = DEFAULT_TICKS,
    compare_recorded: bool = True,
) -> List[str]:
    """The full frame-by-frame replay report for one artifact."""
    session = LiveSession(rules=rules)
    events = list(events_from_artifacts(artifact))
    lines = [
        f"=== {artifact.base} ===",
        f"replaying {len(events)} event(s) over {ticks} tick(s), "
        f"{len(session.rules)} SLO rule(s)",
    ]
    for _horizon, _done in replay_ticks(session, events, ticks):
        lines.append(session.progress.render_line())
    lines.append("--- alerts ---")
    lines.extend(summary_lines(session.alert_rows()))
    if compare_recorded and artifact.alert_rows:
        match = session.alert_rows() == artifact.alert_rows
        lines.append(
            f"replayed timeline matches recorded alerts.jsonl: "
            f"{'yes' if match else 'NO'} "
            f"({len(session.alert_rows())} replayed, "
            f"{len(artifact.alert_rows)} recorded)"
        )
    return lines


def render_path(
    path: str,
    rules: Optional[str] = None,
    ticks: int = DEFAULT_TICKS,
) -> List[str]:
    """Replay every traced run under ``path`` (raises
    :class:`~repro.obs.analysis.loader.TraceArtifactError` when there
    is nothing to replay)."""
    from repro.obs.analysis.loader import load_artifacts

    lines: List[str] = []
    for artifact in load_artifacts(path):
        lines.extend(render_replay(artifact, rules=rules, ticks=ticks))
        lines.append("")
    return lines
