"""Rebuild a traced run's telemetry event stream from its records.

Nothing is published while a simulation executes: a
:class:`~repro.obs.live.LiveSession` replays the run when it finishes.
There are two sources, and one reconstruction (:func:`_events`) behind
both:

* :func:`events_from_recording` -- the tracer and audit log an
  :class:`~repro.obs.Observability` kept in memory (what
  :meth:`LiveSession.finish` replays). Their times are snapped onto
  the Chrome-trace export grid first.
* :func:`events_from_artifacts` -- the exported artifacts of a traced
  run (``python -m repro.obs live``), whose rows are already on that
  grid.

The two differ only in how a span's fields are read, so the replay of
an export reproduces the finished session's sample stream -- and
therefore its alert timeline -- byte for byte. Spans come in the
tracer's append order, which the export preserves.

Counter-delta events exist only for a run recorded live: the runtime
then embeds each task's counter deltas in the task span's
``args.counters``, and :func:`_events` emits them as a counters event
immediately *before* the task span. Replaying a non-live trace still
works -- span-derived metrics (throughput, cache hit ratio, straggler
ratio) are intact -- but counter-derived metrics (reuse ratio, retry
rate, build progress) have no events to fold.

Instant and audit events never influence the aggregators (they are
display-only for the snapshot), so :func:`_events` merges them into the
stream by timestamp.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.obs.live import bus as busmod

#: One reconstructed event before publishing:
#: (kind, name, track, start, ts, payload)
RawEvent = Tuple[str, str, str, float, float, Dict[str, Any]]

_US = 1_000_000.0


def _quantize_range(start: float, end: float) -> Tuple[float, float]:
    """Snap a span's endpoints onto the Chrome-trace export grid.

    The export stores ``ts = round(start*1e6, 3)`` and ``dur =
    round(duration*1e6, 3)``; the loader reconstructs ``start = ts/1e6``
    and ``end = start + dur/1e6``. This mirrors those expressions term
    by term, because float arithmetic does not distribute.
    """
    start_q = round(start * _US, 3) / _US
    end_q = start_q + round(max(0.0, end - start) * _US, 3) / _US
    return start_q, end_q


def _quantize_ts(ts: float) -> float:
    """The instant-event analogue of :func:`_quantize_range`."""
    return round(ts * _US, 3) / _US


def _events(
    spans: Iterable[tuple], instants: Iterable[tuple], audit_rows
) -> Iterator[RawEvent]:
    """The event stream of one run, one event at a time.

    ``spans`` yields ``(name, cat, track, start, end, depth, args)`` in
    append order and ``instants`` ``(name, cat, track, ts, depth,
    args)``, both on the export grid; ``audit_rows`` are the audit
    log's exported rows. Display-only events slot in before the first
    span (or counters) event that ends at or after them; the span order
    -- which determines the alert timeline -- is never perturbed.
    """
    secondary: List[RawEvent] = [
        (busmod.KIND_INSTANT, name, track, ts, ts,
         {"cat": cat, "depth": depth, "args": args})
        for name, cat, track, ts, depth, args in instants
    ]
    for row in audit_rows:
        ts = float(row.get("sim_time", 0.0))
        secondary.append((
            busmod.KIND_AUDIT, str(row.get("verdict", "?")), "driver", ts, ts,
            {"job": row.get("job"), "phase": row.get("phase"), "seq": row.get("seq")},
        ))
    secondary.sort(key=lambda e: e[4])

    si, pending = 0, len(secondary)
    for name, cat, track, start, end, depth, args in spans:
        while si < pending and secondary[si][4] <= end:
            yield secondary[si]
            si += 1
        if name == "task" and isinstance(args.get("counters"), dict):
            yield (
                busmod.KIND_COUNTERS, "task", track, start, end,
                {
                    "deltas": args["counters"],
                    "task": args.get("task"),
                    "kind": args.get("kind"),
                    "wave": args.get("wave"),
                },
            )
        yield (
            busmod.KIND_SPAN, name, track, start, end,
            {"cat": cat, "depth": depth, "args": args},
        )
    yield from secondary[si:]


def events_from_recording(tracer, audit) -> Iterator[RawEvent]:
    """The replayable event stream of one in-memory recording: a
    :class:`~repro.obs.trace.Tracer` and its
    :class:`~repro.obs.audit.AdaptiveAuditLog`."""
    return _events(
        (
            (s.name, s.cat, s.track, *_quantize_range(s.start, s.end),
             s.depth, s.args)
            for s in tracer.spans
        ),
        (
            (i.name, i.cat, i.track, _quantize_ts(i.ts), i.depth, i.args)
            for i in tracer.instants
        ),
        audit.to_dicts(),
    )


def events_from_artifacts(artifact) -> Iterator[RawEvent]:
    """The replayable event stream of one
    :class:`~repro.obs.analysis.loader.TraceArtifacts`."""
    return _events(
        (
            (s["name"], s["cat"], s["track"], s["start"], s["start"] + s["dur"],
             s["depth"], s["args"])
            for s in artifact.spans
        ),
        (
            (i["name"], i["cat"], i["track"], i["start"], i["depth"], i["args"])
            for i in artifact.instants
        ),
        artifact.audit_rows,
    )


def publish(bus, events: Iterable[RawEvent]) -> None:
    """Publish every reconstructed event through ``bus``."""
    for event in events:
        bus.publish(*event)


def replay(session, events: Iterable[RawEvent]) -> None:
    """Publish ``events`` through ``session.bus``, then seal the session."""
    publish(session.bus, events)
    session.finish()


def replay_ticks(
    session, events: List[RawEvent], ticks: int
) -> Iterator[Tuple[float, int]]:
    """Publish ``events`` in ``ticks`` equal slices of simulated time,
    yielding ``(tick_time, events_so_far)`` after each slice (the
    renderer prints one frame per yield). The final slice is always
    yielded, even for an empty stream."""
    if ticks < 1:
        raise ValueError("ticks must be >= 1")
    end = max((e[4] for e in events), default=0.0)
    i = 0
    for tick in range(1, ticks + 1):
        horizon = end * tick / ticks
        while i < len(events) and events[i][4] <= horizon:
            session.bus.publish(*events[i])
            i += 1
        yield horizon, i
    # Anything sitting exactly past the last horizon due to float noise.
    publish(session.bus, events[i:])
    session.finish()
