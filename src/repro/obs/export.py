"""Exporters: Chrome ``trace_event`` JSON, JSONL, and the validator.

The Chrome format (loadable in ``chrome://tracing`` and Perfetto) wants
events keyed by process/thread ids with microsecond timestamps. We map
tracks onto that as:

* process = the part of the track name before the first ``/`` (a host,
  or ``driver``), thread = the full track name (one per task slot);
* spans become ``"X"`` complete events with ``ts``/``dur`` in
  microseconds of *simulated* time; instants become ``"i"`` events;
* ``"M"`` metadata events name every process/thread, and
  ``thread_sort_index`` keeps slot order stable in the UI;
* every event carries ``args.depth`` (the explicit nesting level, see
  :mod:`repro.obs.trace`), so tools need no containment inference;
* SLO alerts (from a live run) become async ``"b"``/``"e"`` pairs on
  the ``driver/alerts`` track, so the firing windows render as bands
  over the run in the trace UI. An alert still open at end of run
  closes its ``"e"`` at the trace end.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.trace import Tracer

_US = 1_000_000  # simulated seconds -> trace microseconds
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def _event_encoder():
    """``_ENCODE`` as one C encoder for a whole export, called once per
    event: ``JSONEncoder.encode`` builds a fresh one on every call.
    Same output; trace events hold no reference cycles, so there is no
    circular-reference bookkeeping either."""
    encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", ", ", True, False, True,
    )
    return lambda event: "".join(encode(event, 0))


_FLOAT_REPR = float.__repr__


def _number(x: Any) -> str:
    """A timestamp as ``_ENCODE`` writes it, without the encoder call
    for a finite ``float`` (every one a simulation produces)."""
    if x.__class__ is float and x - x == 0.0:
        return _FLOAT_REPR(x)
    return _ENCODE(x)


def _track_ids(tracks: Iterable[str]) -> Dict[str, Tuple[int, int]]:
    """Deterministic (pid, tid) per track: processes sorted by name
    (driver first), threads sorted within each process."""
    by_process: Dict[str, List[str]] = {}
    for track in tracks:
        process = track.split("/", 1)[0]
        by_process.setdefault(process, []).append(track)
    processes = sorted(by_process, key=lambda p: (p != "driver", p))
    ids: Dict[str, Tuple[int, int]] = {}
    for pid, process in enumerate(processes, start=1):
        for tid, track in enumerate(sorted(set(by_process[process])), start=1):
            ids[track] = (pid, tid)
    return ids


#: Track carrying SLO alert bands in the exported trace.
ALERT_TRACK = "driver/alerts"


def _trace_lines(tracer: Tracer, alerts: Optional[List[dict]]) -> Iterator[str]:
    """The trace's events in file order, each encoded as ``_ENCODE``
    would encode its dict (sorted keys, ASCII), one at a time: the
    writer streams each line to the file and lets it go.

    Spans -- nearly every line -- are not built as dicts: their fixed
    keys are spelled out in sorted order around the one encoder call
    their ``args`` needs, and each distinct name, category and track is
    encoded once per export."""
    encode = _event_encoder()
    tracks = {s.track for s in tracer.spans} | {i.track for i in tracer.instants}
    if alerts:
        tracks.add(ALERT_TRACK)
    ids = _track_ids(tracks)

    seen_pids: Dict[int, str] = {}
    for track, (pid, tid) in sorted(ids.items(), key=lambda kv: kv[1]):
        process = track.split("/", 1)[0]
        if pid not in seen_pids:
            seen_pids[pid] = process
            yield encode({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": process},
            })
        yield encode({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": track},
        })
        yield encode({
            "ph": "M", "name": "thread_sort_index", "pid": pid, "tid": tid,
            "args": {"sort_index": tid},
        })

    quoted: Dict[Any, str] = {}

    def quote(text: Any) -> str:
        out = quoted.get(text)
        if out is None:
            out = quoted[text] = _ENCODE(text)
        return out

    x_tail = {
        t: f', "ph": "X", "pid": {pid}, "tid": {tid}, "ts": '
        for t, (pid, tid) in ids.items()
    }
    for span in tracer.spans:
        dur = round(max(0.0, span.end - span.start) * _US, 3)
        yield (
            f'{{"args": {encode(dict(span.args, depth=span.depth))}, '
            f'"cat": {quote(span.cat)}, "dur": {_number(dur)}, '
            f'"name": {quote(span.name)}{x_tail[span.track]}'
            f"{_number(round(span.start * _US, 3))}}}"
        )
    for inst in tracer.instants:
        pid, tid = ids[inst.track]
        yield encode({
            "ph": "i",
            "name": inst.name,
            "cat": inst.cat,
            "pid": pid,
            "tid": tid,
            "ts": round(inst.ts * _US, 3),
            "s": "t",
            "args": dict(inst.args, depth=inst.depth),
        })

    if alerts:
        pid, tid = ids[ALERT_TRACK]
        trace_end = max(
            [s.end for s in tracer.spans] + [i.ts for i in tracer.instants],
            default=0.0,
        )
        for row in alerts:
            fired = float(row.get("fired_at", 0.0))
            cleared = row.get("cleared_at")
            ends = (
                float(cleared)
                if isinstance(cleared, (int, float))
                else max(trace_end, fired)
            )
            common = {
                "name": str(row.get("rule", "alert")),
                "cat": "alert",
                "id": int(row.get("seq", 0)),
                "pid": pid,
                "tid": tid,
            }
            yield encode(dict(
                common,
                ph="b",
                ts=round(fired * _US, 3),
                args={
                    "depth": 0,
                    "severity": row.get("severity"),
                    "metric": row.get("metric"),
                    "state": row.get("state"),
                    "peak": row.get("peak"),
                },
            ))
            yield encode(
                dict(common, ph="e", ts=round(ends * _US, 3), args={"depth": 0})
            )


def _trace_header(tracer: Tracer) -> dict:
    """The trace object without its events."""
    return {
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated",
            "dropped_detail": tracer.dropped_detail,
        },
    }


def to_chrome_trace(tracer: Tracer, alerts: List[dict] = None) -> dict:
    """Convert a tracer's spans/instants (and optionally the live SLO
    ``alerts.jsonl`` rows) to a Chrome trace dict: what
    :func:`write_chrome_trace` would write, parsed."""
    return json.loads("".join(_trace_chunks(tracer, alerts)))


def _replace_with(path: str, chunks: Iterable[str]) -> None:
    """Write beside ``path``, then rename: a run killed mid-export
    leaves the previous artifact or none, never half of one."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except BaseException:  # a row that cannot be encoded, a full disk, ^C
        with suppress(OSError):
            os.unlink(tmp)
        raise
    os.replace(tmp, path)


def write_chrome_trace(tracer: Tracer, path: str, alerts: List[dict] = None) -> None:
    """One event per line: ``json`` runs its C encoder only without
    ``indent``, a line per event still greps and ``diff``s, and a file
    cut at any line boundary is not JSON. Each line goes to the file as
    it is encoded; the trace never exists as one string."""
    _replace_with(path, _trace_chunks(tracer, alerts))


def _trace_chunks(tracer: Tracer, alerts: Optional[List[dict]]) -> Iterator[str]:
    yield _ENCODE(_trace_header(tracer))[:-1] + ', "traceEvents": [\n'
    separator = ""
    for line in _trace_lines(tracer, alerts):
        yield separator + line
        separator = ",\n"
    yield "\n]}\n"


def write_json(payload: Any, path: str) -> None:
    _replace_with(path, (json.dumps(payload, indent=1, sort_keys=True), "\n"))


def write_jsonl(rows: Iterable[dict], path: str) -> None:
    _replace_with(path, (_ENCODE(row) + "\n" for row in rows))


# ----------------------------------------------------------------------
# Validation (used by tests and the CI traced-bench step)
# ----------------------------------------------------------------------
_REQUIRED_BY_PHASE = {
    "X": ("name", "ts", "dur", "pid", "tid", "args"),
    "i": ("name", "ts", "pid", "tid", "args"),
    "M": ("name", "pid", "args"),
    # Async begin/end pairs -- SLO alert bands from live runs.
    "b": ("name", "cat", "id", "ts", "pid", "tid", "args"),
    "e": ("name", "cat", "id", "ts", "pid", "tid", "args"),
}


def validate_chrome_trace(payload: dict) -> List[str]:
    """Structural checks on an exported trace; returns a list of
    problems (empty = valid).

    Checks: top-level shape, per-phase required fields, non-negative
    timestamps/durations, ``args.depth`` on every X/i event, named
    processes and threads for every (pid, tid) used by events, and
    balanced ``b``/``e`` async pairs per (name, id).
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("trace contains no events")

    named_processes = set()
    named_threads = set()
    used_threads = set()
    async_open: Dict[Tuple[Any, Any], int] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in _REQUIRED_BY_PHASE:
            problems.append(
                f"event {i}: unsupported phase {ph!r} "
                f"(known: {', '.join(sorted(_REQUIRED_BY_PHASE))})"
            )
            continue
        for key in _REQUIRED_BY_PHASE[ph]:
            if key not in ev:
                problems.append(f"event {i} ({ph}): missing {key!r}")
        if ph == "M":
            if ev.get("name") == "process_name":
                named_processes.add(ev.get("pid"))
            elif ev.get("name") == "thread_name":
                named_threads.add((ev.get("pid"), ev.get("tid")))
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: bad dur {dur!r}")
        if ph in ("b", "e"):
            key = (ev.get("name"), ev.get("id"))
            async_open[key] = async_open.get(key, 0) + (1 if ph == "b" else -1)
        elif ph in ("X", "i"):
            depth = ev.get("args", {}).get("depth")
            if not isinstance(depth, int) or depth < 0:
                problems.append(f"event {i}: missing args.depth")
        used_threads.add((ev.get("pid"), ev.get("tid")))

    for (name, async_id), balance in sorted(
        async_open.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
    ):
        if balance:
            problems.append(
                f"async pair {name!r} id={async_id!r}: unmatched 'b'/'e' "
                f"(balance {balance:+d})"
            )

    for pid, tid in sorted(used_threads):
        if pid not in named_processes:
            problems.append(f"pid {pid} has no process_name metadata")
        if (pid, tid) not in named_threads:
            problems.append(f"thread ({pid}, {tid}) has no thread_name metadata")
    return problems


def max_event_depth(payload: dict) -> int:
    """Deepest ``args.depth`` over X/i events (-1 when none)."""
    depths = [
        ev["args"]["depth"]
        for ev in payload.get("traceEvents", [])
        if ev.get("ph") in ("X", "i") and isinstance(
            ev.get("args", {}).get("depth"), int
        )
    ]
    return max(depths) if depths else -1
