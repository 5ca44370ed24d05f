"""The exported artifacts' layout: one C-encoded event per line, written
beside the target and renamed over it. Whatever a span's or an alert's
args hold, the file parses back to exactly ``to_chrome_trace``'s dict;
a file cut at a line boundary is refused by the loader, never half-read.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.obs.analysis.loader import TraceArtifactError, load_one
from repro.obs.export import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_json,
    write_jsonl,
)
from repro.obs.trace import Instant, Span, Tracer

# Lone surrogates and non-ASCII text beside what st.text() draws (it
# leaves surrogates out); JSON escapes both and must give them back. A
# high surrogate is never last in its piece: next to a low one the two
# would read back as one astral character, in any layout.
_AWKWARD = st.sampled_from(
    ["\ud800x", "\udfff", "\udc00", "é", "日本語", "\x00", '"\\', "\n", "\u2028"]
)
_TEXT = st.lists(st.one_of(st.text(max_size=5), _AWKWARD), max_size=3).map("".join)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),  # beyond 2**53 too
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 2.0**53 + 2.0, 5e-324, 1e308]),
    _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=3)
    ),
    max_leaves=8,
)
_ARGS = st.dictionaries(_TEXT, _VALUES, max_size=4)
_TRACKS = st.sampled_from(["driver", "driver/waves", "node01/map0", "node02/reduce1"])
_TIMES = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
_SPANS = st.builds(
    Span, _TEXT, _TEXT, _TRACKS, _TIMES, _TIMES, st.integers(0, 6), _ARGS
)
_INSTANTS = st.builds(Instant, _TEXT, _TEXT, _TRACKS, _TIMES, st.integers(0, 6), _ARGS)
_ALERTS = st.lists(
    st.fixed_dictionaries(
        {
            "rule": _TEXT,
            "severity": st.sampled_from(["warning", "critical"]),
            "metric": _TEXT,
            "fired_at": _TIMES,
            "cleared_at": st.one_of(st.none(), _TIMES),
            "state": st.sampled_from(["open", "cleared"]),
            "peak": st.floats(allow_nan=False, allow_infinity=False),
        }
    ),
    max_size=3,
).map(lambda rows: [dict(row, seq=i) for i, row in enumerate(rows)])


def _tracer(spans, instants):
    tracer = Tracer()
    tracer.spans.extend(spans)
    tracer.instants.extend(instants)
    return tracer


class TestTraceLayout:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        spans=st.lists(_SPANS, min_size=1, max_size=6),
        instants=st.lists(_INSTANTS, max_size=3),
        alerts=st.one_of(st.none(), _ALERTS),
    )
    def test_round_trip_line_layout_and_truncation(
        self, tmp_path, spans, instants, alerts
    ):
        tracer = _tracer(spans, instants)
        path = str(tmp_path / "x.trace.json")
        write_chrome_trace(tracer, path, alerts=alerts)
        expected = to_chrome_trace(tracer, alerts=alerts)

        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        loaded = json.loads(text)
        assert loaded == expected
        assert loaded["traceEvents"] == expected["traceEvents"]  # same order
        assert validate_chrome_trace(loaded) == []
        assert os.listdir(tmp_path) == ["x.trace.json"]  # no .tmp left behind

        # Header line, one line per event, tail line.
        lines = text.splitlines(keepends=True)
        assert len(lines) == len(expected["traceEvents"]) + 2
        for line, event in zip(lines[1:-1], expected["traceEvents"]):
            assert json.loads(line.rstrip(",\n")) == event
        assert lines[-1] == "]}\n"

        # Cut at any line boundary: not a trace, and said so.
        cut = str(tmp_path / "cut.trace.json")
        for keep in range(len(lines)):
            with open(cut, "w", encoding="utf-8") as fh:
                fh.writelines(lines[:keep])
            with pytest.raises(TraceArtifactError):
                load_one(cut)
        os.remove(cut)

    def test_export_of_a_run_without_spans(self, tmp_path):
        paths = Observability().export(str(tmp_path), "empty")
        with open(paths["trace"], encoding="utf-8") as fh:
            assert json.load(fh) == to_chrome_trace(Tracer())


class TestReplaceOnWrite:
    def test_interrupted_write_keeps_the_previous_artifact(self, tmp_path):
        """A writer that dies mid-stream (here: a row that cannot be
        encoded) leaves the complete earlier file in place."""
        path = str(tmp_path / "a.audit.jsonl")
        write_jsonl([{"seq": 0}], path)
        with pytest.raises(TypeError):
            write_jsonl([{"seq": 1}, {"bad": object()}], path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == '{"seq": 0}\n'
        assert os.listdir(tmp_path) == ["a.audit.jsonl"]  # and no .tmp beside it

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            write_json({"bad": object()}, str(tmp_path / "m.metrics.json"))
        with pytest.raises(TypeError):
            write_jsonl(iter([{"bad": object()}]), str(tmp_path / "a.jsonl"))
        with pytest.raises(FileNotFoundError):  # the cause, not the clean-up
            write_jsonl([], str(tmp_path / "no-such-dir" / "a.jsonl"))
        assert os.listdir(tmp_path) == []

    def test_writers_keep_their_bytes(self, tmp_path):
        rows = [{"b": 1, "a": "é\ud800"}, {}]
        write_jsonl(rows, str(tmp_path / "r.jsonl"))
        assert (tmp_path / "r.jsonl").read_text(encoding="utf-8") == "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in rows
        )
        write_json({"b": [1, 2], "a": {"c": -0.0}}, str(tmp_path / "m.json"))
        assert (tmp_path / "m.json").read_text(encoding="utf-8") == (
            json.dumps({"b": [1, 2], "a": {"c": -0.0}}, indent=1, sort_keys=True)
            + "\n"
        )
