"""Tests for the progress snapshot, the tick renderer, and replay
fidelity: a replayed export reproduces the live run's sample stream and
alert timeline exactly."""

import pytest

from repro.obs import Observability
from repro.obs.live import LiveSession
from repro.obs.live.bus import KIND_AUDIT, KIND_SPAN
from repro.obs.live.render import render_replay
from repro.obs.live.replay import events_from_artifacts, replay, replay_ticks


def _span(bus, name, cat, track, start, end, depth, args):
    bus.publish(
        KIND_SPAN, name, track, start, end, {"cat": cat, "depth": depth, "args": args}
    )


class TestSnapshot:
    def test_counts_and_determinism(self):
        session = LiveSession()
        bus = session.bus
        _span(bus, "efind:j", "job", "driver", 0.0, 3.0, 0, {"job": "j"})
        _span(
            bus, "task", "task", "t0", 0.0, 1.0, 4,
            {"task": "j-m0000", "kind": "map", "wave": 0},
        )
        _span(bus, "task.crash", "task", "t0", 0.0, 0.5, 4, {})
        _span(
            bus, "map.wave0", "wave", "waves", 0.0, 1.0, 3,
            {"kind": "map", "wave": 0, "job": "j"},
        )
        bus.publish(KIND_AUDIT, "replan", "driver", 0.9, 0.9, {"job": "j"})
        snap = session.snapshot()
        assert snap["tasks_done"] == {"j/map": 1}
        assert snap["waves_done"] == 1
        assert snap["crashes"] == 1
        assert snap["jobs_seen"] == ["j"]
        assert snap["audit_verdicts"] == {"replan": 1}
        assert snap["alerts_fired"] == 0
        # Same events -> byte-identical snapshot.
        assert snap == session.snapshot()

    def test_render_line_shows_active_alert(self):
        session = LiveSession(
            rules=[{
                "name": "slow", "metric": "straggler_ratio",
                "severity": "warning",
                "predicate": {"type": "threshold", "op": ">=", "value": 1.5},
            }]
        )
        bus = session.bus
        for task, end in (("j-m0000", 0.5), ("j-m0001", 2.0)):
            _span(
                bus, "task", "task", "t0", 0.0, end, 4,
                {"task": task, "kind": "map", "wave": 0},
            )
        _span(
            bus, "map.wave0", "wave", "waves", 0.0, 2.0, 3,
            {"kind": "map", "wave": 0, "job": "j"},
        )
        line = session.progress.render_line()
        assert "ALERT slow" in line
        assert "straggler_ratio=" in line


@pytest.fixture(scope="module")
def live_export(tmp_path_factory):
    """One live-traced run exported to disk, with its session."""
    from repro.bench.harness import bench_cluster
    from repro.core.runner import EFindRunner
    from repro.dfs.filesystem import DistributedFileSystem
    from repro.workloads import tpch

    cluster = bench_cluster()
    dfs = DistributedFileSystem(cluster, block_size=12 * 1024)
    data = tpch.generate(tpch.TpchConfig(sf=0.002))
    tpch.write_lineitem(dfs, "/in/lineitem", data)
    indexes = tpch.build_indexes(cluster, data, service_time=6e-3)
    session = LiveSession()
    obs = Observability(bus=session.bus)
    runner = EFindRunner(cluster, dfs, obs=obs)
    runner.run(
        tpch.make_q3_job("q3-live", "/in/lineitem", "/out/q3-live", indexes),
        mode="dynamic",
    )
    session.finish()
    directory = str(tmp_path_factory.mktemp("live-export"))
    paths = obs.export(directory, "q3-live", alerts=session.alert_rows())
    return session, paths, directory


class TestReplayFidelity:
    def test_sample_stream_reproduced_exactly(self, live_export):
        session, paths, _dir = live_export
        from repro.obs.analysis.loader import load_one

        artifact = load_one(paths["trace"])
        fresh = LiveSession()
        replay(fresh, events_from_artifacts(artifact))
        assert fresh.aggregators.samples == session.aggregators.samples
        assert fresh.alert_rows() == session.alert_rows()
        assert fresh.aggregators.watermark == session.aggregators.watermark

    def test_replay_ticks_equals_one_shot(self, live_export):
        _session, paths, _dir = live_export
        from repro.obs.analysis.loader import load_one

        artifact = load_one(paths["trace"])
        events = list(events_from_artifacts(artifact))
        one_shot = LiveSession()
        replay(one_shot, events)
        ticked = LiveSession()
        frames = list(replay_ticks(ticked, events, ticks=7))
        assert len(frames) == 7
        assert ticked.aggregators.samples == one_shot.aggregators.samples
        assert ticked.alert_rows() == one_shot.alert_rows()

    def test_render_replay_reports_progress(self, live_export):
        _session, paths, _dir = live_export
        from repro.obs.analysis.loader import load_one

        artifact = load_one(paths["trace"])
        lines = render_replay(artifact, ticks=4)
        assert lines[0] == "=== q3-live ==="
        assert "SLO rule(s)" in lines[1]
        assert sum(1 for l in lines if l.startswith("t=")) == 4
        assert "--- alerts ---" in lines

    def test_cli_live_subcommand(self, live_export, capsys):
        from repro.obs.__main__ import main

        _session, _paths, directory = live_export
        assert main(["live", directory, "--ticks", "3"]) == 0
        out = capsys.readouterr().out
        assert "=== q3-live ===" in out
        assert "--- alerts ---" in out

    def test_cli_live_rejects_bad_rule_file(self, live_export, capsys):
        from repro.obs.__main__ import main

        _session, _paths, directory = live_export
        assert main(["live", directory, "--rules", "/nope.json"]) == 2
        assert "rule file does not exist" in capsys.readouterr().err

    def test_cli_live_rejects_missing_path(self, capsys):
        from repro.obs.__main__ import main

        assert main(["live", "/nonexistent-trace-dir"]) == 2
        assert "no such file" in capsys.readouterr().err
