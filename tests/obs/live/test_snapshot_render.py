"""Tests for ``python -m repro.obs live`` and for fold fidelity: the fold
over an export reproduces the live run's sample stream and alert
timeline exactly."""

import json
import shutil

import pytest

from repro.obs import Observability
from repro.obs.analysis.loader import load_one
from repro.obs.live import LiveSession, artifact_rows, recording_rows, samples


@pytest.fixture(scope="module")
def live_export(tmp_path_factory):
    """One live-traced run exported to disk, with its session and recording."""
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
    return session, obs, paths, directory


class TestReplayFidelity:
    def test_sample_stream_reproduced_exactly(self, live_export):
        session, obs, paths, _dir = live_export
        artifact = load_one(paths["trace"])
        stream = samples(recording_rows(obs.tracer))
        assert stream and samples(artifact_rows(artifact)) == stream
        assert artifact.alert_rows == session.alert_rows()

    def test_cli_live_subcommand(self, live_export, capsys):
        from repro.obs.__main__ import main

        _session, _obs, _paths, directory = live_export
        assert main(["live", directory]) == 0
        out = capsys.readouterr().out
        assert "=== q3-live ===" in out
        assert "recomputed alerts match alerts.jsonl" in out

    def test_cli_live_fails_on_a_tampered_copy(self, live_export, tmp_path, capsys):
        """An alerts.jsonl that the trace does not reproduce exits 1."""
        from repro.obs.__main__ import main

        _session, _obs, paths, _dir = live_export
        shutil.copy(paths["trace"], tmp_path)
        row = {
            "seq": 0, "rule": "wave-straggler", "severity": "warning",
            "metric": "straggler_ratio", "fired_at": 1.0, "cleared_at": None,
            "state": "open", "evidence": [], "peak": 9.0, "samples": 1,
            "detail": {},
        }
        (tmp_path / "q3-live.alerts.jsonl").write_text(json.dumps(row) + "\n")
        assert main(["live", str(tmp_path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_cli_live_rejects_bad_rule_file(self, live_export, capsys):
        from repro.obs.__main__ import main

        _session, _obs, _paths, directory = live_export
        assert main(["live", directory, "--rules", "/nope.json"]) == 2
        assert "rule file does not exist" in capsys.readouterr().err

    def test_cli_live_rejects_missing_path(self, capsys):
        from repro.obs.__main__ import main

        assert main(["live", "/nonexistent-trace-dir"]) == 2
        assert "no such file" in capsys.readouterr().err
