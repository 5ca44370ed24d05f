"""Tests for the ``python -m repro.bench`` CLI (argument handling only;
the experiments themselves are exercised by the benchmarks)."""

import pytest

from repro.bench.__main__ import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig11a", "fig12", "fig13", "sec53"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig11a", "fig11b", "fig11c", "fig11d", "fig11e",
            "fig11f", "fig12", "fig13", "sec53", "batching", "faults",
            "reuse-q3", "spec-q3", "build-q3",
            "fig11a-small", "fig11f-small",
        }
        for experiment in EXPERIMENTS.values():
            assert callable(experiment.run) and experiment.title

    def test_run_single_fast_experiment(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out
        assert "remote" in out


class TestLiveFlag:
    @pytest.fixture(autouse=True)
    def _reset_obs_config(self):
        from repro.obs.config import set_live_rules, set_trace_dir

        yield
        set_trace_dir(None)
        set_live_rules(None)

    def test_live_requires_trace(self, capsys):
        assert main(["--live", "fig12"]) == 2
        assert "--live requires --trace" in capsys.readouterr().err

    def test_live_resolves_default_rule_file(self, tmp_path):
        import os

        from repro.obs.config import get_live_rules

        assert main(["--list", "--trace", str(tmp_path), "--live"]) == 0
        expected = os.path.join("benchmarks", "slo_rules.json")
        if os.path.exists(expected):
            assert get_live_rules() == expected
        else:
            assert get_live_rules() == ""

    def test_live_passes_explicit_rule_file(self, tmp_path):
        from repro.obs.config import get_live_rules

        rules = tmp_path / "rules.json"
        rules.write_text("[]", encoding="utf-8")
        assert main(
            ["--list", "--trace", str(tmp_path), "--live", str(rules)]
        ) == 0
        assert get_live_rules() == str(rules)
