"""The perf-regression gate.

Acceptance: ``regress`` exits non-zero when the Q3 Dynamic time is
inflated by 10%, and passes (exit 0) on an identical re-run.
"""

import copy
import json

import pytest

from repro.obs.analysis.loader import TraceArtifactError
from repro.obs.analysis.regress import (
    Tolerances,
    compare,
    compare_files,
    load_baseline,
    render,
)


def q3_doc():
    return {
        "schema_version": 1,
        "suite": "tpch",
        "time_unit": "simulated seconds",
        "experiments": {
            "fig11b": {
                "title": "TPC-H Q3",
                "rows": [
                    {
                        "label": "Q3",
                        "times": {
                            "Base": 2.73, "Cache": 1.17, "Dynamic": 2.38,
                            "Idxloc": 1.87, "Optimized": 1.24, "Repart": 1.84,
                        },
                    }
                ],
            }
        },
    }


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestCompare:
    def test_identical_rerun_passes(self, tmp_path):
        old = write(tmp_path, "old.json", q3_doc())
        new = write(tmp_path, "new.json", q3_doc())
        report = compare_files(old, new)
        assert report.ok
        assert not report.failures
        assert all(d.status == "ok" for d in report.deltas)

    def test_injected_10pct_slowdown_on_q3_fails(self, tmp_path):
        doc = q3_doc()
        doc["experiments"]["fig11b"]["rows"][0]["times"]["Dynamic"] *= 1.10
        report = compare_files(
            write(tmp_path, "old.json", q3_doc()),
            write(tmp_path, "new.json", doc),
        )
        assert not report.ok
        (failure,) = report.failures
        assert failure.mode == "Dynamic"
        assert failure.status == "regression"
        assert failure.change == pytest.approx(0.10)

    def test_improvement_does_not_fail(self, tmp_path):
        doc = q3_doc()
        doc["experiments"]["fig11b"]["rows"][0]["times"]["Base"] *= 0.8
        report = compare_files(
            write(tmp_path, "old.json", q3_doc()),
            write(tmp_path, "new.json", doc),
        )
        assert report.ok
        (imp,) = report.improvements
        assert imp.mode == "Base"

    def test_missing_mode_fails_added_does_not(self):
        old, new = q3_doc(), q3_doc()
        del new["experiments"]["fig11b"]["rows"][0]["times"]["Idxloc"]
        new["experiments"]["fig11b"]["rows"][0]["times"]["Extra"] = 1.0
        report = compare(old, new, Tolerances())
        statuses = {(d.mode, d.status) for d in report.deltas}
        assert ("Idxloc", "missing") in statuses
        assert ("Extra", "added") in statuses
        assert not report.ok  # missing fails; added alone would not

    def test_missing_row_fails(self):
        old, new = q3_doc(), q3_doc()
        new["experiments"]["fig11b"]["rows"] = []
        report = compare(old, new, Tolerances())
        assert not report.ok
        assert report.failures[0].status == "missing"

    def test_counter_drift_fails(self):
        old, new = q3_doc(), q3_doc()
        old["experiments"]["fig11b"]["rows"][0]["faults"] = {
            "Base": {"lookups_retried": 10.0}
        }
        new["experiments"]["fig11b"]["rows"][0]["faults"] = {
            "Base": {"lookups_retried": 14.0}
        }
        report = compare(old, new, Tolerances())
        assert not report.ok
        (failure,) = report.failures
        assert failure.status == "counter-drift"
        assert failure.quantity == "faults.lookups_retried"

    def test_unlisted_counter_group_drift_fails(self):
        """Any ``{mode: {name: value}}`` key of a row is a counter
        group, whatever it is called; scalar keys are not."""
        old, new = q3_doc(), q3_doc()
        old["experiments"]["fig11b"]["rows"][0].update(
            foo={"Base": {"bar": 1.0}}, note=1.0
        )
        new["experiments"]["fig11b"]["rows"][0].update(
            foo={"Base": {"bar": 2.0}}, note=2.0
        )
        (failure,) = compare(old, new, Tolerances()).failures
        assert failure.status == "counter-drift"
        assert failure.quantity == "foo.bar"

    def test_tolerance_absorbs_small_drift(self):
        old, new = q3_doc(), q3_doc()
        new["experiments"]["fig11b"]["rows"][0]["times"]["Base"] *= 1.04
        assert compare(old, new, Tolerances(rel_tol=0.05)).ok
        assert not compare(old, new, Tolerances(rel_tol=0.01)).ok

    def test_per_experiment_override(self):
        old, new = q3_doc(), q3_doc()
        new["experiments"]["fig11b"]["rows"][0]["times"]["Base"] *= 1.08
        tol = Tolerances(
            rel_tol=0.05, per_experiment={"fig11b": {"rel_tol": 0.10}}
        )
        assert compare(old, new, tol).ok
        assert not compare(old, new, Tolerances(rel_tol=0.05)).ok


class TestLoadAndCli:
    def test_schema_version_mismatch(self, tmp_path):
        doc = q3_doc()
        doc["schema_version"] = 99
        with pytest.raises(TraceArtifactError, match="schema_version"):
            load_baseline(write(tmp_path, "v99.json", doc))

    def test_not_a_baseline(self, tmp_path):
        with pytest.raises(TraceArtifactError, match="experiments"):
            load_baseline(write(tmp_path, "x.json", {"foo": 1}))

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        old = write(tmp_path, "old.json", q3_doc())
        slow = q3_doc()
        slow["experiments"]["fig11b"]["rows"][0]["times"]["Dynamic"] *= 1.10
        new = write(tmp_path, "new.json", slow)

        assert main(["regress", old, old]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["regress", old, new]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "Dynamic" in out

    def test_cli_tolerance_config(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        old = write(tmp_path, "old.json", q3_doc())
        slow = q3_doc()
        slow["experiments"]["fig11b"]["rows"][0]["times"]["Dynamic"] *= 1.10
        new = write(tmp_path, "new.json", slow)
        cfg = write(
            tmp_path, "tol.json",
            {"rel_tol": 0.05, "per_experiment": {"fig11b": {"rel_tol": 0.25}}},
        )
        assert main(["regress", old, new, "--tolerance-config", cfg]) == 0
        capsys.readouterr()
        assert main(["regress", old, new, "--rel-tol", "0.25"]) == 0
        capsys.readouterr()
        assert (
            main(["regress", old, new, "--tolerance-config", cfg,
                  "--rel-tol", "0.2"])
            == 2
        )

    def test_cli_json_output(self, tmp_path, capsys):
        from repro.obs.analysis.__main__ import main

        old = write(tmp_path, "old.json", q3_doc())
        assert main(["regress", old, old, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["failures"] == []

    def test_render_summarizes(self):
        report = compare(q3_doc(), q3_doc(), Tolerances())
        lines = render(report)
        assert lines[-1].startswith("OK")


class TestRenderMagnitudes:
    """No-percentage rows (old absent or zero => ``Delta.change`` is
    None) must still show the values -- a vanished row's times, an
    added mode's time, a counter that moved off zero."""

    def test_missing_row_renders_its_times(self):
        old, new = q3_doc(), q3_doc()
        new["experiments"]["fig11b"]["rows"] = []
        report = compare(old, new, Tolerances())
        text = "\n".join(render(report))
        # Every vanished mode is listed with its old magnitude.
        assert "Base time: 2.73 -> absent" in text
        assert "Cache time: 1.17 -> absent" in text
        assert "None" not in text

    def test_added_mode_renders_new_value(self):
        old, new = q3_doc(), q3_doc()
        new["experiments"]["fig11b"]["rows"][0]["times"]["Extra"] = 1.5
        report = compare(old, new, Tolerances())
        text = "\n".join(render(report))
        assert "Extra time: absent -> 1.5" in text
        assert "None" not in text

    def test_added_row_renders_its_times(self):
        old, new = q3_doc(), q3_doc()
        new["experiments"]["fig11b"]["rows"].append(
            {"label": "Q9", "times": {"Base": 4.2}}
        )
        report = compare(old, new, Tolerances())
        assert report.ok  # added rows never fail the gate
        text = "\n".join(render(report))
        assert "Q9 / Base time: absent -> 4.2" in text

    def test_from_zero_counter_renders_magnitudes(self):
        old, new = q3_doc(), q3_doc()
        old["experiments"]["fig11b"]["rows"][0]["spec"] = {
            "Base": {"backups_launched": 0.0}
        }
        new["experiments"]["fig11b"]["rows"][0]["spec"] = {
            "Base": {"backups_launched": 5.0}
        }
        report = compare(old, new, Tolerances())
        (failure,) = report.failures
        assert failure.change is None  # no percentage from zero...
        text = "\n".join(render(report))
        assert "spec.backups_launched: 0 -> 5" in text  # ...values shown


class TestCommittedBaselines:
    """The baselines committed in this repo stay loadable and
    self-consistent (regenerating them is covered by CI, which runs
    the real benches and regresses against these files)."""

    @pytest.mark.parametrize("suite", ["tpch", "synthetic", "paper"])
    def test_committed_baseline_loads(self, suite):
        import os

        from repro.bench.baseline import SUITES, baseline_filename

        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "..",
            baseline_filename(suite),
        )
        doc = load_baseline(path)
        assert doc["suite"] == suite
        assert set(doc["experiments"]) == set(SUITES[suite])
        for experiment in doc["experiments"].values():
            for row in experiment["rows"]:
                assert row["times"], "row without times"

    def test_identity_compare_of_committed_files(self):
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "..", "..")
        for name in ("BENCH_tpch.json", "BENCH_synthetic.json", "BENCH_paper.json"):
            path = os.path.join(root, name)
            report = compare_files(path, path)
            assert report.ok and not report.failures
