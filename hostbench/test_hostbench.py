"""Self-test of the benchmark harness (not part of tier-1):

    python3 -m pytest hostbench/test_hostbench.py

Runs every workload at smoke scale, one pass, and checks that what it
emits is exactly what BENCHMARK.json declares, and that a wrong output
is counted as a failed run.
"""

import contextlib
import io
import json
import re

import pytest

from hostbench import run, workloads
from hostbench.spec import load_spec, units

SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_declaration_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["hostbench"]
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def smoke(workload, out, trace=1):
    """One smoke run in this process: (exit code, stdout lines, record)."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = run.main(
            ["--workload", workload, "--smoke", "--trace", str(trace), "--out", str(out)]
        )
    with open(out / f"{workload}.json") as fh:
        report = json.load(fh)
    return code, captured.getvalue().strip().split("\n"), report


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    """Each workload's traced smoke run, made once for the module."""
    out = tmp_path_factory.mktemp("hostbench")
    return out, {workload: smoke(workload, out) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_declared_metrics(workload, traced_smoke):
    out, runs = traced_smoke
    code, lines, report = runs[workload]
    assert code == 0, report["failures"]
    unit = units(SPEC)

    # --trace 1: every per-layer metric, each with its declared unit.
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name, entry in last["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == unit[name]
        assert isinstance(entry["value"], (int, float))
    # Whatever a workload computes is declared; the rest reads 0.
    assert set(report["per_layer"]) <= set(last["metrics"])
    assert all(
        entry["value"] == 0
        for name, entry in last["metrics"].items()
        if name not in report["per_layer"]
    )

    # --trace 0: every end-to-end metric, none of them 0.
    untraced = json.loads(run.result_line(report, SPEC, trace=0))
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())

    # The human-readable part names every computed metric with its unit.
    text = "\n".join(lines[:-1])
    for name in list(report["end_to_end"]) + list(report["per_layer"]):
        pattern = rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit[name])}$"
        assert re.search(pattern, text, re.M), name

    # Run record.
    for key in (
        "git_commit", "python", "nproc", "gc_enabled", "load_average", "seed",
        "passes", "raw_passes",
    ):
        assert key in report
    assert (out / f"{workload}.spans.jsonl").exists()


def test_every_per_layer_metric_is_computed_by_some_workload(traced_smoke):
    _out, runs = traced_smoke
    computed = set()
    for _code, _lines, report in runs.values():
        computed |= set(report["per_layer"])
    assert computed == {m["name"] for m in SPEC["per_layer"]}


def test_wrong_output_is_a_failed_run(tmp_path, monkeypatch):
    real = workloads.Q3Join.references

    def tampered(self, st):
        reference = real(self, st)["main"]
        key, value = reference[0]
        return {"main": [(key, value + 1.0)] + reference[1:]}

    monkeypatch.setattr(workloads.Q3Join, "references", tampered)
    code, lines, report = smoke("q3-join", tmp_path, trace=0)
    last = json.loads(lines[-1])
    assert code != 0
    assert last["correct"] is False
    assert last["failed"] > 0 and last["failed"] / last["attempted"] > 0
    assert any("differs from the reference" in f["reason"] for f in report["failures"])
