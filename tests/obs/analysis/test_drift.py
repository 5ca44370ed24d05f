"""Cost-model drift detection.

Acceptance: on an undisturbed run, re-pricing Equations 1-4 from each
audit record's own recorded inputs reproduces the recorded costs within
float tolerance (the audit log and the cost model agree); the term join
finds the sampled T_j close to the measured index.fetch durations; and
executed-equivalence flags a chosen plan measurably slower than the
cheapest forced variant.
"""

import copy
import json
import os
import shutil

import pytest

from repro.core.costmodel import CostEnv
from repro.core.statistics import OperatorStats
from repro.indices.build import BuildSession
from repro.obs import Observability
from repro.obs.analysis import load_artifacts
from repro.obs.analysis.__main__ import main
from repro.obs.analysis.drift import (
    ExecutedEquivalence,
    executed_equivalence,
    job_drift,
    recompute_record,
    render,
    split_row_mode,
)
from repro.obs.analysis.loader import TraceArtifacts


def _dynamic_artifact(efind_env, out_dir, build=None):
    obs = Observability()
    runner = efind_env.runner(obs=obs, build=build)
    runner.run(efind_env.make_job("drift-dyn"), mode="dynamic")
    obs.export(str(out_dir), "drift-dyn")
    (artifact,) = load_artifacts(str(out_dir))
    return artifact


@pytest.fixture()
def dyn_artifact(efind_env, tmp_path):
    return _dynamic_artifact(efind_env, tmp_path / "plain")


@pytest.fixture()
def build_artifact(efind_env, tmp_path):
    """The same Dynamic run while a cold build session folds a third of
    the index in (as build-q3's ``cold`` phase): its records price the
    partial strategy with the catalog's coverage and scan time."""
    kv = efind_env.kv
    session = BuildSession({kv.name: kv}, fraction=1 / 3)
    return _dynamic_artifact(efind_env, tmp_path / "build", build=session)


def _priced_row(artifact):
    return next(r for r in artifact.audit_rows if r.get("operators"))


class TestRecompute:
    def test_audit_records_carry_pricing_inputs(self, dyn_artifact):
        rows = [r for r in dyn_artifact.audit_rows if r.get("operators")]
        assert rows, "dynamic run produced no priced evaluations"
        for row in rows:
            CostEnv(**row["env"])
            for detail in row["operators"]:
                stats = OperatorStats.from_dict(detail["stats"])
                assert detail["stats"] == stats.to_dict()
                assert set(detail["strategies"]) == {
                    str(j) for j in stats.per_index
                }

    def test_undisturbed_run_reprices_exactly(self, dyn_artifact, build_artifact):
        # identical inputs through identical equations: float-tolerance
        # agreement, not just "close" -- with and without a build session
        # (whose coverage and scan time the partial strategy prices)
        for artifact in (dyn_artifact, build_artifact):
            (drift,) = job_drift(artifact)
            assert drift.job == "drift-dyn"
            assert drift.recomputed, "nothing recomputed"
            assert drift.skipped == []
            assert drift.recompute_max_abs_error == pytest.approx(0.0, abs=1e-9)
            strategies = {r.strategy for r in drift.recomputed}
            assert strategies == {"base", "cache", "repart", "idxloc", "partial"}
        coverages = {
            idx["build_coverage"]
            for row in build_artifact.audit_rows
            for detail in row.get("operators") or []
            for idx in detail["stats"]["per_index"].values()
        }
        assert coverages and coverages != {1.0}

    def test_tampered_record_shows_error(self, dyn_artifact):
        tampered = copy.deepcopy(_priced_row(dyn_artifact))
        detail = tampered["operators"][0]
        for idx in detail["stats"]["per_index"].values():
            idx["tj"] = idx["tj"] * 2.0 + 1.0
        recomputed, _skipped = recompute_record(tampered)
        assert max(r.abs_error for r in recomputed) > 0.1

    def test_record_without_env_is_skipped_with_reason(self, dyn_artifact):
        """A record without the codec's inputs -- the pre-codec schema
        (``n1``/``sizes``/``samples``) included -- is skipped with one
        reason, never a KeyError or TypeError."""
        row = _priced_row(dyn_artifact)

        def edited(edit):
            damaged = copy.deepcopy(row)
            edit(damaged)
            return damaged

        def old_schema(r):
            for detail in r["operators"]:
                stats = detail.pop("stats")
                detail["n1"] = stats["n1"]
                detail["sizes"] = {"s1": stats["s1"]}
                detail["samples"] = stats["per_index"]

        cases = {
            "empty env": edited(lambda r: r.update(env={})),
            "no env": edited(lambda r: r.pop("env")),
            "unknown env constant": edited(lambda r: r["env"].update(bogus=1.0)),
            "old schema": edited(old_schema),
            "stats field missing": edited(
                lambda r: r["operators"][0]["stats"].pop("smap")
            ),
            "index field unknown": edited(
                lambda r: r["operators"][0]["stats"]["per_index"]["0"].update(
                    t_lookup=0.1
                )
            ),
            "null term": edited(
                lambda r: r["operators"][0]["stats"]["per_index"]["0"].update(
                    tj=None, batches_observed=0
                )
            ),
            "stats not an object": edited(
                lambda r: r["operators"][0].update(stats=[1, 2])
            ),
        }
        for name, damaged in cases.items():
            recomputed, skipped = recompute_record(damaged)
            assert recomputed == [], name
            assert len(skipped) == 1, name
            assert skipped[0].startswith(f"seq {row['seq']}: not re-priced: "), name
        (reason,) = recompute_record(cases["stats field missing"])[1]
        assert "missing field 'smap'" in reason
        (reason,) = recompute_record(cases["index field unknown"])[1]
        assert "unknown field 't_lookup'" in reason
        (reason,) = recompute_record(cases["old schema"])[1]
        assert "'stats'" in reason


class TestDriftExitCode:
    """``python -m repro.obs.analysis drift`` is the audit log's own
    self-check: exit 1 as soon as one recorded cost fails to re-price."""

    def _copy(self, artifact, dest, edit=None):
        shutil.copytree(os.path.dirname(artifact.trace_path), dest)
        if edit is None:
            return str(dest)
        audit = dest / f"{artifact.base}.audit.jsonl"
        rows = [json.loads(line) for line in audit.read_text().splitlines()]
        edit(next(r for r in rows if r.get("operators")))
        audit.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return str(dest)

    def test_one_edited_cost_exits_1(self, dyn_artifact, tmp_path, capsys):
        exact = self._copy(dyn_artifact, tmp_path / "exact")
        assert main(["drift", exact]) == 0
        assert main(["drift", exact, "--json"]) == 0

        def edit(row):
            costs = row["operators"][0]["strategies"]["0"]["costs"]
            costs["cache"] += 1e-6

        edited = self._copy(dyn_artifact, tmp_path / "edited", edit)
        assert main(["drift", edited]) == 1
        assert main(["drift", edited, "--json"]) == 1
        # the full report is a report, not a check
        assert main(["report", edited]) == 0
        capsys.readouterr()


class TestTermJoin:
    def test_sampled_tj_matches_measured_fetches(self, dyn_artifact):
        (drift,) = job_drift(dyn_artifact)
        tj_terms = [
            t for t in drift.terms if t.term == "tj" and t.measured is not None
        ]
        assert tj_terms, "no measurable T_j terms"
        for t in tj_terms:
            # the sample came from these very lookups; generous bound
            # only guards against unit mixups (ms vs s, per-batch vs
            # per-key)
            assert t.rel_error < 0.5

    def test_sample_evolution_tracks_first_and_last(self, dyn_artifact):
        (drift,) = job_drift(dyn_artifact)
        if len([r for r in dyn_artifact.audit_rows if r.get("operators")]) >= 2:
            assert drift.evolution
        for first, last in drift.evolution.values():
            assert isinstance(first, float) and isinstance(last, float)

    def test_render_is_printable(self, dyn_artifact):
        lines = render(job_drift(dyn_artifact))
        assert any("recomputed" in line for line in lines)


def _stub(base: str, duration: float) -> TraceArtifacts:
    return TraceArtifacts(
        base=base,
        trace_path=f"/x/{base}.trace.json",
        payload={},
        spans=[
            {
                "name": f"efind:{base}", "cat": "job", "track": "driver",
                "start": 0.0, "dur": duration, "depth": 0,
                "args": {"job": base, "depth": 0},
            }
        ],
    )


class TestExecutedEquivalence:
    def test_split_row_mode(self):
        assert split_row_mode("Q3-dynamic") == ("Q3", "dynamic")
        assert split_row_mode("+1ms-base") == ("+1ms", "base")
        assert split_row_mode("B=8-idxloc") == ("B=8", "idxloc")
        assert split_row_mode("unrelated") is None
        assert split_row_mode("-base") is None

    def test_flags_chosen_plan_slower_than_forced(self):
        artifacts = [
            _stub("Q-base", 10.0),
            _stub("Q-cache", 4.0),
            _stub("Q-dynamic", 5.0),
            _stub("Q-optimized", 4.01),
        ]
        results = {e.chosen_mode: e for e in executed_equivalence(artifacts)}
        assert results["dynamic"].flagged
        assert results["dynamic"].cheapest_mode == "cache"
        assert results["dynamic"].excess == pytest.approx(0.25)
        # within the 2% margin: not flagged
        assert not results["optimized"].flagged

    def test_rows_without_forced_variants_are_skipped(self):
        assert executed_equivalence([_stub("Q-dynamic", 5.0)]) == []

    def test_optimized_trace_prefers_named_job_over_profile(self):
        artifact = _stub("Q-optimized", 4.0)
        artifact.spans.append(
            {
                "name": "efind:Q-profile", "cat": "job", "track": "driver",
                "start": 0.0, "dur": 9.0, "depth": 0,
                "args": {"job": "Q-profile", "depth": 0},
            }
        )
        artifacts = [artifact, _stub("Q-base", 8.0)]
        (e,) = [
            x for x in executed_equivalence(artifacts)
            if x.chosen_mode == "optimized"
        ]
        # measured 4.0 (the optimized job), not 9.0 (the profiling job)
        assert e.times["optimized"] == pytest.approx(4.0)
        assert not e.flagged

    def test_to_dict_shape(self):
        e = ExecutedEquivalence(
            row="Q", times={"base": 2.0, "dynamic": 1.0},
            chosen_mode="dynamic", cheapest_mode="base",
            flagged=False, excess=-0.5,
        )
        d = e.to_dict()
        assert d["row"] == "Q" and d["excess"] == -0.5
