"""Structural alignment: identity is names and indices, never time.

Alignment drives the trace diff, so the load-bearing properties are
(a) the identity keys match ISSUE-stable facts about the exporter
(job/stage/phase names, wave and task indices, occurrence ranks for
replans), (b) job-level rename tolerance pairs bench variants whose
labels differ, and (c) the whole thing is independent of span order.
"""

import random

from repro.obs.analysis.align import align_forests, job_name_map
from repro.obs.analysis.loader import build_forest, stage_suffix
from repro.obs.trace import (
    DEPTH_JOB,
    DEPTH_PHASE,
    DEPTH_STAGE,
    DEPTH_TASK,
    DEPTH_WAVE,
    DRIVER_TRACK,
    WAVE_TRACK,
)


def span(name, depth, track, start, dur, **args):
    return {
        "name": name, "depth": depth, "track": track,
        "start": start, "dur": dur, "args": args,
    }


def small_run(job="j", task_durs=(0.5, 0.4), extra_stage=False, slot=0):
    """One job, its main stage, a map phase, one wave of tasks -- the
    exporter's span schema in miniature."""
    spans = []
    wave_end = 0.1 + max(task_durs)
    for i, dur in enumerate(task_durs):
        spans.append(
            span(
                "task", DEPTH_TASK, f"node{i:02d}/map{slot}", 0.1, dur,
                task=f"{job}-m{i:04d}", kind="map", wave=0, attempt=0,
                op_totals={"lookup": [10, dur / 4]},
            )
        )
    spans.append(
        span(
            "map.wave0", DEPTH_WAVE, WAVE_TRACK, 0.1, wave_end - 0.1,
            wave=0, kind="map", job=job,
        )
    )
    spans.append(
        span("map", DEPTH_PHASE, DRIVER_TRACK, 0.05, wave_end - 0.04,
             kind="map", job=job)
    )
    spans.append(
        span(job, DEPTH_STAGE, DRIVER_TRACK, 0.02, wave_end + 0.0,
             job=job)
    )
    if extra_stage:
        # An extra-job stage (shuffle head build) after the main stage.
        spans.append(
            span(f"{job}/shuffle-head0", DEPTH_STAGE, DRIVER_TRACK,
                 wave_end + 0.05, 0.2, job=f"{job}/shuffle-head0")
        )
    end = wave_end + (0.3 if extra_stage else 0.05)
    spans.append(
        span(f"efind:{job}", DEPTH_JOB, DRIVER_TRACK, 0.0, end, job=job)
    )
    return spans


class TestForest:
    def test_hierarchy_shape_and_idents(self):
        (jb,) = build_forest(small_run())
        assert jb.level == "job" and jb.ident == ("j", 0)
        (stage,) = jb.children
        assert stage.ident == ("", 0)  # main stage
        (phase,) = stage.children
        assert phase.ident == ("map", 0)
        (wave,) = phase.children
        assert wave.ident == (0,)
        assert [t.ident for t in wave.children] == [
            ("m0000", "task", 0), ("m0001", "task", 0),
        ]

    def test_extra_job_stage_gets_suffix_ident(self):
        (jb,) = build_forest(small_run(extra_stage=True))
        assert [s.ident[0] for s in jb.children] == ["", "/shuffle-head0"]

    def test_stage_suffix(self):
        assert stage_suffix("q3", "q3") == ""
        assert stage_suffix("q3/shuffle-head0.0", "q3") == "/shuffle-head0.0"
        assert stage_suffix("other", "q3") == "other"

    def test_replanned_stage_occurrence_ranks(self):
        spans = small_run()
        # A dynamic replan re-runs the main stage under the same name.
        spans.append(span("j", DEPTH_STAGE, DRIVER_TRACK, 1.0, 0.3, job="j"))
        for s in spans:
            if s["depth"] == DEPTH_JOB:
                s["dur"] = 1.5
        (jb,) = build_forest(spans)
        assert [s.ident for s in jb.children] == [("", 0), ("", 1)]

    def test_overlapping_jobs_share_no_task(self):
        # An Optimized trace: the profiling job and the optimized job
        # both start at t=0, on disjoint slot tracks. Time containment
        # alone would hand each phase both jobs' tasks.
        spans = small_run("q-profile", task_durs=(0.5, 0.4, 0.3)) + small_run(
            "q-optimized", task_durs=(0.2, 0.1), slot=1
        )
        forest = build_forest(spans)
        tasks = {
            jb.label: [
                t
                for stage in jb.children
                for phase in stage.children
                for wave in phase.children
                for t in wave.children
            ]
            for jb in forest
        }
        assert {job: len(ts) for job, ts in tasks.items()} == {
            "q-optimized": 2, "q-profile": 3,
        }
        placed = [t.label for ts in tasks.values() for t in ts]
        wanted = [
            s["args"]["task"] for s in spans if s["depth"] == DEPTH_TASK
        ]
        assert sorted(placed) == sorted(wanted)  # none shared, none dropped

    def test_order_independent(self):
        spans = small_run(extra_stage=True)
        shuffled = list(spans)
        random.Random(5).shuffle(shuffled)

        def shape(nodes):
            return [
                (n.level, n.ident, n.label, n.start, n.end, shape(n.children))
                for n in nodes
            ]

        assert shape(build_forest(spans)) == shape(build_forest(shuffled))


class TestAlign:
    def test_identical_runs_fully_matched(self):
        spans = small_run()
        aligned = align_forests(spans, spans)
        statuses = {
            (n.level, n.status)
            for top in aligned
            for n in _walk(top)
        }
        assert statuses == {
            ("job", "matched"), ("stage", "matched"),
            ("phase", "matched"), ("wave", "matched"),
            ("task", "matched"),
        }

    def test_job_rename_pairs_and_maps(self):
        aligned = align_forests(small_run("slow-off"), small_run("slow-on"))
        (jb,) = aligned
        assert jb.status == "matched"
        assert jb.label == "slow-off -> slow-on"
        assert job_name_map(aligned) == {"slow-off": "slow-on"}
        # Below the job, normalized idents line up despite the rename.
        (stage,) = jb.children
        (phase,) = stage.children
        (wave,) = phase.children
        assert all(t.status == "matched" for t in wave.children)

    def test_added_task_detected(self):
        old = small_run()
        new = small_run(task_durs=(0.5, 0.4, 0.3))
        (jb,) = align_forests(old, new)
        (wave,) = jb.children[0].children[0].children
        by_status = {}
        for t in wave.children:
            by_status.setdefault(t.status, []).append(t.ident[0])
        assert by_status == {"matched": ["m0000", "m0001"], "added": ["m0002"]}

    def test_removed_subtree_is_one_sided_all_the_way_down(self):
        (jb,) = align_forests(small_run(extra_stage=True), small_run())
        removed = [s for s in jb.children if s.status == "removed"]
        assert [s.ident[0] for s in removed] == ["/shuffle-head0"]


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)
