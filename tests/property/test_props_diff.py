"""Property-based tests (hypothesis): trace-diff exactness and
order-stability over randomized synthetic runs.

The generator builds structurally valid two-run span sets (jobs ->
stages -> phases -> slot-packed task waves, mirroring the exporter's
schema and the scheduler's invariants) from a seed. The properties:

* ``diff(run, run)`` is exactly ``0.0`` at every hierarchy level, for
  any generated run -- not just the committed bench experiments;
* for ANY two runs -- even structurally unrelated ones -- the
  contributors sum to the total sim-time delta within 1e-9 (unmatched
  spans are explicit contributors, never silent skew);
* alignment is order-stable: shuffling the artifact's row order
  (spans, audit JSONL, alert JSONL) never changes the attribution,
  byte for byte of the result dict.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.analysis.diff import diff_artifacts
from repro.obs.analysis.loader import TraceArtifacts
from repro.obs.trace import (
    DEPTH_JOB,
    DEPTH_PHASE,
    DEPTH_STAGE,
    DEPTH_TASK,
    DEPTH_WAVE,
    DRIVER_TRACK,
    WAVE_TRACK,
)

seeds = st.integers(min_value=0, max_value=2**16)


def span(name, depth, track, start, dur, **args):
    return {
        "name": name, "depth": depth, "track": track,
        "start": start, "dur": dur, "args": args,
    }


def synth_spans(rng: random.Random):
    """A random-but-valid exported run: sequential jobs, sequential
    stages/phases, waves of slot-packed tasks with op_totals."""
    spans = []
    clock = 0.0
    for j in range(rng.randint(1, 2)):
        job = f"j{j}"
        job_start = clock + rng.uniform(0.0, 0.05)
        t = job_start + rng.uniform(0.0, 0.02)
        for s in range(rng.randint(1, 2)):
            stage_conf = job if s == 0 else f"{job}/shuffle-head0.{s}"
            stage_start = t
            pt = stage_start + rng.uniform(0.0, 0.005)
            kinds = ["map"] + (["reduce"] if rng.random() < 0.5 else [])
            for kind in kinds:
                phase_start = pt
                wt = phase_start + rng.uniform(0.0, 0.005)
                task_no = 0
                for w in range(rng.randint(1, 3)):
                    wave_start = wt
                    ends = []
                    for slot in range(rng.randint(1, 3)):
                        dur = rng.uniform(0.05, 0.5)
                        prefix = "m" if kind == "map" else "r"
                        lookup = rng.uniform(0.0, dur / 2)
                        spans.append(
                            span(
                                "task", DEPTH_TASK,
                                f"node{slot:02d}/{kind}0",
                                wave_start, dur,
                                task=f"{stage_conf}-{prefix}{task_no:04d}",
                                kind=kind, wave=w, attempt=0,
                                op_totals={"lookup": [5, lookup]},
                            )
                        )
                        ends.append(wave_start + dur)
                        task_no += 1
                    wave_end = max(ends)
                    spans.append(
                        span(
                            f"{kind}.wave{w}", DEPTH_WAVE, WAVE_TRACK,
                            wave_start, wave_end - wave_start,
                            wave=w, kind=kind, job=stage_conf,
                        )
                    )
                    wt = wave_end + rng.uniform(0.0, 0.01)
                phase_end = wt + rng.uniform(0.0, 0.005)
                spans.append(
                    span(kind, DEPTH_PHASE, DRIVER_TRACK, phase_start,
                         phase_end - phase_start, kind=kind, job=stage_conf)
                )
                pt = phase_end
            stage_end = pt + rng.uniform(0.0, 0.005)
            spans.append(
                span(stage_conf, DEPTH_STAGE, DRIVER_TRACK, stage_start,
                     stage_end - stage_start, job=stage_conf)
            )
            t = stage_end
        job_end = t + rng.uniform(0.0, 0.01)
        spans.append(
            span(f"efind:{job}", DEPTH_JOB, DRIVER_TRACK, job_start,
                 job_end - job_start, job=job)
        )
        clock = job_end
    return spans


def synth_audit(rng: random.Random):
    rows = []
    for seq in range(rng.randint(0, 4)):
        rows.append(
            {
                "seq": seq, "job": "j0", "phase": "map",
                "verdict": rng.choice(["keep", "switch", "note"]),
                "sim_time": rng.uniform(0.0, 1.0),
                "operators": [{
                    "operator": "op0",
                    "stats": {
                        "n": rng.randint(1, 100),
                        "per_index": {"0": {"t_lookup": rng.uniform(0, 0.1)}},
                    },
                    "strategies": {
                        "0": {"costs": {"base": rng.uniform(0, 5)}}
                    },
                }],
            }
        )
    return rows


def artifact(spans, audit=(), alerts=()):
    return TraceArtifacts(
        base="x", trace_path="", payload={}, spans=spans,
        audit_rows=list(audit), alert_rows=list(alerts),
    )


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_self_diff_exact_zero_at_every_level(seed):
    spans = synth_spans(random.Random(seed))
    diff = diff_artifacts(artifact(spans), artifact(spans))
    assert diff.identical
    assert diff.total_delta == 0.0
    assert all(v == 0.0 for v in diff.max_abs_by_level().values())
    assert all(c.delta == 0.0 for c in diff.contributors)


@given(seed_old=seeds, seed_new=seeds)
@settings(max_examples=40, deadline=None)
def test_attribution_sums_to_total_delta(seed_old, seed_new):
    old = synth_spans(random.Random(seed_old))
    new = synth_spans(random.Random(seed_new))
    diff = diff_artifacts(artifact(old), artifact(new))
    assert abs(diff.total_delta - diff.attributed_delta) < 1e-9


@given(seed_old=seeds, seed_new=seeds, shuffle_seed=seeds)
@settings(max_examples=40, deadline=None)
def test_attribution_is_order_stable(seed_old, seed_new, shuffle_seed):
    rng_old = random.Random(seed_old)
    rng_new = random.Random(seed_new)
    old, audit_old = synth_spans(rng_old), synth_audit(rng_old)
    new, audit_new = synth_spans(rng_new), synth_audit(rng_new)
    reference = diff_artifacts(
        artifact(old, audit_old), artifact(new, audit_new)
    ).to_dict()

    shuffler = random.Random(shuffle_seed)
    shuffled = []
    for rows in (old, audit_old, new, audit_new):
        rows = list(rows)
        shuffler.shuffle(rows)
        shuffled.append(rows)
    result = diff_artifacts(
        artifact(shuffled[0], shuffled[1]),
        artifact(shuffled[2], shuffled[3]),
    ).to_dict()
    assert result == reference
