"""Trace-diff self-consistency over the committed bench experiments.

The correctness anchor of ``python -m repro.obs.analysis diff`` (in
the spirit of the harness's observer-effect double-run assertion):

* ``diff(run, run)`` is exactly ``0.0`` at every hierarchy level for
  every traced artifact of fig11a-small, spec-q3, build-q3, and
  reuse-q3 -- the experiments CI traces;
* on every non-identical pair, the hierarchical attribution sums to
  the total sim-time delta within 1e-9, with unmatched spans as
  explicit added/removed contributors;
* ``diff(spec-q3 slow-off, slow-on)`` attributes the speculation
  improvement to the known wave-tail tasks on the slow host
  (``node05``, the injected x4 straggler).
"""

import itertools

import pytest

from repro.bench.figures import EXPERIMENTS
from repro.obs.analysis.diff import diff_artifacts, diff_paths
from repro.obs.analysis.loader import load_artifacts
from repro.obs.config import set_trace_dir

TRACED = ("build-q3", "fig11a-small", "reuse-q3", "spec-q3")

_DIRS = {}


@pytest.fixture
def traced_dir(request, tmp_path_factory):
    """Run one experiment traced, once per session, and cache its
    artifact directory (spec-q3 serves two tests)."""
    name = request.param

    if name not in _DIRS:
        directory = tmp_path_factory.mktemp(f"diff-{name}")
        set_trace_dir(str(directory))
        try:
            EXPERIMENTS[name].run()
        finally:
            set_trace_dir(None)
        _DIRS[name] = str(directory)
    return name, _DIRS[name]


@pytest.mark.parametrize(
    "traced_dir", TRACED, indirect=True
)
def test_self_diff_is_exact_zero_at_every_level(traced_dir):
    name, directory = traced_dir
    result = diff_paths(directory, directory)
    assert result.identical, f"{name}: self-diff reported differences"
    assert result.total_delta == 0.0
    for artifact in result.artifacts:
        levels = artifact.max_abs_by_level()
        assert all(v == 0.0 for v in levels.values()), (
            f"{name}/{artifact.base_old}: nonzero self-diff at "
            f"{ {k: v for k, v in levels.items() if v} }"
        )
        assert artifact.total_delta == 0.0
        assert all(c.delta == 0.0 for c in artifact.contributors)
        assert not artifact.counters
        assert not artifact.audit.differs
        assert not artifact.structure_changes()


@pytest.mark.parametrize("traced_dir", ["spec-q3"], indirect=True)
def test_cross_variant_attribution_is_exact(traced_dir):
    _, directory = traced_dir
    artifacts = load_artifacts(directory)
    for old, new in itertools.combinations(artifacts, 2):
        diff = diff_artifacts(old, new)
        assert abs(diff.total_delta - diff.attributed_delta) < 1e-9, (
            f"{old.base} vs {new.base}: attributed "
            f"{diff.attributed_delta!r} != total {diff.total_delta!r}"
        )


@pytest.mark.parametrize("traced_dir", ["spec-q3"], indirect=True)
def test_speculation_improvement_lands_on_slow_host_tail(traced_dir):
    _, directory = traced_dir
    by_base = {a.base: a for a in load_artifacts(directory)}
    diff = diff_artifacts(by_base["slow-off-cache"], by_base["slow-on-cache"])

    # Headline direction: speculation-on is the improvement.
    assert diff.total_delta < 0.0
    assert abs(diff.total_delta - diff.attributed_delta) < 1e-9

    # The known root cause: wave-tail tasks that ran on the x4-slow
    # node05 in slow-off got backups elsewhere in slow-on. The
    # improvement mass must come off node05-bound contributors.
    negative = [
        c for c in diff.contributors
        if c.level in ("task", "op") and c.delta < 0.0
    ]
    assert negative, "no task-level improvement contributors at all"
    off_node05 = sum(
        -c.delta for c in negative if c.old_track.startswith("node05/")
    )
    total_negative = sum(-c.delta for c in negative)
    assert off_node05 / total_negative >= 0.5, (
        f"only {off_node05 / total_negative:.1%} of the task-level "
        f"improvement came off node05"
    )
    # ... and speculation's backup winners are visible in the new run.
    spec_marks = [
        c for c in diff.contributors if "speculative" in c.note
    ]
    spec_counters = [
        c for c in diff.counters
        if c.group == "spec" and c.name == "backups_launched"
    ]
    assert spec_marks or spec_counters, (
        "the diff shows no trace of speculation (no backup spans, "
        "no spec.* counter movement)"
    )
