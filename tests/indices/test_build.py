"""Unit tests for the in-job index build subsystem (``indices/build/``):
the build catalog and the incremental builder session."""

import math

import pytest

from repro.indices.build import (
    BuildCostModel,
    BuildSession,
    BuildState,
    IndexManager,
)
from repro.indices.kvstore import DistributedKVStore
from repro.mapreduce.api import OutputCollector
from repro.mapreduce.counters import Counters


class _Ctx:
    """Minimal TaskContext stand-in for chain-stage unit tests."""

    def __init__(self):
        self.charged_time = 0.0
        self.counters = Counters()
        self.trace = None
        self.input_bytes = None  # nobody has sized the records

    def charge(self, seconds):
        assert seconds >= 0
        self.charged_time += seconds


class _Collector:
    def __init__(self):
        self.items = []

    def collect(self, key, value):
        self.items.append((key, value))

    def extend(self, records, sizes):
        assert len(records) == len(sizes)
        self.items.extend(records)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class TestBuildCostModel:
    def test_per_record_time_sums_phases(self):
        m = BuildCostModel()
        assert m.build_cpu_per_record == pytest.approx(
            m.extract_cpu_per_record + m.sort_cpu_per_record + m.merge_cpu_per_record
        )

    def test_incremental_build_time_linear(self):
        m = BuildCostModel()
        assert m.incremental_build_time(0) == 0.0
        assert m.incremental_build_time(200) == pytest.approx(
            2 * m.incremental_build_time(100)
        )

    def test_entry_footprint(self):
        m = BuildCostModel(entry_bytes=32.0)
        assert m.entry_footprint(10) == pytest.approx(320.0)


# ----------------------------------------------------------------------
# IndexManager (the build catalog)
# ----------------------------------------------------------------------
class TestIndexManager:
    def test_track_idempotent(self):
        mgr = IndexManager()
        a = mgr.track("orders")
        b = mgr.track("orders")
        assert a is b
        assert mgr.tracked() == ["orders"]

    def test_track_rejects_bad_bucket_count(self):
        with pytest.raises(ValueError):
            IndexManager().track("x", num_buckets=0)

    def test_untracked_is_fully_covered(self):
        mgr = IndexManager()
        assert mgr.coverage("ghost") == 1.0
        assert mgr.covered("ghost", "any-key")

    def test_advance_is_monotone_and_deterministic(self):
        mgr = IndexManager()
        mgr.track("i", num_buckets=48)
        seen = set()
        for _ in range(5):
            before = set(mgr.get("i").built)
            mgr.advance("i", 1.0 / 3.0)
            after = set(mgr.get("i").built)
            assert before <= after
            seen = after
        # Replaying the same schedule on a fresh manager reproduces it.
        other = IndexManager()
        other.track("i", num_buckets=48)
        for _ in range(5):
            other.advance("i", 1.0 / 3.0)
        assert other.get("i").built == seen

    @pytest.mark.parametrize("fraction", [1.0, 0.5, 1.0 / 3.0, 0.25, 0.3])
    def test_converges_in_ceil_inverse_fraction_commits(self, fraction):
        mgr = IndexManager()
        mgr.track("i", num_buckets=48)
        steps = 0
        while mgr.coverage("i") < 1.0:
            assert mgr.advance("i", fraction) > 0
            steps += 1
        assert steps == math.ceil(1.0 / fraction)
        assert mgr.advance("i", fraction) == 0  # saturated

    def test_advance_zero_fraction_is_noop(self):
        mgr = IndexManager()
        mgr.track("i")
        assert mgr.advance("i", 0.0) == 0
        assert mgr.coverage("i") == 0.0

    def test_coverage_tracks_bucket_share(self):
        mgr = IndexManager()
        mgr.track("i", num_buckets=48)
        mgr.advance("i", 1.0 / 3.0)
        assert mgr.coverage("i") == pytest.approx(16 / 48)

    def test_covered_follows_buckets(self):
        mgr = IndexManager()
        state = mgr.track("i", num_buckets=4)
        state.built = {state.bucket_of("k1")}
        assert mgr.covered("i", "k1")
        uncovered = next(
            k for k in (f"probe{n}" for n in range(100))
            if state.bucket_of(k) not in state.built
        )
        assert not mgr.covered("i", uncovered)

    def test_complete_marks_everything(self):
        mgr = IndexManager()
        mgr.track("i")
        mgr.complete("i")
        assert mgr.coverage("i") == 1.0

    def test_reset_drops_progress_and_bumps_epoch(self):
        mgr = IndexManager()
        mgr.track("i")
        mgr.complete("i")
        mgr.record_entries("i", 100, 24.0)
        epoch = mgr.reset("i")
        state = mgr.get("i")
        assert epoch == 1
        assert state.built == set()
        assert state.entries == 0
        assert state.bytes_built == 0.0

    def test_snapshot_restore_roundtrip(self):
        mgr = IndexManager()
        mgr.track("i", num_buckets=24)
        mgr.advance("i", 0.5)
        mgr.record_entries("i", 7, 24.0)
        snap = mgr.snapshot()
        mgr.complete("i")
        mgr.restore(snap)
        assert mgr.coverage("i") == pytest.approx(0.5)
        assert mgr.get("i").entries == 7

    def test_untracked_operations_raise(self):
        mgr = IndexManager()
        with pytest.raises(KeyError):
            mgr.advance("ghost", 0.5)
        with pytest.raises(KeyError):
            mgr.reset("ghost")

    def test_state_dict_roundtrip(self):
        state = BuildState(num_buckets=12, built={0, 3}, epoch=2, entries=9)
        assert BuildState.from_dict(state.to_dict()) == state


# ----------------------------------------------------------------------
# BuildSession (incremental builder lifecycle)
# ----------------------------------------------------------------------
def _kv(cluster, name="profiles"):
    kv = DistributedKVStore(name, cluster, service_time=1e-3)
    for u in range(40):
        kv.put_unique(f"user{u:02d}", f"city{u % 5}")
    return kv


class TestBuildSession:
    def test_rejects_bad_fraction(self, cluster):
        kv = _kv(cluster)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                BuildSession({kv.name: kv}, fraction=bad)

    def test_tracks_targets_at_zero_coverage(self, cluster):
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv})
        assert session.coverage(kv.name) == 0.0
        assert not session.covered(kv.name, "user00")

    def test_job_fraction_frozen_at_begin(self, cluster):
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv}, fraction=1.0 / 3.0)
        session.begin_job()
        assert session._job_fraction[kv.name] == pytest.approx(1.0 / 3.0)
        # Progress mid-job must not change the frozen fraction.
        session.manager.complete(kv.name)
        assert session._job_fraction[kv.name] == pytest.approx(1.0 / 3.0)

    def test_begin_job_is_idempotent(self, cluster):
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv})
        session.begin_job()
        session.note_built(kv.name, 5, 0.01)
        session.begin_job()  # adaptive re-entry: must not zero state
        assert session.job_records(kv.name) == 5

    def test_commit_without_records_leaves_coverage(self, cluster):
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv})
        session.begin_job()
        session.commit_job()
        assert session.coverage(kv.name) == 0.0

    def test_commit_advances_only_built_indices(self, cluster):
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv}, fraction=1.0 / 3.0)
        session.begin_job()
        session.note_built(kv.name, 100, 0.02)
        session.commit_job()
        assert session.coverage(kv.name) == pytest.approx(1.0 / 3.0)
        assert session.manager.get(kv.name).entries == 100
        assert session.job_debt(kv.name) == pytest.approx(0.02)

    def test_full_coverage_freezes_zero_fraction(self, cluster):
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv}, fraction=0.5)
        session.manager.complete(kv.name)
        session.begin_job()
        assert session._job_fraction[kv.name] == 0.0

    def test_rebuild_bumps_service_epoch(self, cluster):
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv})
        session.manager.complete(kv.name)
        epoch = kv.epoch
        session.rebuild(kv.name)
        assert kv.epoch > epoch  # versions ReuseStore entries out
        assert session.coverage(kv.name) == 0.0

    def test_snapshot_restore(self, cluster):
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv}, fraction=0.5)
        session.begin_job()
        session.note_built(kv.name, 10, 0.01)
        session.commit_job()
        snap = session.snapshot()
        session.manager.complete(kv.name)
        session.restore(snap)
        assert session.coverage(kv.name) == pytest.approx(0.5)
        assert session.job_debt(kv.name) == 0.0


class TestIndexBuilderFn:
    def test_passes_records_through_unmodified(self, cluster):
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv})
        session.begin_job()
        fn = session.builder_fn()
        ctx, out = _Ctx(), _Collector()
        fn.start(ctx)
        records = [(i, f"v{i}") for i in range(9)]
        for k, v in records:
            fn.process(k, v, out, ctx)
        assert out.items == records

    def test_process_hands_on_the_size_it_was_shown(self, cluster):
        """``process`` is the stream loop over one record: the size the
        chain shows it as ``ctx.input_bytes`` goes on beside the pair,
        which is not walked again."""
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv})
        session.begin_job()
        fn = session.builder_fn()
        ctx, out = _Ctx(), OutputCollector()
        fn.start(ctx)
        ctx.input_bytes = 77  # no walk of ("k", "v") finds that
        fn.process("k", "v", out, ctx)
        ctx.input_bytes = None
        fn.process("k", "v", out, ctx)
        assert out.records == [("k", "v"), ("k", "v")]
        assert out.sizes == [77, 2] and out.bytes == 79
        assert fn._records == 2

    def test_finish_charges_frozen_fraction(self, cluster):
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv}, fraction=1.0 / 3.0)
        session.begin_job()
        fn = session.builder_fn()
        ctx, out = _Ctx(), _Collector()
        fn.start(ctx)
        for i in range(90):
            fn.process(i, i, out, ctx)
        fn.finish(out, ctx)
        built = int(90 / 3)
        assert ctx.charged_time == pytest.approx(
            session.model.incremental_build_time(built)
        )
        totals = ctx.counters.group("build")
        assert totals["records_indexed"] == built
        assert session.job_records(kv.name) == built

    def test_zero_records_charge_nothing(self, cluster):
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv})
        session.begin_job()
        fn = session.builder_fn()
        ctx, out = _Ctx(), _Collector()
        fn.start(ctx)
        fn.finish(out, ctx)
        assert ctx.charged_time == 0.0
        assert ctx.counters.group("build") == {}

    def test_full_coverage_behaves_like_no_builder(self, cluster):
        kv = _kv(cluster)
        session = BuildSession({kv.name: kv})
        session.manager.complete(kv.name)
        session.begin_job()
        fn = session.builder_fn()
        ctx, out = _Ctx(), _Collector()
        fn.start(ctx)
        for i in range(50):
            fn.process(i, i, out, ctx)
        fn.finish(out, ctx)
        assert ctx.charged_time == 0.0
        assert ctx.counters.group("build") == {}
