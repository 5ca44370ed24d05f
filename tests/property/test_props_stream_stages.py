"""Property: a stage that takes its stream whole does what it did record
by record.

The engine's stages run one loop per task attempt (``run``; DESIGN.md
5.13): what an attempt fixes is resolved above the loop, the integer
statistics are summed in locals and added to the ``TaskSample`` once,
and computed-size pairs reach the collector in bulk. Every generated
chain is driven twice over twin objects -- (a) as a stream, through each
stage's own ``run``, and (b) through ``ChainedFunction.run``, the
default every user stage keeps: ``start``, ``process`` per record with
its size as ``ctx.input_bytes``, ``finish`` -- and after every stage the
two must agree on the collector (records, sizes, bytes), on every
``TaskSample`` the accumulator holds (so also on *whether* one was
opened), on the counters, on ``ctx.charged_time`` to the last bit and on
the sequence of trace spans -- also when a record's user code or lookup
raises midway, which must leave exactly what the records before it left.
The generators are those of ``test_props_chain_sizes.py``.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.sizing import record_sizes, sizeof, sizeof_pair
from repro.core.accessor import IndexAccessor
from repro.core.statistics import OperatorStatsAccumulator
from repro.core.strategy import (
    KeyByIkFn,
    LookupFn,
    LookupSettings,
    OperatorStage,
    PostProcessFn,
    PreProcessFn,
    RecordMeter,
)
from repro.indices.base import MappingIndex
from repro.indices.build import BuildSession
from repro.mapreduce.api import ChainedFunction, OutputCollector, TaskContext
from repro.simcluster.cluster import Cluster
from repro.simcluster.timemodel import TimeModel
from test_props_chain_sizes import PRE_MODES, GeneratedOperator, cases

# No multiple of these is exact, so a float sum taken in another order
# (n * T_j for T_j + ... + T_j) shows in the last bit.
SERVICE_TIMES = (1e-3, 0.7e-3, 1.3e-3)
TIERS = ("base", "cache", "dedup")
TIER_NAMES = {"base": "base", "cache": "cache", "dedup": "repart"}  # in stage names


class Boom(Exception):
    """What a generated failure raises."""


def failing(fn, fail_at, before_raising=None):
    """``fn``, but for its call number ``fail_at`` (from 0), which runs
    ``before_raising`` on the same arguments and raises."""
    calls = itertools.count()

    def wrapper(*args):
        if next(calls) == fail_at:
            if before_raising is not None:
                before_raising(*args)
            raise Boom(fail_at)
        return fn(*args)

    return wrapper


def emit_half(key, value, index_output, collector):
    collector.collect(key, "half")


def raises_boom(run, *args):
    try:
        run(*args)
    except Boom:
        return True
    return False


class RecordingTrace:
    """Stands in for the task's trace buffer: every span and instant, in
    the one order they were recorded."""

    def __init__(self):
        self.events = []

    def charged_span(self, name, cat, start, end, depth, **args):
        self.events.append(("span", name, cat, start, end, depth, args))

    def charged_instant(self, name, cat, ts, depth, **args):
        self.events.append(("instant", name, cat, ts, depth, args))


def build_operator(mappings, mode):
    op = GeneratedOperator(mode)
    for j, mapping in enumerate(mappings):
        index = MappingIndex(f"idx{j}", mapping, service_time=SERVICE_TIMES[j])
        op.add_index(IndexAccessor(index))
    return op


class Twin:
    """One side of the comparison: its own operator, indices, node
    caches, accumulator, context and trace, so the two sides share
    nothing but the input."""

    def __init__(self, mappings, mode, with_stats, traced):
        self.op = build_operator(mappings, mode)
        self.acc = (
            OperatorStatsAccumulator("op0", len(mappings), 2) if with_stats else None
        )
        self.ctx = TaskContext(Cluster(num_nodes=2).nodes[0], TimeModel(), task_id="t0")
        self.ctx.trace = RecordingTrace() if traced else None
        self.metered = []

    def lookup_chain(self, batch_size, tier):
        m = self.op.num_indices
        settings_ = LookupSettings(batch_size=batch_size, cache_capacity=4)
        return (
            [PreProcessFn(self.op, "op0", self.acc)]
            + [
                LookupFn(
                    self.op, "op0", j, self.acc, settings_,
                    use_cache=(tier == "cache"), dedup_adjacent=(tier == "dedup"),
                    record_sidx=(j == m - 1),
                )
                for j in range(m)
            ]
            + [
                PostProcessFn(self.op, "op0", self.acc),
                RecordMeter(lambda n, b: self.metered.append((n, b))),
            ]
        )

    def keyby_chain(self):
        return [PreProcessFn(self.op, "op0", self.acc), KeyByIkFn(self.op, "op0", 0)]

    def observed(self, collector):
        return {
            "records": collector.records,
            "sizes": collector.sizes,
            "bytes": collector.bytes,
            "samples": None if self.acc is None else dict(self.acc._samples),
            "counters": self.ctx.counters.to_dict(),
            "charged_time": self.ctx.charged_time,
            "trace": None if self.ctx.trace is None else list(self.ctx.trace.events),
            "metered": list(self.metered),
            "input_bytes": self.ctx.input_bytes,
        }


def assert_stream_equals_by_record(
    streamed, by_record, stream_stages, record_stages, records, sizes
):
    """Drive the twin chains stage by stage, comparing after each, up to
    and including a stage that raises ``Boom`` (on both sides or on
    neither); returns the streamed side's collectors by stage name."""
    fed = [(records, sizes), (records, sizes)]
    collectors = {}
    for stage, twin_stage in zip(stream_stages, record_stages):
        out, twin_out = OutputCollector(), OutputCollector()
        raised = raises_boom(stage.run, *fed[0], out, streamed.ctx)
        twin_raised = raises_boom(
            ChainedFunction.run, twin_stage, *fed[1], twin_out, by_record.ctx
        )
        assert raised == twin_raised, stage.name
        seen, twin_seen = streamed.observed(out), by_record.observed(twin_out)
        for what in seen:
            assert seen[what] == twin_seen[what], (stage.name, what)
        assert repr(seen["charged_time"]) == repr(twin_seen["charged_time"])
        assert len(out.records) == len(out.sizes) and out.bytes == sum(out.sizes)
        assert seen["input_bytes"] is None
        collectors[stage.name] = out
        if raised:
            break
        fed = [(out.records, out.sizes), (twin_out.records, twin_out.sizes)]
    return collectors


def input_sizes(records, sized):
    """The sizes a split brings from its blocks (a collector's), or those
    the chain's entry seam walks for a bare record list."""
    if not sized:
        return record_sizes(records, None, "a bare record list")
    collector = OutputCollector()
    for key, value in records:
        collector.collect(key, value)
    return collector.sizes


class TestStreamEqualsRecordByRecord:
    @given(
        cases(),
        st.sampled_from(PRE_MODES),
        st.sampled_from([1, 7]),
        st.sampled_from(TIERS),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_pre_lookups_post_meter(
        self, case, mode, batch_size, tier, with_stats, traced, sized
    ):
        mappings, records = case
        streamed = Twin(mappings, mode, with_stats, traced)
        by_record = Twin(mappings, mode, with_stats, traced)
        out = assert_stream_equals_by_record(
            streamed, by_record,
            streamed.lookup_chain(batch_size, tier),
            by_record.lookup_chain(batch_size, tier),
            records, input_sizes(records, sized),
        )
        assert streamed.metered == [(len(out["meter"].records), out["meter"].bytes)]
        if not with_stats:
            return
        if not records:
            # A stream that records nothing opens no sample.
            assert streamed.acc._samples == {}
            return
        # Both sides share the flush, so the sample is also held to what
        # Table 1 defines, read off the collectors and the input.
        (sample,) = streamed.acc._samples.values()
        m = len(mappings)
        key_tuples = [[value[1][j] for _key, value in records] for j in range(m)]
        assert sample.n1 == len(records)
        assert sample.s1_bytes == sum(sizeof_pair(k, v) for k, v in records)
        assert sample.spre_bytes == out["pre[op0]"].bytes
        assert sample.sidx_bytes == out[f"idx[op0.{m - 1}:{TIER_NAMES[tier]}]"].bytes
        assert sample.spost_bytes == out["post[op0]"].bytes
        assert [stat.nik for stat in sample.index] == [
            sum(map(len, key_tuples[j])) for j in range(m)
        ]
        assert [stat.sik_bytes for stat in sample.index] == [
            sum(sizeof(keys) - sizeof(()) for keys in key_tuples[j] if keys)
            for j in range(m)
        ]

    @given(cases(), st.sampled_from(PRE_MODES), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_pre_keyby(self, case, mode, with_stats, sized):
        mappings, records = case
        # Re-partitioning takes at most one key per record for its index.
        records = [
            (key, (payload, (key_lists[0][:1],) + key_lists[1:]))
            for key, (payload, key_lists) in records
        ]
        streamed = Twin(mappings, mode, with_stats, False)
        by_record = Twin(mappings, mode, with_stats, False)
        assert_stream_equals_by_record(
            streamed, by_record, streamed.keyby_chain(), by_record.keyby_chain(),
            records, input_sizes(records, sized),
        )

    @given(cases(), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_index_builder_then_gated_lookups(self, case, with_stats, sized):
        """With a build session attached the chain starts with the
        pass-through ``IndexBuilderFn`` and every lookup passes the
        build gate (covered keys fetch, the others scan)."""
        mappings, records = case
        sides = []
        for _ in range(2):
            twin = Twin(mappings, "pass", with_stats, True)
            targets = {a.name: a.index for a in twin.op.accessors}
            session = BuildSession(targets, fraction=0.5, num_buckets=4)
            for name in targets:
                session.manager.advance(name, 0.5)
            session.begin_job()
            settings_ = LookupSettings(build=session)
            stages = [session.builder_fn(), PreProcessFn(twin.op, "op0", twin.acc)] + [
                LookupFn(twin.op, "op0", j, twin.acc, settings_, record_sidx=True)
                for j in range(twin.op.num_indices)
            ]
            sides.append((twin, stages, session))
        (streamed, stream_stages, s0), (by_record, record_stages, s1) = sides
        assert_stream_equals_by_record(
            streamed, by_record, stream_stages, record_stages,
            records, input_sizes(records, sized),
        )
        assert s0._job_records == s1._job_records
        assert s0._job_seconds == s1._job_seconds

    @given(
        cases(),
        st.sampled_from(["pre", "lookup", "post"]),
        st.integers(0, 6),
        st.sampled_from([1, 7]),
        st.sampled_from(TIERS),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_a_record_that_raises(self, case, where, fail_at, batch_size, tier, sized):
        """A ``pre_process``, an index or a ``post_process`` (there after
        emitting half of what it meant to) fails on its call number
        ``fail_at``: collector, samples, counters, charges and spans are
        those of the records before it, and a stage that got through no
        record opened no sample."""
        mappings, records = case
        sides = []
        for _ in range(2):
            twin = Twin(mappings, "pass", True, True)
            stages = twin.lookup_chain(batch_size, tier)
            # Each end its own accumulator, so a sample it opens shows.
            pre, post = stages[0], stages[-2]
            pre.stats = OperatorStatsAccumulator("op0", len(mappings), 2)
            post.stats = OperatorStatsAccumulator("op0", len(mappings), 2)
            if where == "pre":
                twin.op.pre_process = failing(twin.op.pre_process, fail_at)
            elif where == "post":
                twin.op.post_process = failing(
                    twin.op.post_process, fail_at, emit_half
                )
            else:
                index = twin.op.accessors[0].index
                index._lookup = failing(index._lookup, fail_at)
            sides.append((twin, stages, pre.stats, post.stats))
        (streamed, stream_stages, pre_acc, post_acc), by_record_side = sides
        by_record, record_stages, twin_pre_acc, twin_post_acc = by_record_side
        out = assert_stream_equals_by_record(
            streamed, by_record, stream_stages, record_stages,
            records, input_sizes(records, sized),
        )
        assert pre_acc._samples == twin_pre_acc._samples
        assert post_acc._samples == twin_post_acc._samples
        for j in pre_acc.fm:
            assert pre_acc.fm[j].bitmaps == twin_pre_acc.fm[j].bitmaps
        if fail_at == 0:
            if where == "pre":
                assert pre_acc._samples == {}
            if where == "post":
                assert post_acc._samples == {}
        elif where == "post" and fail_at < len(records):
            # Spost holds the whole records only, the collector also the
            # half-done one's pair.
            (sample,) = post_acc._samples.values()
            emitted = out["post[op0]"]
            assert emitted.records[-1][1] == "half"
            assert sample.spost_bytes == emitted.bytes - emitted.sizes[-1]


class TestOneStageEqualsItsPhasesInARow:
    """An ``OperatorStage`` of several phases -- with or without its
    ``pre_process``, one lookup per index, with or without its
    ``post_process`` -- does what its phases do run as one-phase stages
    in a row: same collector, samples, sketches, counters, charges to
    the last bit and spans, also when a ``pre_process``, an index or a
    ``post_process`` raises midway."""

    @given(
        cases(),
        st.sampled_from(PRE_MODES),
        st.sampled_from([1, 7]),
        st.sampled_from(TIERS),
        st.booleans(),
        st.booleans(),
        st.sampled_from([None, "pre", "lookup", "post"]),
        st.integers(0, 6),
        st.integers(0, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_stage_equals_phases_in_a_row(
        self, case, mode, batch_size, tier, pre, post, where, fail_at, failing_index
    ):
        mappings, records = case
        m = len(mappings)
        if not pre:
            # What a shuffle hands the stage: the carriers pre_process made.
            carried = OutputCollector()
            PreProcessFn(build_operator(mappings, mode), "op0").run(
                records, input_sizes(records, True), carried, TaskContext(
                    Cluster(num_nodes=2).nodes[0], TimeModel(), task_id="t0"
                )
            )
            records, sizes = carried.records, carried.sizes
        else:
            sizes = input_sizes(records, True)
        settings_ = LookupSettings(batch_size=batch_size, cache_capacity=4)
        tiers = dict(use_cache=(tier == "cache"), dedup_adjacent=(tier == "dedup"))
        sides = []
        for fused in (True, False):
            twin = Twin(mappings, mode, True, True)
            if where == "pre":
                twin.op.pre_process = failing(twin.op.pre_process, fail_at)
            elif where == "post":
                twin.op.post_process = failing(twin.op.post_process, fail_at, emit_half)
            elif where == "lookup":
                index = twin.op.accessors[failing_index % m].index
                index._lookup = failing(index._lookup, fail_at)
            if fused:
                stage = OperatorStage(twin.op, "op0", twin.acc, pre=pre, post=post)
                for j in range(m):
                    stage.add_lookup(j, settings_, record_sidx=(j == m - 1), **tiers)
                out = OutputCollector()
                raised = raises_boom(stage.run, records, sizes, out, twin.ctx)
                names = stage.phases
            else:
                stages = [PreProcessFn(twin.op, "op0", twin.acc)] if pre else []
                stages += [
                    LookupFn(
                        twin.op, "op0", j, twin.acc, settings_,
                        record_sidx=(j == m - 1), **tiers,
                    )
                    for j in range(m)
                ]
                stages += [PostProcessFn(twin.op, "op0", twin.acc)] if post else []
                fed, raised = (records, sizes), False
                for one in stages:
                    # The last stage's collector is the chain's output;
                    # after a raise, what the stages left stands.
                    out = OutputCollector()
                    if not raised:
                        raised = raises_boom(one.run, *fed, out, twin.ctx)
                        fed = (out.records, out.sizes)
                names = [one.name for one in stages]
            sides.append((raised, names, twin.observed(out), twin.acc))
        (raised, names, seen, acc), (twin_raised, twin_names, twin_seen, twin_acc) = sides
        assert raised == twin_raised
        assert " -> ".join(names) == " -> ".join(twin_names)
        for what in seen:
            assert seen[what] == twin_seen[what], what
        assert repr(seen["charged_time"]) == repr(twin_seen["charged_time"])
        assert [acc.fm[j].bitmaps for j in acc.fm] == [
            twin_acc.fm[j].bitmaps for j in twin_acc.fm
        ]
