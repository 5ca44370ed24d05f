"""Unit tests for chained-function execution."""

import pytest

from repro.common.errors import DataFlowError
from repro.common.sizing import sizeof_pair
from repro.mapreduce.api import (
    ChainedFunction,
    OutputCollector,
    StreamStage,
    TaskContext,
)
from repro.mapreduce.chain import chain_name, run_chain, run_chain_collected
from repro.simcluster.cluster import Cluster
from repro.simcluster.timemodel import TimeModel


@pytest.fixture
def ctx():
    cluster = Cluster(num_nodes=1)
    return TaskContext(cluster.nodes[0], TimeModel())


class Doubler(ChainedFunction):
    def process(self, key, value, collector, ctx):
        collector.collect(key, value * 2)


class Exploder(ChainedFunction):
    """Emits each value twice: tests fan-out between stages."""

    def process(self, key, value, collector, ctx):
        collector.collect(key, value)
        collector.collect(key, value)


class Dropper(ChainedFunction):
    def process(self, key, value, collector, ctx):
        if value % 2 == 0:
            collector.collect(key, value)


class Buffered(ChainedFunction):
    """Emits only at finish: tests the start/finish lifecycle."""

    def start(self, ctx):
        self.buffer = []

    def process(self, key, value, collector, ctx):
        self.buffer.append((key, value))

    def finish(self, collector, ctx):
        collector.collect("count", len(self.buffer))


class TestRunChain:
    def test_empty_chain_passthrough(self, ctx):
        records = [("a", 1), ("b", 2)]
        assert run_chain([], records, ctx) == records

    def test_single_stage(self, ctx):
        out = run_chain([Doubler()], [("a", 1)], ctx)
        assert out == [("a", 2)]

    def test_stage_output_feeds_next(self, ctx):
        out = run_chain([Doubler(), Doubler()], [("a", 1)], ctx)
        assert out == [("a", 4)]

    def test_fanout_then_transform(self, ctx):
        out = run_chain([Exploder(), Doubler()], [("a", 3)], ctx)
        assert out == [("a", 6), ("a", 6)]

    def test_filter_stage(self, ctx):
        out = run_chain([Dropper()], [("a", 1), ("b", 2), ("c", 4)], ctx)
        assert out == [("b", 2), ("c", 4)]

    def test_finish_can_emit(self, ctx):
        out = run_chain([Buffered()], [("a", 1), ("b", 2)], ctx)
        assert out == [("count", 2)]

    def test_order_preserved(self, ctx):
        records = [(i, i) for i in range(50)]
        assert run_chain([Doubler()], records, ctx) == [(i, 2 * i) for i in range(50)]


class InputSizeProbe(ChainedFunction):
    """Passes records through, noting ``ctx.input_bytes`` per record and
    during ``start``/``finish``."""

    def __init__(self):
        self.seen, self.around = [], []

    def start(self, ctx):
        self.around.append(ctx.input_bytes)

    def process(self, key, value, collector, ctx):
        self.seen.append(ctx.input_bytes)
        collector.collect(key, value, ctx.input_bytes)

    def finish(self, collector, ctx):
        self.around.append(ctx.input_bytes)


class Failing(ChainedFunction):
    def process(self, key, value, collector, ctx):
        raise RuntimeError("boom")


class AppendsToRecords(ChainedFunction):
    """Bypasses ``collect()``: leaves a collector with no sizes."""

    def process(self, key, value, collector, ctx):
        collector.records.append((key, value))


class TestSizesTravel:
    """The size a collector recorded for a pair reaches the next stage
    as ``ctx.input_bytes``."""

    records = [("a", 1), ("bcd", (2, "xy")), ("e", None)]

    def test_plain_records_are_sized_on_entry(self, ctx):
        """A bare record list is walked once, before the first stage;
        each later stage sees the sizes the stage before it recorded."""
        first, second = InputSizeProbe(), InputSizeProbe()
        out = run_chain_collected([first, Doubler(), second], self.records[:2], ctx)
        assert first.seen == [sizeof_pair(*r) for r in self.records[:2]]
        assert second.seen == [sizeof_pair(*r) for r in out.records] == out.sizes
        assert first.around == second.around == [None, None]
        assert ctx.input_bytes is None

    def test_a_collector_as_input_brings_its_sizes(self, ctx):
        fed = OutputCollector()
        for key, value in self.records:
            fed.collect(key, value)
        probe = InputSizeProbe()
        out = run_chain_collected([probe], fed, ctx)
        assert probe.seen == fed.sizes == [sizeof_pair(*r) for r in self.records]
        assert (out.records, out.sizes, out.bytes) == (
            fed.records, fed.sizes, fed.bytes
        )
        assert run_chain_collected([], fed, ctx) is fed

    def test_empty_chain_sizes_what_it_passes_through(self, ctx):
        out = run_chain_collected([], iter(self.records), ctx)
        assert out.records == self.records
        assert out.sizes == [sizeof_pair(*r) for r in self.records]
        assert out.bytes == sum(out.sizes)

    def test_input_size_is_cleared_when_a_stage_raises(self, ctx):
        with pytest.raises(RuntimeError):
            run_chain([InputSizeProbe(), Failing()], self.records, ctx)
        assert ctx.input_bytes is None

    def test_mismatched_collector_is_refused_not_truncated(self, ctx):
        fed = OutputCollector()
        for key, value in self.records:
            fed.collect(key, value)
        fed.records.append(("f", 6))
        probe = InputSizeProbe()
        with pytest.raises(DataFlowError, match="4 records but 3 sizes"):
            run_chain_collected([probe], fed, ctx)
        assert probe.seen == [] and ctx.input_bytes is None
        # The same between two stages of one chain.
        with pytest.raises(DataFlowError, match="InputSizeProbe.*3 records but 0"):
            run_chain([AppendsToRecords(), InputSizeProbe()], self.records, ctx)


class RunProbe(ChainedFunction):
    """Overrides ``run``: takes the stream whole, passes it on in bulk."""

    def run(self, records, sizes, collector, ctx):
        self.got = (records, sizes, ctx.input_bytes)
        collector.extend(records, sizes)


class RaisingRun(ChainedFunction):
    def run(self, records, sizes, collector, ctx):
        ctx.input_bytes = 7  # a stage's own loop, interrupted
        raise RuntimeError("boom")


class ExtendsShort(ChainedFunction):
    def run(self, records, sizes, collector, ctx):
        collector.extend(records, sizes[1:])


class Streamed(StreamStage):
    """One loop, reached through ``run`` and through ``process``."""

    def start(self, ctx):
        self.calls = []

    def consume(self, records, sizes, collector, ctx):
        self.calls.append((list(records), list(sizes)))
        collector.extend(records, sizes)

    def finish(self, collector, ctx):
        self.calls.append("finish")


class TestStageTakesItsStream:
    """``run_chain`` hands each stage its whole stream through ``run``;
    the default ``run`` is the per-record loop the chain used to hold."""

    records = TestSizesTravel.records

    def test_default_run_shows_process_each_size_and_none_around(self, ctx):
        probe, out = InputSizeProbe(), OutputCollector()
        probe.run(self.records, [11, 22, 33], out, ctx)
        assert probe.seen == [11, 22, 33] == out.sizes
        assert probe.around == [None, None] and ctx.input_bytes is None
        assert out.records == self.records

    def test_default_run_clears_the_size_when_process_raises(self, ctx):
        with pytest.raises(RuntimeError):
            Failing().run(self.records, [11, 22, 33], OutputCollector(), ctx)
        assert ctx.input_bytes is None

    def test_a_stage_overriding_run_receives_the_collectors_own_sizes(self, ctx):
        fed = OutputCollector()
        for key, value in self.records[:2]:
            fed.collect(key, value)
        first, second = RunProbe(), RunProbe()
        out = run_chain_collected([first, Doubler(), second], fed, ctx)
        assert first.got[0] is fed.records and first.got[1] is fed.sizes
        records, sizes, input_bytes = second.got
        assert records == [(k, v * 2) for k, v in self.records[:2]]
        assert sizes == [sizeof_pair(*r) for r in records] and input_bytes is None
        assert (out.records, out.sizes, out.bytes) == (records, sizes, sum(sizes))
        # A bare record list arrives sized: the chain walked it on entry.
        bare = RunProbe()
        run_chain_collected([bare], self.records, ctx)
        sized = [sizeof_pair(*r) for r in self.records]
        assert bare.got == (self.records, sized, None)

    def test_a_stream_stage_has_one_body_for_run_and_process(self, ctx):
        """``run`` is ``start`` / ``consume`` / ``finish``; ``process``
        is ``consume`` over a one-record stream, sized by
        ``ctx.input_bytes``."""
        stage, out = Streamed(), OutputCollector()
        stage.run(self.records, [11, 22, 33], out, ctx)
        assert stage.calls == [(self.records, [11, 22, 33]), "finish"]
        assert (out.records, out.sizes, out.bytes) == (self.records, [11, 22, 33], 66)

        by_record, twin_out = Streamed(), OutputCollector()
        ChainedFunction.run(by_record, self.records, [11, 22, 33], twin_out, ctx)
        assert by_record.calls == [
            ([self.records[0]], [11]),
            ([self.records[1]], [22]),
            ([self.records[2]], [33]),
            "finish",
        ]
        assert (twin_out.records, twin_out.sizes) == (out.records, out.sizes)
        # Outside a chain ``process`` sizes the record itself, once.
        by_record.process("k", "v", twin_out, ctx)
        assert by_record.calls[-1] == ([("k", "v")], [sizeof_pair("k", "v")])
        assert twin_out.sizes[-1] == sizeof_pair("k", "v")

    def test_a_raising_run_leaves_input_bytes_none(self, ctx):
        with pytest.raises(RuntimeError):
            run_chain([Doubler(), RaisingRun()], self.records[:1], ctx)
        assert ctx.input_bytes is None

    def test_bulk_emission_with_mismatched_lengths_is_refused(self, ctx):
        fed = OutputCollector()
        for key, value in self.records:
            fed.collect(key, value)
        with pytest.raises(DataFlowError, match="3 records with 2 sizes"):
            run_chain_collected([ExtendsShort()], fed, ctx)


class TestChainName:
    def test_empty(self):
        assert chain_name([]) == "<empty>"

    def test_joins_names(self):
        assert chain_name([Doubler(), Dropper()]) == "Doubler -> Dropper"
