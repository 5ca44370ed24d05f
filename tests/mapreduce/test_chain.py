"""Unit tests for chained-function execution."""

import pytest

from repro.common.errors import DataFlowError
from repro.common.sizing import sizeof_pair
from repro.mapreduce.api import ChainedFunction, OutputCollector, TaskContext
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

    def test_plain_records_have_no_size_then_each_stage_sees_the_last(self, ctx):
        first, second = InputSizeProbe(), InputSizeProbe()
        out = run_chain_collected([first, Doubler(), second], self.records[:2], ctx)
        assert first.seen == [None, None]
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


class TestChainName:
    def test_empty(self):
        assert chain_name([]) == "<empty>"

    def test_joins_names(self):
        assert chain_name([Doubler(), Dropper()]) == "Doubler -> Dropper"
