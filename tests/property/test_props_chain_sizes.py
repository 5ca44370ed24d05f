"""Property: a size an engine stage *computes* is the size a walk finds.

Sizes travel down a chain beside the pairs (``OutputCollector.sizes`` ->
``ctx.input_bytes``), and the stages that only re-wrap their input --
``PreProcessFn``, ``LookupFn``, ``KeyByIkFn``, ``RecordMeter`` -- emit
with a size computed from parts instead of walking the carrier again
(DESIGN.md 5.12). Every generated chain runs twice, once with the sizes
travelling and once with ``ctx.input_bytes`` held at None (the walking
path); after every stage each recorded size must equal
``sizeof_pair`` of its record, and both runs must leave the same
Table-1 sample. The lookup stages run behind each tier that resolves a
key without a fetch -- the node LRU, a ReuseStore (cold, then warm), the
build gate's scan, the adjacent-dedup memo -- and at B = 1, 7 and 64, so
every size a tier carries beside its values is checked against a walk.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.sizing import sizeof_pair
from repro.core.accessor import IndexAccessor
from repro.core.operator import IndexOperator
from repro.core.reuse import ReuseStore
from repro.core.statistics import OperatorStatsAccumulator
from repro.core.strategy import (
    KeyByIkFn,
    LookupFn,
    LookupSettings,
    PostProcessFn,
    PreProcessFn,
    RecordMeter,
)
from repro.indices.base import MappingIndex
from repro.indices.build import BuildSession
from repro.mapreduce.api import FnMapper, TaskContext
from repro.mapreduce.chain import run_chain_collected
from repro.simcluster.cluster import Cluster
from repro.simcluster.timemodel import TimeModel


class Sized:
    """A value charged through the documented ``wire_size()`` hook."""

    def __init__(self, nbytes):
        self.nbytes = nbytes

    def wire_size(self):
        return self.nbytes

    def __eq__(self, other):
        return isinstance(other, Sized) and other.nbytes == self.nbytes

    def __repr__(self):
        return f"Sized({self.nbytes})"


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),  # non-ASCII included
    st.builds(Sized, st.integers(0, 300)),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=8,
)
# A small domain, so keys repeat within a record and across records.
lookup_keys = st.one_of(st.integers(0, 4), st.sampled_from(["a", "bb", "é", "日本"]))
PRE_MODES = ("pass", "new-key", "equal-key", "new-value", "equal-copy")


class GeneratedOperator(IndexOperator):
    """Reads each record's lookup keys out of the record itself --
    ``value == (payload, key_lists)`` -- and hands back what ``mode``
    says: the very objects, a new key, a key that compares equal to the
    input's at another size (``True == 1``), a new value, or a value
    that is equal to the input's but not the same object."""

    def __init__(self, mode):
        super().__init__("generated")
        self.mode = mode

    def pre_process(self, key, value, index_input):
        payload, key_lists = value
        for j, keys in enumerate(key_lists):
            for ik in keys:
                index_input.put(j, ik)
        if self.mode == "new-key":
            return ("rekeyed", key), value
        if self.mode == "equal-key":
            return (bool(key) if key in (0, 1) else key), value
        if self.mode == "new-value":
            return key, payload
        if self.mode == "equal-copy":
            return key, (payload, key_lists)
        return key, value

    def post_process(self, key, value, index_output, collector):
        # One pair per index: Spost spans several emissions.
        for j in range(index_output.num_indices):
            results = index_output.get(j).get_all()
            collector.collect((key, j), (value, tuple(results)))


@st.composite
def cases(draw):
    m = draw(st.integers(1, 3))
    mappings = [
        draw(st.dictionaries(lookup_keys, st.lists(values, max_size=3), max_size=6))
        for _ in range(m)
    ]
    key_lists = st.tuples(
        *[st.lists(lookup_keys, max_size=3).map(tuple) for _ in range(m)]
    )
    records = draw(
        st.lists(
            st.tuples(
                st.one_of(st.text(max_size=4), st.integers(0, 2)),
                st.tuples(values, key_lists),
            ),
            max_size=12,
        )
    )
    return mappings, records


def build_operator(mappings, mode):
    op = GeneratedOperator(mode)
    for j, mapping in enumerate(mappings):
        op.add_index(IndexAccessor(MappingIndex(f"idx{j}", mapping, service_time=1e-3)))
    return op


def run_stagewise(stages, records, sized):
    """Run the chain one stage at a time -- which is how ``run_chain``
    runs it -- checking every collector on the way. ``sized=False``
    hands each stage the bare records of the one before, so
    ``ctx.input_bytes`` stays None: the walking path."""
    ctx = TaskContext(Cluster(num_nodes=2).nodes[0], TimeModel(), task_id="t0")
    fed = list(records)
    collectors = []
    for stage in stages:
        out = run_chain_collected([stage], fed, ctx)
        assert out.sizes == [sizeof_pair(k, v) for k, v in out.records], stage.name
        assert out.bytes == sum(out.sizes), stage.name
        assert ctx.input_bytes is None
        collectors.append(out)
        fed = out if sized else out.records
    return collectors


#: What stands in front of the index besides the LRU: nothing, a
#: ReuseStore, the build gate, the adjacent-dedup memo.
TIERS = ("none", "reuse", "build", "dedup")


def tier_settings(op, tier, batch_size):
    """One run's settings. A ``reuse`` run has one ``ReuseStore``,
    which every pass of the run goes through."""
    reuse = build = None
    if tier == "reuse":
        reuse = ReuseStore()
    elif tier == "build":
        build = BuildSession(
            {a.name: a.index for a in op.accessors}, fraction=0.5, num_buckets=4
        )
        for name in build.targets:
            build.manager.advance(name, 0.5)  # half the keys scan
        build.begin_job()
    return LookupSettings(
        batch_size=batch_size, cache_capacity=4, reuse=reuse, build=build
    )


def lookup_chain(op, acc, settings_, use_cache, dedup, metered, body_placed):
    m = op.num_indices
    stages = [PreProcessFn(op, "op0", acc)]
    stages += [
        LookupFn(
            op, "op0", j, acc, settings_, use_cache=use_cache,
            dedup_adjacent=dedup, record_sidx=(j == m - 1),
        )
        for j in range(m)
    ]
    stages += [
        PostProcessFn(op, "op0", acc),
        RecordMeter(lambda n, b: metered.append((n, b))),
    ]
    if body_placed:
        # The operator sits after a user mapper, whose collector gives
        # PreProcessFn a ctx.input_bytes to take S1 from.
        stages.insert(0, FnMapper(lambda k, v: [(k, v)]))
    return stages


class TestComputedSizesEqualWalkedSizes:
    @given(
        cases(),
        st.sampled_from(PRE_MODES),
        st.sampled_from([1, 7, 64]),
        st.booleans(),
        st.booleans(),
        st.sampled_from(TIERS),
    )
    @settings(max_examples=200, deadline=None)
    def test_pre_lookup_post_meter(self, case, mode, batch_size, use_cache, body, tier):
        mappings, records = case
        dedup = tier == "dedup"
        if dedup:
            # Key-sorted, as a re-partitioning shuffle leaves the stream.
            records = sorted(records, key=lambda record: repr(record[1][1]))
        passes = 2 if tier == "reuse" else 1  # cold, then warm
        runs = []
        for sized in (True, False):
            op = build_operator(mappings, mode)
            settings_ = tier_settings(op, tier, batch_size)
            run = []
            for _ in range(passes):
                acc = OperatorStatsAccumulator("op0", len(mappings), 2)
                metered = []
                stages = lookup_chain(
                    op, acc, settings_, use_cache, dedup, metered, body
                )
                collectors = run_stagewise(stages, records, sized)
                run.append(
                    (
                        [(c.records, c.sizes) for c in collectors],
                        acc.sample_for("t0"),  # s1/spre/sidx/spost/sik/siv, counts
                        metered,
                    )
                )
            runs.append(run)
        assert runs[0] == runs[1]
        sample = runs[0][0][1]
        if records:
            assert sample.n1 == len(records) and sample.spre_bytes > sample.s1_bytes

        # The chain run whole, as a task runs it, ends where the
        # stage-at-a-time runs did.
        op = build_operator(mappings, mode)
        settings_ = tier_settings(op, tier, batch_size)
        for collected, sample, _ in runs[0]:
            acc = OperatorStatsAccumulator("op0", len(mappings), 2)
            stages = lookup_chain(op, acc, settings_, use_cache, dedup, [], body)
            ctx = TaskContext(Cluster(num_nodes=2).nodes[0], TimeModel(), task_id="t0")
            whole = run_chain_collected(stages, records, ctx)
            assert (whole.records, whole.sizes) == collected[-1]
            assert acc.sample_for("t0") == sample

    @given(cases(), st.sampled_from(PRE_MODES), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_pre_keyby(self, case, mode, body):
        mappings, records = case
        # Re-partitioning takes at most one key per record for its index.
        records = [
            (key, (payload, (key_lists[0][:1],) + key_lists[1:]))
            for key, (payload, key_lists) in records
        ]
        runs = []
        for sized in (True, False):
            acc = OperatorStatsAccumulator("op0", len(mappings), 2)
            op = build_operator(mappings, mode)
            stages = [PreProcessFn(op, "op0", acc), KeyByIkFn(op, "op0", 0)]
            if body:
                stages.insert(0, FnMapper(lambda k, v: [(k, v)]))
            collectors = run_stagewise(stages, records, sized)
            runs.append(
                ([(c.records, c.sizes) for c in collectors], acc.sample_for("t0"))
            )
        assert runs[0] == runs[1]
