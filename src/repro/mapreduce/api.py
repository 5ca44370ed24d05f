"""User-facing MapReduce interfaces.

Everything that runs inside a task -- Mappers, Reducers, and EFind's
pre/lookup/post stages -- is a :class:`ChainedFunction`. A task executes
a *chain* of them: the records a function emits become the next
function's input, which is exactly Hadoop's ChainMapper/ChainReducer
feature the paper builds the baseline strategy on (Section 3.1).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import DataFlowError
from repro.common.sizing import sizeof_pair
from repro.mapreduce.counters import Counters
from repro.simcluster.node import Node
from repro.simcluster.timemodel import TimeModel

Record = Tuple[Any, Any]


class OutputCollector:
    """Collects ``(key, value)`` emissions from one chain stage.

    ``sizes[i]`` is the wire size of ``records[i]`` and ``bytes`` their
    sum. An emitter that already knows ``sizeof_pair(key, value)`` --
    it computed the pair from parts it sized -- passes it as ``nbytes``
    and the pair is not walked; anyone else passes nothing. A stage that
    computed the sizes of a whole run of pairs hands them over at once
    with :meth:`extend`.
    """

    def __init__(self) -> None:
        self.records: List[Record] = []
        self.sizes: List[int] = []
        self.bytes: int = 0

    def collect(self, key: Any, value: Any, nbytes: Optional[int] = None) -> None:
        if nbytes is None:
            nbytes = sizeof_pair(key, value)
        self.records.append((key, value))
        self.sizes.append(nbytes)
        self.bytes += nbytes

    def extend(self, records: Sequence[Record], sizes: Sequence[int]) -> None:
        """``collect(key, value, nbytes)`` for every pair of ``records``
        with its size in ``sizes``, in order. There is no walking form:
        ``sizes[i]`` must be ``sizeof_pair(*records[i])``."""
        if len(records) != len(sizes):
            raise DataFlowError(
                f"cannot collect {len(records)} records with {len(sizes)} sizes"
            )
        self.records.extend(records)
        self.sizes.extend(sizes)
        self.bytes += sum(sizes)


class TaskContext:
    """Per-task environment handed to every chain stage.

    Besides counters, it exposes :meth:`charge` -- the hook through which
    index lookups, cache probes, and other out-of-band operations add
    simulated time to the enclosing task.
    """

    def __init__(
        self,
        node: Node,
        time_model: TimeModel,
        task_id: str = "task",
        attempt: int = 0,
    ) -> None:
        self.node = node
        self.time_model = time_model
        self.task_id = task_id
        self.attempt = attempt
        self.counters = Counters()
        self.charged_time: float = 0.0
        self.state: dict = {}
        # Wire size of the pair a chain stage's ``process`` is being shown
        # by the default ``ChainedFunction.run``; None outside
        # ``run_chain`` and in a stage that overrides ``run``.
        self.input_bytes: Optional[int] = None
        # The same for a reducer: while the reduce task runs
        # ``reduce(key, values, ...)``, ``group_bytes[i]`` is the wire
        # size of the shuffled pair ``values[i]`` arrived in -- under its
        # own key, which equals ``key`` but need not be ``key``. Set the
        # same way by the combiner loop; None outside both (in ``finish``).
        self.group_bytes: Optional[List[int]] = None
        # Per-task trace buffer (repro.obs.trace.TaskTraceBuffer), set by
        # the runtime only when tracing is on; chain stages must guard
        # with `if ctx.trace is not None` so the default path stays free.
        self.trace = None

    def charge(self, seconds: float) -> None:
        """Add ``seconds`` of simulated time to this task."""
        if not seconds >= 0:  # negative, or NaN
            raise ValueError(f"cannot charge negative time or NaN: {seconds!r}")
        self.charged_time += seconds


class ChainedFunction:
    """One stage of a task chain.

    Subclasses override :meth:`process`; ``start``/``finish`` bracket the
    stream (``finish`` may emit, e.g. for buffering stages). A chain
    hands a stage its task's whole stream through :meth:`run`, whose
    default drives those three; a stage with per-record overhead worth
    hoisting overrides it.
    """

    def run(
        self,
        records: Sequence[Record],
        sizes: Sequence[int],
        collector: OutputCollector,
        ctx: TaskContext,
    ) -> None:
        """Consume one task attempt's stream: ``records``, with
        ``sizes[i]`` the recorded wire size of ``records[i]`` (the two
        are equally long; the chain sized a bare record list on entry).

        The default is ``start``, ``process`` per record with that
        record's size as ``ctx.input_bytes``, ``finish``;
        ``ctx.input_bytes`` is None during ``start`` and ``finish``,
        afterwards, and when the stage raises. An override must emit
        what that sequence would, in the same order, and charge
        ``ctx`` in the same order.
        """
        self.start(ctx)
        process = self.process
        try:
            for (key, value), nbytes in zip(records, sizes):
                ctx.input_bytes = nbytes
                process(key, value, collector, ctx)
        finally:
            ctx.input_bytes = None
        self.finish(collector, ctx)

    def start(self, ctx: TaskContext) -> None:
        """Called once before the first record."""

    def process(
        self, key: Any, value: Any, collector: OutputCollector, ctx: TaskContext
    ) -> None:
        raise NotImplementedError

    def finish(self, collector: OutputCollector, ctx: TaskContext) -> None:
        """Called once after the last record."""

    @property
    def name(self) -> str:
        return type(self).__name__


class StreamStage(ChainedFunction):
    """A stage written as one loop over its task's stream (DESIGN.md
    5.13): subclasses write :meth:`consume`, where everything a task
    attempt fixes is resolved above the loop, and ``process`` is that
    same loop over a one-record stream -- one body per stage."""

    def consume(
        self,
        records: Sequence[Record],
        sizes: Sequence[int],
        collector: OutputCollector,
        ctx: TaskContext,
    ) -> None:
        """Process ``records`` (``sizes`` as for ``run``: one int per
        record); called between ``start`` and ``finish``, any number of
        times."""
        raise NotImplementedError

    def run(self, records, sizes, collector, ctx):
        self.start(ctx)
        self.consume(records, sizes, collector, ctx)
        self.finish(collector, ctx)

    def process(self, key, value, collector, ctx):
        nbytes = ctx.input_bytes
        if nbytes is None:  # called outside a chain: sized here, once
            nbytes = sizeof_pair(key, value)
        self.consume(((key, value),), (nbytes,), collector, ctx)


class Mapper(ChainedFunction):
    """A classic Mapper; override :meth:`map`."""

    def map(
        self, key: Any, value: Any, collector: OutputCollector, ctx: TaskContext
    ) -> None:
        raise NotImplementedError

    def process(
        self, key: Any, value: Any, collector: OutputCollector, ctx: TaskContext
    ) -> None:
        self.map(key, value, collector, ctx)


class Reducer:
    """A classic Reducer; override :meth:`reduce`.

    Reducers are not ChainedFunctions because their input is grouped
    ``(key, [values])``; the runtime adapts them into the reduce-side
    chain.
    """

    def start(self, ctx: TaskContext) -> None:
        """Called once before the first group."""

    def reduce(
        self,
        key: Any,
        values: List[Any],
        collector: OutputCollector,
        ctx: TaskContext,
    ) -> None:
        raise NotImplementedError

    def finish(self, collector: OutputCollector, ctx: TaskContext) -> None:
        """Called once after the last group."""

    @property
    def name(self) -> str:
        return type(self).__name__


class IdentityMapper(Mapper):
    """Pass records through unchanged, each with the size it arrived with."""

    def map(self, key, value, collector, ctx):
        collector.collect(key, value, ctx.input_bytes)


class IdentityReducer(Reducer):
    """Emit every value of every group unchanged."""

    def reduce(self, key, values, collector, ctx):
        for value in values:
            collector.collect(key, value)


class FnMapper(Mapper):
    """Adapt a plain function ``fn(key, value) -> iterable[(k, v)]``."""

    def __init__(self, fn: Callable[[Any, Any], Iterable[Record]], label: str = ""):
        self._fn = fn
        self._label = label or getattr(fn, "__name__", "fn")

    def map(self, key, value, collector, ctx):
        for out_key, out_value in self._fn(key, value):
            collector.collect(out_key, out_value)

    @property
    def name(self) -> str:
        return f"FnMapper({self._label})"


class FnReducer(Reducer):
    """Adapt a plain function ``fn(key, values) -> iterable[(k, v)]``."""

    def __init__(
        self, fn: Callable[[Any, List[Any]], Iterable[Record]], label: str = ""
    ):
        self._fn = fn
        self._label = label or getattr(fn, "__name__", "fn")

    def reduce(self, key, values, collector, ctx):
        for out_key, out_value in self._fn(key, values):
            collector.collect(out_key, out_value)

    @property
    def name(self) -> str:
        return f"FnReducer({self._label})"


class Partitioner:
    """Routes map-output keys to reduce partitions."""

    def partition(self, key: Any, num_partitions: int) -> int:
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """Hadoop's default: stable hash of the key modulo partitions.

    Uses a deterministic string hash rather than Python's salted
    ``hash()`` so runs are reproducible across processes.
    """

    def partition(self, key: Any, num_partitions: int) -> int:
        return stable_hash(key) % num_partitions


class FnPartitioner(Partitioner):
    """Adapt a plain function ``fn(key, n) -> int``."""

    def __init__(self, fn: Callable[[Any, int], int]):
        self._fn = fn

    def partition(self, key: Any, num_partitions: int) -> int:
        return self._fn(key, num_partitions)


def stable_hash(value: Any) -> int:
    """A process-stable, type-aware non-negative hash."""
    # Exact-type dispatch for what lookup and shuffle keys are made of;
    # every other value takes the ladder below, which is the definition
    # (an exact ``int`` is no ``bool``, an exact ``tuple`` no ``str``, so
    # the rung the ladder would reach is fixed by the type alone).
    kind = type(value)
    if kind is int:
        return value & 0x7FFFFFFF
    if kind is float:
        if value.is_integer():  # equal keys get one hash: 1.0 as 1, -0.0 as 0
            return int(value) & 0x7FFFFFFF
        # The str rung over ``repr(value)``, which is ASCII.
        h = 2166136261
        for byte in repr(value).encode("ascii"):
            h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
        return h
    if kind is tuple:
        h = 1
        for item in value:
            if type(item) is int:
                h = (h * 31 + (item & 0x7FFFFFFF)) & 0x7FFFFFFF
            elif type(item) is float:
                if item.is_integer():
                    f = int(item) & 0x7FFFFFFF
                else:
                    f = 2166136261
                    for byte in repr(item).encode("ascii"):
                        f = ((f ^ byte) * 16777619) & 0xFFFFFFFF
                h = (h * 31 + f) & 0x7FFFFFFF
            else:
                h = (h * 31 + stable_hash(item)) & 0x7FFFFFFF
        return h
    if isinstance(value, str):
        h = 2166136261
        for ch in value:
            h = ((h ^ ord(ch)) * 16777619) & 0xFFFFFFFF
        return h
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & 0x7FFFFFFF
    if isinstance(value, float):
        if value.is_integer():
            return int(value) & 0x7FFFFFFF
        return stable_hash(repr(value))
    if isinstance(value, tuple):
        h = 1
        for item in value:
            h = (h * 31 + stable_hash(item)) & 0x7FFFFFFF
        return h
    if value is None:
        return 0
    return stable_hash(repr(value))
