"""Chain execution: push a record stream through a list of
:class:`ChainedFunction` stages.

The output of stage *i* is the input of stage *i+1* -- Hadoop's
ChainMapper semantics, which the EFind baseline strategy uses to splice
``preProcess -> lookup -> postProcess`` around the user's Map/Reduce
(Figure 6 of the paper).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence, Tuple

from repro.common.sizing import sizeof_records
from repro.mapreduce.api import ChainedFunction, OutputCollector, TaskContext

Record = Tuple[Any, Any]


def run_chain(
    stages: Sequence[ChainedFunction],
    records: Iterable[Record],
    ctx: TaskContext,
) -> List[Record]:
    """Run ``records`` through every stage in order and return the final
    emissions.

    Stages are executed stream-at-a-time (stage *i* fully consumes the
    stream before stage *i+1* starts), which matches the per-task
    buffering of chained Hadoop functions and lets ``finish`` implement
    buffered operators.
    """
    return run_chain_collected(stages, records, ctx).records


def run_chain_collected(
    stages: Sequence[ChainedFunction],
    records: Iterable[Record],
    ctx: TaskContext,
) -> OutputCollector:
    """:func:`run_chain`, handing back the last stage's collector
    rather than its records alone: its ``bytes`` is the size of the
    chain's output, summed as the pairs were emitted, so a task does not
    walk its output a second time. An empty chain emits its input.
    """
    collector = OutputCollector()
    collector.records = list(records)
    if not stages:
        collector.bytes = sizeof_records(collector.records)
    for stage in stages:
        current, collector = collector.records, OutputCollector()
        stage.start(ctx)
        for key, value in current:
            stage.process(key, value, collector, ctx)
        stage.finish(collector, ctx)
    return collector


def chain_name(stages: Sequence[ChainedFunction]) -> str:
    """Human-readable label for logging/debugging."""
    return " -> ".join(stage.name for stage in stages) or "<empty>"
