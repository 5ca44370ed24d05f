"""Chain execution: push a record stream through a list of
:class:`ChainedFunction` stages.

The output of stage *i* is the input of stage *i+1* -- Hadoop's
ChainMapper semantics, which the EFind baseline strategy uses to splice
``preProcess -> lookup -> postProcess`` around the user's Map/Reduce
(Figure 6 of the paper).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

from repro.common.errors import DataFlowError
from repro.common.sizing import record_sizes
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
    records: Union[Iterable[Record], OutputCollector],
    ctx: TaskContext,
    sizes: Optional[Sequence[int]] = None,
) -> OutputCollector:
    """:func:`run_chain`, handing back the last stage's collector
    rather than its records alone: its ``bytes`` is the size of the
    chain's output, summed as the pairs were emitted, so a task does not
    walk its output a second time. An empty chain emits its input.

    Sizes travel down the chain beside the pairs: each stage is handed
    the records of the collector before it together with that
    collector's ``sizes`` (:meth:`ChainedFunction.run`, whose default
    shows a ``process`` each record's size as ``ctx.input_bytes``), so a
    stage that only re-wraps its input can compute what it emits instead
    of walking it. ``records`` may itself be a collector (a reducer's,
    fed to the reduce-post chain), or a record list with the ``sizes``
    kept beside it (a split's). A bare record list is an entry seam: it
    is sized here, once, before the first stage sees it.
    """
    if isinstance(records, OutputCollector):
        collector, sizes = records, records.sizes
    else:
        collector = OutputCollector()
        collector.records = list(records)
        sizes = record_sizes(
            collector.records, sizes, "the input of %s", chain_name(stages)
        )
        if not stages:
            collector.sizes = list(sizes)
            collector.bytes = sum(sizes)
    try:
        for stage in stages:
            current, collector = collector.records, OutputCollector()
            if len(sizes) != len(current):
                # Pairing them up would silently drop the surplus records.
                raise DataFlowError(
                    f"the input of {stage.name} holds {len(current)} "
                    f"records but {len(sizes)} sizes; emit through collect(), "
                    f"never by appending to records"
                )
            stage.run(current, sizes, collector, ctx)
            sizes = collector.sizes
    finally:
        ctx.input_bytes = None
    return collector


def chain_name(stages: Sequence[ChainedFunction]) -> str:
    """Human-readable label for logging/debugging."""
    return " -> ".join(stage.name for stage in stages) or "<empty>"
