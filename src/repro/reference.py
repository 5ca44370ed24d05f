"""An EFind job evaluated as plain in-memory Python.

:func:`evaluate` runs an :class:`~repro.core.ejobconf.IndexJobConf` the
way the MapReduce paper defines a job's meaning -- its sequential
execution -- with EFind's operators spliced in where the job places
them: every record goes through ``pre_process``, each lookup key is
answered by its accessor once and remembered in a dict, then
``post_process``, the Mapper, a group-by-key and the Reducer. There is
no cluster, no strategy, no size and no cost model, so its answer is
what every strategy's output must equal as a multiset.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.core.operator import IndexInput, IndexOperator, IndexOutput
from repro.mapreduce.api import TaskContext

Record = Tuple[Any, Any]


class _Collected(list):
    """Takes what user code emits, through either collector method."""

    def collect(self, key: Any, value: Any, nbytes: Any = None) -> None:
        self.append((key, value))

    def extend(self, records: Iterable[Record], sizes: Any = None) -> None:
        super().extend(records)


def _context() -> TaskContext:
    # User code may read a context; nothing here charges or sizes it.
    return TaskContext(None, None, task_id="reference")


def apply_operator(op: IndexOperator, records: Iterable[Record]) -> List[Record]:
    """``pre_process``, one lookup per distinct key and index, then
    ``post_process``, record by record."""
    answers: List[Dict[Any, tuple]] = [{} for _ in op.accessors]
    out = _Collected()
    for key, value in records:
        index_input = IndexInput(op.num_indices)
        key, value = op.pre_process(key, value, index_input)
        ikl = index_input.as_tuple()
        ivl = []
        for accessor, table, keys in zip(op.accessors, answers, ikl):
            results = []
            for ik in keys:
                if ik not in table:
                    table[ik] = tuple(accessor.lookup(ik))
                results.append(table[ik])
            ivl.append(tuple(results))
        op.post_process(key, value, IndexOutput(ikl, tuple(ivl)), out)
    return list(out)


def _map(mapper, records: List[Record]) -> List[Record]:
    ctx, out = _context(), _Collected()
    mapper.start(ctx)
    for key, value in records:
        mapper.process(key, value, out, ctx)
    mapper.finish(out, ctx)
    return list(out)


def _reduce(reducer, records: List[Record]) -> List[Record]:
    groups: Dict[Any, List[Any]] = {}
    for key, value in records:
        groups.setdefault(key, []).append(value)
    ctx, out = _context(), _Collected()
    reducer.start(ctx)
    for key, values in groups.items():
        reducer.reduce(key, values, out, ctx)
    reducer.finish(out, ctx)
    return list(out)


def evaluate(iconf, records: Iterable[Record]) -> List[Record]:
    """The output of ``iconf`` over ``records`` (its input), in no
    particular order: head operators, Mapper, body operators, Reducer,
    tail operators."""
    records = list(records)
    for op in iconf.head_operators:
        records = apply_operator(op, records)
    if iconf.mapper is not None:
        records = _map(iconf.mapper, records)
    for op in iconf.body_operators:
        records = apply_operator(op, records)
    if iconf.reducer is not None:
        records = _reduce(iconf.reducer, records)
    for op in iconf.tail_operators:
        records = apply_operator(op, records)
    return records
