"""IndexOperator: the per-job half of the EFind interface (Figure 2).

An operator customises how one point in the dataflow uses one or more
indices:

* ``pre_process(k1, v1, index_input)`` extracts the lookup-key list for
  every attached index and may rewrite ``(k1, v1)`` (e.g. project away
  fields that are not needed downstream);
* ``post_process(k1, v1, index_output, collector)`` combines the lookup
  results into output pairs ``(k2, v2)``, applying any filtering.

Multiple *independent* indices may be attached to one operator via
:meth:`add_index` -- that is the degree of freedom the multi-index
optimizer exploits (Section 3.5). Dependent accesses should instead be
expressed as a chain of operators.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.common.errors import DataFlowError
from repro.core.accessor import IndexAccessor
from repro.mapreduce.api import OutputCollector


def _bad_index_id(index_id: int, num_indices: int) -> IndexError:
    """The error for an index id outside ``range(num_indices)``. The
    wrappers check explicitly: a negative id would otherwise count from
    the end and file a key under -- or read results from -- the wrong
    index."""
    return IndexError(
        f"index id {index_id} is out of range for an operator with "
        f"{num_indices} attached indices"
    )


class IndexInput:
    """Collects per-record lookup keys: one key list per attached index.

    ``put(j, ik)`` matches the paper's ``iklist.put(1, user)`` -- except
    indices are numbered from 0 here, in attachment order. A key is
    looked up through dicts and sets under every strategy, so it must be
    hashable: ``put`` refuses one that is not with a ``DataFlowError``.
    """

    __slots__ = ("_keys",)

    def __init__(self, num_indices: int):
        self._keys: List[List[Any]] = [[] for _ in range(num_indices)]

    def put(self, index_id: int, ik: Any) -> None:
        keys = self._keys
        if not 0 <= index_id < len(keys):
            raise _bad_index_id(index_id, len(keys))
        try:
            hash(ik)
        except TypeError:
            raise DataFlowError(
                f"lookup key {ik!r} for index {index_id} is unhashable; "
                f"a lookup key must be hashable (a tuple, not a list)"
            ) from None
        keys[index_id].append(ik)

    def keys(self, index_id: int) -> List[Any]:
        if not 0 <= index_id < len(self._keys):
            raise _bad_index_id(index_id, len(self._keys))
        return list(self._keys[index_id])

    def as_tuple(self) -> Tuple[Tuple[Any, ...], ...]:
        """Immutable wire form carried through the dataflow."""
        return tuple(map(tuple, self._keys))

    @property
    def num_indices(self) -> int:
        return len(self._keys)


class IndexValues:
    """Results of one index for one record, aligned with its key list.

    A read-only view: tuple arguments -- the carrier's own -- are kept
    as they are, anything else is snapshotted, and every accessor hands
    out a fresh list.
    """

    __slots__ = ("_keys", "_value_lists")

    def __init__(self, keys: Sequence[Any], value_lists: Sequence[Sequence[Any]]):
        self._keys = keys if type(keys) is tuple else tuple(keys)
        self._value_lists = (
            value_lists
            if type(value_lists) is tuple
            else tuple(map(tuple, value_lists))
        )

    def get_all(self) -> List[Any]:
        """Flattened values across all keys (the paper's ``getAll()``)."""
        value_lists = self._value_lists
        if len(value_lists) == 1:
            return list(value_lists[0])
        return [v for vs in value_lists for v in vs]

    def for_key(self, position: int) -> List[Any]:
        """Values for the ``position``-th key put in pre_process."""
        value_lists = self._value_lists
        if not 0 <= position < len(value_lists):  # -1 is no key's position
            raise IndexError(f"key position {position} is out of range for "
                             f"{len(value_lists)} keys")
        return list(value_lists[position])

    @property
    def keys(self) -> List[Any]:
        return list(self._keys)

    def __len__(self) -> int:
        return len(self._value_lists)


_new_values = IndexValues.__new__


class IndexOutput:
    """All attached indices' results for one record: a view over the
    carrier's key and result tuples (anything else is snapshotted),
    opened per index on request."""

    __slots__ = ("_iklists", "_ivlists")

    def __init__(
        self,
        iklists: Sequence[Sequence[Any]],
        ivlists: Sequence[Optional[Sequence[Sequence[Any]]]],
    ):
        self._iklists = iklists if type(iklists) is tuple else tuple(iklists)
        self._ivlists = ivlists if type(ivlists) is tuple else tuple(ivlists)

    def get(self, index_id: int) -> IndexValues:
        iklists = self._iklists
        if not 0 <= index_id < len(iklists):
            raise _bad_index_id(index_id, len(iklists))
        keys, value_lists = iklists[index_id], self._ivlists[index_id]
        if value_lists is None:
            value_lists = ()
        if type(keys) is not tuple or type(value_lists) is not tuple:
            return IndexValues(keys, value_lists)
        # Both parts are the carrier's own tuples: the view the
        # constructor would build, without its frame.
        values = _new_values(IndexValues)
        values._keys = keys
        values._value_lists = value_lists
        return values

    @property
    def num_indices(self) -> int:
        return len(self._iklists)


class IndexOperator:
    """Base class for user IndexOperators.

    The default ``pre_process`` uses the record's key as the single
    lookup key for every attached index; the default ``post_process``
    emits ``(k1, (v1, flattened results))`` -- enough for simple
    index-join shapes, so trivial operators need no subclassing.
    """

    def __init__(self, name: Optional[str] = None):
        self.accessors: List[IndexAccessor] = []
        self._name = name or type(self).__name__

    # ------------------------------------------------------------------
    def add_index(self, accessor: IndexAccessor) -> "IndexOperator":
        """Attach one more (independent) index; returns self for chaining."""
        self.accessors.append(accessor)
        return self

    @property
    def num_indices(self) -> int:
        return len(self.accessors)

    @property
    def name(self) -> str:
        return self._name

    def signature(self) -> str:
        """Stable identity for the statistics catalog."""
        parts = [type(self).__name__] + [a.signature() for a in self.accessors]
        return "|".join(parts)

    # ------------------------------------------------------------------
    # User-overridable methods
    # ------------------------------------------------------------------
    def pre_process(
        self, key: Any, value: Any, index_input: IndexInput
    ) -> Tuple[Any, Any]:
        """Extract lookup keys; return the (possibly modified) pair."""
        for j in range(index_input.num_indices):
            index_input.put(j, key)
        return key, value

    def post_process(
        self,
        key: Any,
        value: Any,
        index_output: IndexOutput,
        collector: OutputCollector,
    ) -> None:
        """Combine lookup results into output pairs."""
        results = []
        for j in range(index_output.num_indices):
            results.extend(index_output.get(j).get_all())
        collector.collect(key, (value, tuple(results)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(indices={[a.name for a in self.accessors]})"
