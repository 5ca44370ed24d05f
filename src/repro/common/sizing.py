"""Deterministic byte-size estimation for record values.

The simulated cluster charges network and disk time proportional to the
*serialized* size of the data that flows through it. Rather than actually
serializing every record (slow, and irrelevant to the experiments), we
estimate the wire size of plain Python values with a simple recursive
model that is stable across runs and platforms.

The model approximates a compact binary encoding:

* ``int`` / ``float``            -> 8 bytes
* ``bool`` / ``None``            -> 1 byte
* ``str``                        -> UTF-8 length (ASCII fast path: ``len``)
* ``bytes`` / ``bytearray``      -> ``len``
* ``tuple`` / ``list``           -> 4-byte header + elements
* ``dict``                       -> 4-byte header + keys + values
* objects with ``wire_size()``   -> whatever they report

Anything else falls back to the UTF-8 size of ``repr(value)``, so unknown
types degrade gracefully instead of raising mid-job.

:func:`sizeof` sits on every boundary a record crosses, so it first
dispatches on the *exact* type of the value -- the plain tuples, lists,
strings and numbers records are made of -- and sizes the leaves of a
container inside the loop, without a call. Every other value (subclasses
such as ``IntEnum`` or a namedtuple, ``bytes``, sets, dicts,
``wire_size()`` objects, unknown types) takes the ``isinstance`` ladder
below it, which is the model's definition: the two agree on every value
(DESIGN.md section 5.12).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.common.errors import DataFlowError

_CONTAINER_HEADER = 4
_NUMBER_SIZE = 8


def sizeof(value: Any) -> int:
    """Return the estimated serialized size of ``value`` in bytes."""
    kind = type(value)
    if kind is tuple or kind is list:
        total = _CONTAINER_HEADER
        for item in value:
            kind = type(item)
            if kind is str:
                total += len(item) if item.isascii() else _utf8_len(item)
            elif kind is int or kind is float:
                total += _NUMBER_SIZE
            elif item is None or kind is bool:
                total += 1
            else:
                total += sizeof(item)
        return total
    if kind is str:
        return len(value) if value.isascii() else _utf8_len(value)
    if kind is int or kind is float:
        return _NUMBER_SIZE

    # The ladder: the model itself, for every type the dispatch above
    # does not name exactly.
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return _NUMBER_SIZE
    if isinstance(value, str):
        if value.isascii():
            return len(value)
        return _utf8_len(value)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (tuple, list)):
        return _CONTAINER_HEADER + sum(sizeof(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return _CONTAINER_HEADER + sum(sizeof(item) for item in value)
    if isinstance(value, dict):
        return _CONTAINER_HEADER + sum(
            sizeof(k) + sizeof(v) for k, v in value.items()
        )
    wire_size = getattr(value, "wire_size", None)
    if callable(wire_size):
        return int(wire_size())
    return _utf8_len(repr(value))


def _utf8_len(text: str) -> int:
    # ``surrogatepass``: a lone surrogate (3 bytes) must not raise
    # mid-job; no valid string encodes differently under it.
    return len(text.encode("utf-8", "surrogatepass"))


def sizeof_pair(key: Any, value: Any) -> int:
    """Size of a key-value pair as it travels through MapReduce."""
    return sizeof(key) + sizeof(value)


def sizeof_records(records) -> int:
    """Total size of an iterable of ``(key, value)`` pairs."""
    total = 0
    for key, value in records:
        total += sizeof(key) + sizeof(value)
    return total


def record_sizes(
    records: Sequence, sizes: Optional[Sequence[int]], what: str, *args: Any
) -> Sequence[int]:
    """One size per record, at a seam where a record list changes hands.

    ``sizes`` are the ints whoever made ``records`` recorded beside them
    (a collector, a block): they are handed on as they are, after a
    count check -- a list that disagrees with its records is refused,
    never ``zip``-truncated. ``None`` is a bare record list nobody has
    sized yet: it is walked here, once (DESIGN.md section 5.12).
    ``what % args`` names the records in the error, formatted only then.
    """
    if sizes is None:
        return [sizeof(key) + sizeof(value) for key, value in records]
    if len(sizes) != len(records):
        raise DataFlowError(
            f"{what % args}: {len(records)} records but {len(sizes)} sizes; "
            f"sizes travel beside their records, one int per pair"
        )
    return sizes
