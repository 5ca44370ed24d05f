"""Input splits: the unit of work for a map task."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.common.sizing import record_sizes

Record = Tuple[Any, Any]


@dataclass
class InputSplit:
    """One map task's slice of an input file.

    ``hosts`` are the hostnames holding a replica of the underlying
    block; the scheduler prefers to run the map task on one of them.
    ``sizes[i]`` is the wire size of ``records[i]`` -- the ints
    ``size_bytes`` is the sum of, handed over by the blocks the split
    was cut from. A split built by hand from bare records (``sizes``
    left None) is sized on construction, once.
    """

    path: str
    index: int
    records: List[Record]
    size_bytes: int
    hosts: List[str] = field(default_factory=list)
    sizes: Optional[List[int]] = None

    def __post_init__(self) -> None:
        self.sizes = record_sizes(
            self.records, self.sizes, "split %s#%s", self.path, self.index
        )

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InputSplit({self.path!r}#{self.index}, records={len(self.records)}, "
            f"bytes={self.size_bytes}, hosts={self.hosts})"
        )
