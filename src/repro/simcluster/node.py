"""A machine node in the simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Node:
    """One worker machine.

    Mirrors the paper's setup: every node runs one TaskTracker and one
    DataNode, with a fixed number of map and reduce slots (8 and 4 by
    default, matching Section 5.1).
    """

    node_id: int
    map_slots: int = 8
    reduce_slots: int = 4

    @property
    def hostname(self) -> str:
        return f"node{self.node_id:02d}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.hostname

