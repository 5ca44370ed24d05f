"""Job configuration: what to run, over what input, with which chains."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.common.errors import DataFlowError
from repro.mapreduce.api import (
    ChainedFunction,
    HashPartitioner,
    Partitioner,
    Reducer,
)


@dataclass
class JobConf:
    """Configuration of one MapReduce job.

    The map side runs ``map_chain`` (a list of ChainedFunctions; the
    user's Mapper is simply one element of it). The reduce side runs the
    ``reducer`` followed by ``reduce_post_chain``. ``num_reduce_tasks=0``
    makes the job map-only.

    ``map_host_constraint``, when set, restricts which hosts each map
    task may run on (keyed by the task's split index) -- the hook used by
    the index-locality strategy (Section 3.4).

    ``side_reduce_inputs`` are records shuffled into the reduce phase
    beside the map output (a resumed job's already-mapped records);
    ``side_reduce_sizes``, when whoever made them kept their sizes, is
    one int per record -- else the job sizes them once, as it starts its
    reduce phase.
    """

    name: str
    input_paths: List[str] = field(default_factory=list)
    output_path: str = ""
    map_chain: List[ChainedFunction] = field(default_factory=list)
    reducer: Optional[Reducer] = None
    combiner: Optional[Reducer] = None
    reduce_post_chain: List[ChainedFunction] = field(default_factory=list)
    num_reduce_tasks: int = 0
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    max_map_tasks: Optional[int] = None
    map_host_constraint: Optional[Callable[[int], Optional[List[str]]]] = None
    materialize_output: bool = True
    output_per_partition: bool = False
    side_reduce_inputs: List = field(default_factory=list)
    side_reduce_sizes: Optional[List[int]] = None

    def validate(self) -> None:
        if not self.input_paths:
            raise DataFlowError(f"job {self.name!r} has no input paths")
        if not self.map_chain and self.reducer is None:
            raise DataFlowError(
                f"job {self.name!r} has neither a map chain nor a reducer"
            )
        if self.num_reduce_tasks < 0:
            raise DataFlowError("num_reduce_tasks must be >= 0")
        if self.reducer is None and self.reduce_post_chain:
            raise DataFlowError(
                "reduce_post_chain requires a reducer (or use IdentityReducer)"
            )
        if self.reducer is not None and self.num_reduce_tasks == 0:
            raise DataFlowError(
                f"job {self.name!r} has a reducer but zero reduce tasks"
            )
        if self.materialize_output and not self.output_path:
            raise DataFlowError(f"job {self.name!r} needs an output path")
        if self.combiner is not None and self.reducer is None:
            raise DataFlowError("a combiner requires a reduce phase")
        if self.output_per_partition and self.reducer is None:
            raise DataFlowError("per-partition output requires a reduce phase")
        if self.side_reduce_inputs and self.reducer is None:
            raise DataFlowError("side reduce inputs require a reduce phase")
