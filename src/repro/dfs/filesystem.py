"""The distributed file system.

Stores record files, chunks them into blocks, and places replicas on
cluster nodes. The block size defaults to 64 MB with replication 3,
matching Section 5.1 of the paper. Since the benchmark datasets are
scaled down from the paper's (gigabytes -> megabytes), callers usually
pass a proportionally smaller block size so jobs still run a realistic
number of map tasks in several waves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import DataFlowError
from repro.common.sizing import record_sizes
from repro.common.units import MB
from repro.mapreduce.api import stable_hash
from repro.simcluster.cluster import Cluster

Record = Tuple[Any, Any]

from repro.dfs.splits import InputSplit


@dataclass
class Block:
    """One replicated chunk of a file."""

    index: int
    records: List[Record]
    size_bytes: int
    hosts: List[str]
    #: ``sizes[i]`` is the wire size of ``records[i]``: the ints
    #: ``size_bytes`` is the sum of, kept so that no job reading the
    #: block walks its records again. A block built by hand without
    #: them is sized on construction, once.
    sizes: Optional[List[int]] = None

    def __post_init__(self) -> None:
        self.sizes = record_sizes(self.records, self.sizes, "block %s", self.index)


@dataclass
class FileMeta:
    """Catalog entry for one DFS file."""

    path: str
    blocks: List[Block] = field(default_factory=list)

    @property
    def num_records(self) -> int:
        return sum(len(b.records) for b in self.blocks)

    @property
    def size_bytes(self) -> int:
        return sum(b.size_bytes for b in self.blocks)


def chunk_records(
    records: Iterable[Record],
    target_bytes: int,
    sizes: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[List[Record], List[int], int]]:
    """Chunk records greedily into ``(records, sizes, size_bytes)``
    pieces: a chunk closes once it holds at least ``target_bytes``
    estimated bytes. No records yield one empty chunk. ``sizes`` are the
    records' sizes when the caller kept them; records that arrive
    without are walked here, once."""
    if not isinstance(records, list):
        records = list(records)
    sizes = record_sizes(records, sizes, "chunk_records")
    start = 0
    current_bytes = 0
    for end, nbytes in enumerate(sizes, 1):
        current_bytes += nbytes
        if current_bytes >= target_bytes:
            yield records[start:end], list(sizes[start:end]), current_bytes
            start, current_bytes = end, 0
    if start < len(records) or start == 0:
        yield records[start:], list(sizes[start:]), current_bytes


class DistributedFileSystem:
    """An in-memory HDFS stand-in bound to a :class:`Cluster`."""

    DEFAULT_BLOCK_SIZE = 64 * MB

    def __init__(self, cluster: Cluster, block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.cluster = cluster
        self.block_size = block_size
        self._files: Dict[str, FileMeta] = {}

    # ------------------------------------------------------------------
    # Write / read
    # ------------------------------------------------------------------
    def write(
        self,
        path: str,
        records: Iterable[Record],
        block_size: Optional[int] = None,
        replication: Optional[int] = None,
        sizes: Optional[Sequence[int]] = None,
    ) -> FileMeta:
        """Create (or overwrite) ``path`` with the given records.

        Records are chunked greedily (:func:`chunk_records`): a block
        closes once it holds at least ``block_size`` estimated bytes.
        ``sizes`` -- one int per record, ``sizeof_pair`` of it -- spares
        the walk when the writer already has them (a job writing its
        tasks' output); the blocks keep them either way.
        """
        if block_size is None:
            block_size = self.block_size
        elif block_size <= 0:
            raise ValueError("block_size must be positive")
        if replication is None:
            replication = self.cluster.time_model.dfs_replication
        elif replication <= 0:
            raise ValueError("replication must be positive")
        meta = FileMeta(path=path)
        for chunk, chunk_sizes, size_bytes in chunk_records(records, block_size, sizes):
            self._seal_block(meta, chunk, chunk_sizes, size_bytes, replication)
        self._files[path] = meta
        return meta

    def _seal_block(
        self,
        meta: FileMeta,
        records: List[Record],
        sizes: List[int],
        size_bytes: int,
        replication: int,
    ) -> None:
        index = len(meta.blocks)
        # stable_hash, not hash(): block placement must not depend on
        # the process's string-hash seed or runs stop being replayable.
        hosts = [
            n.hostname
            for n in self.cluster.replica_nodes(
                stable_hash(meta.path) % self.cluster.num_nodes + index, replication
            )
        ]
        meta.blocks.append(
            Block(
                index=index,
                records=records,
                size_bytes=size_bytes,
                hosts=hosts,
                sizes=sizes,
            )
        )

    def read(self, path: str) -> List[Record]:
        """Return all records of ``path`` in block order."""
        meta = self._require(path)
        out: List[Record] = []
        for block in meta.blocks:
            out.extend(block.records)
        return out

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        self._files.pop(path, None)

    def listdir(self, prefix: str = "") -> List[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    def meta(self, path: str) -> FileMeta:
        return self._require(path)

    def size(self, path: str) -> int:
        return self._require(path).size_bytes

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------
    def splits(self, path: str, max_splits: Optional[int] = None) -> List[InputSplit]:
        """Derive one input split per block (optionally coalescing to at
        most ``max_splits``)."""
        meta = self._require(path)
        splits = [
            InputSplit(
                path=path,
                index=b.index,
                records=b.records,
                size_bytes=b.size_bytes,
                hosts=list(b.hosts),
                sizes=b.sizes,
            )
            for b in meta.blocks
        ]
        if max_splits is not None and len(splits) > max_splits:
            splits = _coalesce(splits, max_splits)
        return splits

    def splits_for(
        self, paths: Sequence[str], max_splits: Optional[int] = None
    ) -> List[InputSplit]:
        """Splits across several input files, re-indexed globally."""
        out: List[InputSplit] = []
        for path in paths:
            out.extend(self.splits(path))
        for i, split in enumerate(out):
            split.index = i
        if max_splits is not None and len(out) > max_splits:
            out = _coalesce(out, max_splits)
        return out

    # ------------------------------------------------------------------
    def _require(self, path: str) -> FileMeta:
        try:
            return self._files[path]
        except KeyError:
            raise DataFlowError(f"no such DFS file: {path!r}") from None


def _coalesce(splits: List[InputSplit], max_splits: int) -> List[InputSplit]:
    """Merge adjacent splits until at most ``max_splits`` remain."""
    if max_splits < 1:
        raise ValueError("max_splits must be >= 1")
    per_group = -(-len(splits) // max_splits)  # ceil division
    merged: List[InputSplit] = []
    for start in range(0, len(splits), per_group):
        group = splits[start : start + per_group]
        records: List[Record] = []
        sizes: List[int] = []
        hosts: List[str] = []
        size = 0
        for s in group:
            records.extend(s.records)
            sizes.extend(s.sizes)
            size += s.size_bytes
            for h in s.hosts:
                if h not in hosts:
                    hosts.append(h)
        merged.append(
            InputSplit(
                path=group[0].path,
                index=len(merged),
                records=records,
                size_bytes=size,
                hosts=hosts,
                sizes=sizes,
            )
        )
    return merged
