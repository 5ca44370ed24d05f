"""Index substrates.

The paper uses "index" broadly: any side data source that supports
selective access. This package implements every kind the paper
evaluates or motivates:

* :mod:`kvstore` -- a Cassandra-like distributed key-value store with
  hash partitioning and replication (the paper's main index service).
* :mod:`btree` -- an in-memory B-tree plus a range-partitioned
  distributed B-tree (the "distributed B-tree" example of Section 2).
* :mod:`rstar` -- an R*-tree with best-first kNN search, and a grid of
  replicated R*-trees over 2-D space (the OSM kNN-join index).
* :mod:`inverted` -- an inverted text index.
* :mod:`dynamic` -- a dynamic computed index whose results are computed
  per key (the knowledge-base topic classifier of Example 2.1).
* :mod:`cloudservice` -- an external pay-per-use cloud service with a
  configurable lookup delay (the LOG experiment's geo service).

All of them implement :class:`~repro.indices.base.IndexService`, the
contract EFind's :class:`~repro.core.accessor.IndexAccessor` talks to.
"""

from repro.indices.base import IndexService
from repro.indices.btree import BTree, DistributedBTree
from repro.indices.cloudservice import CloudServiceIndex
from repro.indices.dynamic import DynamicComputedIndex, KeywordTopicClassifier
from repro.indices.inverted import InvertedIndex
from repro.indices.kvstore import DistributedKVStore
from repro.indices.partitioning import (
    HashPartitionScheme,
    PartitionScheme,
    RangePartitionScheme,
)
from repro.indices.rstar import GridRStarForest, RStarTree

__all__ = [
    "IndexService",
    "BTree",
    "DistributedBTree",
    "CloudServiceIndex",
    "DynamicComputedIndex",
    "KeywordTopicClassifier",
    "InvertedIndex",
    "DistributedKVStore",
    "HashPartitionScheme",
    "PartitionScheme",
    "RangePartitionScheme",
    "GridRStarForest",
    "RStarTree",
]
