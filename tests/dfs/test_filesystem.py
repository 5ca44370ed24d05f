"""Unit tests for the distributed file system."""

import pytest

from repro.common.errors import DataFlowError
from repro.common.sizing import sizeof_pair
from repro.dfs.filesystem import Block, DistributedFileSystem
from repro.dfs.splits import InputSplit
from repro.simcluster.cluster import Cluster


@pytest.fixture
def cluster():
    return Cluster(num_nodes=4)


@pytest.fixture
def fs(cluster):
    return DistributedFileSystem(cluster, block_size=1000)


def records(n, value_size=40):
    return [(i, "v" * value_size) for i in range(n)]


class TestWriteRead:
    def test_roundtrip_preserves_order(self, fs):
        data = records(100)
        fs.write("/f", data)
        assert fs.read("/f") == data

    def test_overwrite_replaces(self, fs):
        fs.write("/f", records(10))
        fs.write("/f", records(3))
        assert len(fs.read("/f")) == 3

    def test_empty_file_has_one_block(self, fs):
        meta = fs.write("/empty", [])
        assert len(meta.blocks) == 1
        assert fs.read("/empty") == []

    def test_missing_file_raises(self, fs):
        with pytest.raises(DataFlowError):
            fs.read("/nope")

    def test_exists_and_delete(self, fs):
        fs.write("/f", records(1))
        assert fs.exists("/f")
        fs.delete("/f")
        assert not fs.exists("/f")

    def test_delete_missing_is_noop(self, fs):
        fs.delete("/nothing")

    def test_listdir_prefix(self, fs):
        fs.write("/a/1", records(1))
        fs.write("/a/2", records(1))
        fs.write("/b/1", records(1))
        assert fs.listdir("/a/") == ["/a/1", "/a/2"]


class TestChunking:
    def test_blocks_respect_target_size(self, fs):
        meta = fs.write("/f", records(100))
        # 100 records x ~48 bytes over 1000-byte blocks -> several blocks
        assert len(meta.blocks) >= 4
        for block in meta.blocks[:-1]:
            assert block.size_bytes >= 1000

    def test_explicit_block_size(self, fs):
        small = fs.write("/s", records(100), block_size=500)
        large = fs.write("/l", records(100), block_size=5000)
        assert len(small.blocks) > len(large.blocks)

    def test_rejects_nonpositive_block_size(self, cluster):
        with pytest.raises(ValueError):
            DistributedFileSystem(cluster, block_size=0)

    def test_meta_counts(self, fs):
        meta = fs.write("/f", records(57))
        assert meta.num_records == 57
        assert meta.size_bytes > 0
        assert fs.size("/f") == meta.size_bytes


class TestReplication:
    def test_blocks_have_three_replicas(self, fs):
        meta = fs.write("/f", records(100))
        for block in meta.blocks:
            assert len(block.hosts) == 3
            assert len(set(block.hosts)) == 3

    def test_custom_replication(self, fs):
        meta = fs.write("/f", records(100), replication=2)
        assert all(len(b.hosts) == 2 for b in meta.blocks)


class TestSplits:
    def test_one_split_per_block(self, fs):
        meta = fs.write("/f", records(100))
        splits = fs.splits("/f")
        assert len(splits) == len(meta.blocks)

    def test_splits_cover_all_records(self, fs):
        fs.write("/f", records(100))
        splits = fs.splits("/f")
        total = [r for s in splits for r in s.records]
        assert total == records(100)

    def test_split_hosts_come_from_block(self, fs):
        fs.write("/f", records(100))
        for split in fs.splits("/f"):
            assert len(split.hosts) == 3

    def test_max_splits_coalesces(self, fs):
        fs.write("/f", records(200))
        splits = fs.splits("/f", max_splits=2)
        assert len(splits) <= 2
        assert sum(len(s) for s in splits) == 200

    def test_splits_for_multiple_paths_reindexed(self, fs):
        fs.write("/a", records(50))
        fs.write("/b", records(50))
        splits = fs.splits_for(["/a", "/b"])
        assert [s.index for s in splits] == list(range(len(splits)))

    def test_coalesce_merges_hosts(self, fs):
        fs.write("/f", records(300))
        merged = fs.splits("/f", max_splits=1)
        assert len(merged) == 1
        assert len(merged[0].hosts) >= 3


class TestWriteOverrides:
    """The per-call overrides get the constructor's validation."""

    @pytest.mark.parametrize("block_size", [0, -1])
    def test_nonpositive_block_size_rejected(self, fs, block_size):
        # Regression: -1 silently sealed one block per record (and 0
        # silently meant "the default").
        with pytest.raises(ValueError, match="block_size must be positive"):
            fs.write("/f", records(10), block_size=block_size)
        assert not fs.exists("/f")

    @pytest.mark.parametrize("replication", [0, -2])
    def test_nonpositive_replication_rejected(self, fs, replication):
        # Regression: -2 sealed blocks with hosts == [] -- a file that
        # lives nowhere.
        with pytest.raises(ValueError, match="replication must be positive"):
            fs.write("/f", records(10), replication=replication)
        assert not fs.exists("/f")

    def test_positive_overrides_still_apply(self, fs):
        meta = fs.write("/f", records(100), block_size=10**6, replication=2)
        assert len(meta.blocks) == 1 and len(meta.blocks[0].hosts) == 2


class TestSizesBesideRecords:
    """A block keeps the size of each record it holds -- the ints its
    ``size_bytes`` is the sum of -- and hands them to its splits."""

    def test_blocks_and_splits_carry_the_walked_sizes(self, fs):
        data = [(i, "v" * (i % 90)) for i in range(300)]
        meta = fs.write("/f", data)
        assert len(meta.blocks) > 3
        for block, split in zip(meta.blocks, fs.splits("/f")):
            assert block.sizes == [sizeof_pair(*r) for r in block.records]
            assert block.size_bytes == sum(block.sizes)
            assert split.sizes == block.sizes and split.records == block.records

    def test_given_sizes_are_kept_and_chunk_the_same_blocks(self, fs):
        data = [(i, "v" * (i % 90)) for i in range(300)]
        walked = fs.write("/walked", data)
        given = fs.write("/given", data, sizes=[sizeof_pair(*r) for r in data])
        assert [(b.records, b.sizes, b.size_bytes) for b in given.blocks] == [
            (b.records, b.sizes, b.size_bytes) for b in walked.blocks
        ]

    def test_coalesced_splits_concatenate_sizes(self, fs):
        fs.write("/f", records(200))
        for split in fs.splits("/f", max_splits=3):
            assert split.sizes == [sizeof_pair(*r) for r in split.records]
            assert split.size_bytes == sum(split.sizes)
        merged = fs.splits_for(["/f", "/f"], max_splits=2)
        assert sum(len(s.sizes) for s in merged) == 400

    def test_write_refuses_sizes_that_do_not_match_its_records(self, fs):
        with pytest.raises(DataFlowError, match="10 records but 9 sizes"):
            fs.write("/f", records(10), sizes=[48] * 9)
        with pytest.raises(DataFlowError, match="10 records but 11 sizes"):
            fs.write("/f", records(10), sizes=[48] * 11)
        assert not fs.exists("/f")

    def test_hand_built_split_and_block_refuse_mismatched_sizes(self):
        with pytest.raises(DataFlowError, match="/f#0.*2 records but 1 sizes"):
            InputSplit("/f", 0, [(1, "a"), (2, "b")], 18, sizes=[9])
        with pytest.raises(DataFlowError, match="block 3.*1 records but 2 sizes"):
            Block(index=3, records=[(1, "a")], size_bytes=9, hosts=[], sizes=[9, 9])
        # Bare records stay legal: they are sized on construction, once.
        assert InputSplit("/f", 0, [(1, "a")], 9).sizes == [sizeof_pair(1, "a")]
        block = Block(index=0, records=[(1, "a")], size_bytes=9, hosts=[])
        assert block.sizes == [sizeof_pair(1, "a")]
