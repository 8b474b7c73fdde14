"""Tests for the simulated HDFS and the metastore."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SemanticError, StorageError
from repro.common.rows import Schema
from repro.common.units import MB
from repro.storage.formats.base import get_format
from repro.storage.hdfs import HDFS
from repro.storage.metastore import Metastore

SCHEMA = Schema.parse("k int, v string")


def make_rows(n):
    return [(i, f"value-{i:06d}") for i in range(n)]


class TestHdfsNamespace:
    def test_write_and_get(self):
        hdfs = HDFS(num_workers=4)
        hdfs.write("/a/b", SCHEMA, make_rows(10))
        assert hdfs.exists("/a/b")
        assert hdfs.get("/a/b").row_count == 10

    def test_duplicate_write_rejected(self):
        hdfs = HDFS(num_workers=4)
        hdfs.write("/a", SCHEMA, make_rows(1))
        with pytest.raises(StorageError):
            hdfs.write("/a", SCHEMA, make_rows(1))

    def test_built_file_must_match_format_and_schema(self):
        hdfs = HDFS(num_workers=4)
        orc = get_format("orc").build(SCHEMA, make_rows(3))
        assert hdfs.write("/orc", SCHEMA, orc, format_name="orc").stored is orc
        with pytest.raises(StorageError):
            hdfs.write("/text", SCHEMA, orc, format_name="text")
        with pytest.raises(StorageError):
            hdfs.write("/other", Schema.parse("k int"), orc, format_name="orc")
        assert not hdfs.exists("/text") and not hdfs.exists("/other")

    def test_missing_file(self):
        with pytest.raises(StorageError):
            HDFS(num_workers=4).get("/nope")

    def test_delete_recursive(self):
        hdfs = HDFS(num_workers=4)
        hdfs.write("/dir/p1", SCHEMA, make_rows(1))
        hdfs.write("/dir/p2", SCHEMA, make_rows(1))
        hdfs.write("/other", SCHEMA, make_rows(1))
        hdfs.delete("/dir")
        assert not hdfs.exists("/dir/p1")
        assert hdfs.exists("/other")

    def test_list_dir_sorted(self):
        hdfs = HDFS(num_workers=4)
        hdfs.write("/t/part-2", SCHEMA, make_rows(1))
        hdfs.write("/t/part-1", SCHEMA, make_rows(1))
        assert [f.path for f in hdfs.list_dir("/t")] == ["/t/part-1", "/t/part-2"]

    def test_list_dir_sees_every_namespace_change(self):
        # the sorted listing is cached per generation: each write and
        # delete must be visible to the very next call
        hdfs = HDFS(num_workers=4)
        hdfs.write("/t/part-2", SCHEMA, make_rows(1))
        assert [f.path for f in hdfs.list_dir("/t")] == ["/t/part-2"]
        hdfs.write("/t/part-1", SCHEMA, make_rows(1))
        hdfs.write("/t-other", SCHEMA, make_rows(1))
        hdfs.write("/t", SCHEMA, make_rows(1))  # a file named like the dir
        assert [f.path for f in hdfs.list_dir("/t")] == [
            "/t", "/t/part-1", "/t/part-2"
        ]
        hdfs.delete("/t/part-1")
        assert [f.path for f in hdfs.list_dir("/t/")] == ["/t/part-2"]

    def test_generation_counts_namespace_changes_only(self):
        hdfs = HDFS(num_workers=4)
        assert hdfs.generation == 0
        hdfs.write("/d/p1", SCHEMA, make_rows(1))
        hdfs.write("/d/p2", SCHEMA, make_rows(1))
        assert hdfs.generation == 2
        hdfs.list_dir("/d")
        hdfs.delete("/absent")  # removes nothing: same namespace
        assert hdfs.generation == 2
        hdfs.delete("/d")  # one recursive delete, one change
        assert hdfs.generation == 3
        with pytest.raises(StorageError):
            hdfs.get("/d/p1")

    def test_dir_rows_concat(self):
        hdfs = HDFS(num_workers=4)
        hdfs.write("/t/part-1", SCHEMA, make_rows(3))
        hdfs.write("/t/part-2", SCHEMA, make_rows(2))
        assert len(hdfs.dir_rows("/t")) == 5


class TestBlocks:
    def test_scale_drives_block_count(self):
        hdfs = HDFS(num_workers=4, block_size=64 * MB)
        rows = make_rows(1000)
        # ~16 KB actual -> 320 MB logical -> 5 blocks
        file = hdfs.write("/big", SCHEMA, rows, scale=20000.0)
        assert 4 <= len(file.blocks) <= 7
        assert sum(b.row_count for b in file.blocks) == 1000

    def test_block_logical_bytes_sum_to_file(self):
        hdfs = HDFS(num_workers=4)
        file = hdfs.write("/f", SCHEMA, make_rows(500), scale=1e6)
        assert sum(b.logical_bytes for b in file.blocks) == pytest.approx(
            file.logical_bytes, rel=1e-6
        )

    def test_replication_count_and_distinct(self):
        hdfs = HDFS(num_workers=5, replication=3)
        file = hdfs.write("/f", SCHEMA, make_rows(10))
        for block in file.blocks:
            assert len(block.locations) == 3
            assert len(set(block.locations)) == 3

    def test_replication_clamped_to_workers(self):
        hdfs = HDFS(num_workers=2, replication=3)
        file = hdfs.write("/f", SCHEMA, make_rows(10))
        assert len(file.blocks[0].locations) == 2

    def test_writer_affinity(self):
        hdfs = HDFS(num_workers=5)
        file = hdfs.write("/f", SCHEMA, make_rows(10), writer_node=3)
        assert all(block.locations[0] == 3 for block in file.blocks)

    def test_splits_match_blocks(self):
        hdfs = HDFS(num_workers=4)
        file = hdfs.write("/f", SCHEMA, make_rows(2000), scale=3e5)
        splits = file.splits()
        assert len(splits) == len(file.blocks)
        covered = sorted((s.row_start, s.row_start + s.row_count) for s in splits)
        # contiguous, non-overlapping, full coverage
        assert covered[0][0] == 0
        for (s1, e1), (s2, _e2) in zip(covered, covered[1:]):
            assert e1 == s2
        assert covered[-1][1] == 2000

    def test_empty_file_single_block(self):
        hdfs = HDFS(num_workers=4)
        file = hdfs.write("/empty", SCHEMA, [])
        assert len(file.blocks) == 1
        assert file.blocks[0].row_count == 0

    def test_deterministic_placement(self):
        a = HDFS(num_workers=5, seed=1).write("/f", SCHEMA, make_rows(100), scale=1e5)
        b = HDFS(num_workers=5, seed=1).write("/f", SCHEMA, make_rows(100), scale=1e5)
        assert [x.locations for x in a.blocks] == [y.locations for y in b.blocks]


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.integers(min_value=1, max_value=400),
    scale=st.floats(min_value=1.0, max_value=1e6),
)
def test_property_blocks_partition_rows(n_rows, scale):
    hdfs = HDFS(num_workers=3)
    file = hdfs.write("/f", SCHEMA, make_rows(n_rows), scale=scale)
    starts = [block.row_start for block in file.blocks]
    assert starts[0] == 0
    assert sum(block.row_count for block in file.blocks) == n_rows
    for block, following in zip(file.blocks, file.blocks[1:]):
        assert block.row_start + block.row_count == following.row_start


class TestMetastore:
    def test_create_get_drop(self):
        hdfs = HDFS(num_workers=3)
        metastore = Metastore(hdfs)
        table = metastore.create_table("t1", SCHEMA)
        assert table.location == "/warehouse/t1"
        assert metastore.get_table("T1") is table
        metastore.drop_table("t1")
        assert not metastore.has_table("t1")

    def test_duplicate_rejected(self):
        metastore = Metastore(HDFS(num_workers=3))
        metastore.create_table("t", SCHEMA)
        with pytest.raises(SemanticError):
            metastore.create_table("T", SCHEMA)

    def test_drop_missing(self):
        metastore = Metastore(HDFS(num_workers=3))
        with pytest.raises(SemanticError):
            metastore.drop_table("ghost")
        metastore.drop_table("ghost", if_exists=True)  # no raise

    def test_drop_removes_files(self):
        hdfs = HDFS(num_workers=3)
        metastore = Metastore(hdfs)
        table = metastore.create_table("t", SCHEMA)
        hdfs.write(f"{table.location}/part-0", SCHEMA, make_rows(4))
        metastore.drop_table("t")
        assert hdfs.dir_rows("/warehouse/t") == []

    def test_truncate_keeps_entry(self):
        hdfs = HDFS(num_workers=3)
        metastore = Metastore(hdfs)
        table = metastore.create_table("t", SCHEMA)
        hdfs.write(f"{table.location}/part-0", SCHEMA, make_rows(4))
        metastore.truncate_table("t")
        assert metastore.has_table("t")
        assert table.row_count(hdfs) == 0

    def test_table_stats(self):
        hdfs = HDFS(num_workers=3)
        metastore = Metastore(hdfs)
        table = metastore.create_table("t", SCHEMA)
        hdfs.write(f"{table.location}/part-0", SCHEMA, make_rows(7), scale=100.0)
        assert table.row_count(hdfs) == 7
        assert table.logical_bytes(hdfs) > 0
        assert len(table.splits(hdfs)) >= 1
