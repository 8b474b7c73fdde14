"""Tests for repro.stats: sketches (property-based), collection, freshness.

The sketch properties pinned here are exactly what the optimizer relies
on: determinism across processes (plans must not differ between runs),
merge associativity (per-file sketches merged in any grouping equal one
global sketch), and the documented error bounds (estimates are close
enough to steer join choices).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HDFS, Metastore, connect
from repro.common.rows import ColumnBatch, Schema
from repro.stats.model import ColumnStats, TableStats, collect_table_stats, table_fingerprint
from repro.storage.formats.base import RowMajorStoredFile, get_format
from repro.storage.formats.orc import OrcStoredFile
from repro.stats.sketches import (
    KMVSketch,
    SpaceSavingSketch,
    kmv_from_values,
    spacesaving_from_values,
    value_hash64,
    value_order_key,
)

# Ints and short strings only: Python dict/set equality merges 1, 1.0 and
# True into one key, which would make "distinct count" ambiguous between
# the sketch (canonical-bytes identity) and the reference Counter.
values_st = st.one_of(st.integers(-1000, 1000), st.text(max_size=6))
value_lists = st.lists(values_st, max_size=200)


def distinct(values):
    return len({value_order_key(v) for v in values})


class TestKMVSketch:
    @given(value_lists)
    def test_deterministic_and_order_independent(self, values):
        a = kmv_from_values(values, k=16)
        b = kmv_from_values(list(reversed(values)), k=16)
        assert a == b
        assert a.estimate() == b.estimate()

    @given(value_lists, st.integers(1, 7))
    def test_merge_of_blocks_equals_global_sketch(self, values, num_blocks):
        direct = kmv_from_values(values, k=16)
        blocks = [values[i::num_blocks] for i in range(num_blocks)]
        merged = KMVSketch(16)
        for block in blocks:
            merged = merged.merge(kmv_from_values(block, k=16))
        assert merged == direct

    @given(value_lists, value_lists, value_lists)
    def test_merge_associative_and_commutative(self, xs, ys, zs):
        a, b, c = (kmv_from_values(v, k=16) for v in (xs, ys, zs))
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(st.lists(values_st, max_size=15))
    def test_exact_below_capacity(self, values):
        sketch = kmv_from_values(values, k=16)
        assert sketch.estimate() == distinct(values)

    def test_error_bound_at_scale(self):
        # 20k distinct ints at k=256: documented relative standard error
        # is ~1/sqrt(k-2) ~= 6%; this fixed input lands well inside 3x.
        sketch = kmv_from_values(range(20_000), k=256)
        estimate = sketch.estimate()
        assert abs(estimate - 20_000) / 20_000 < 0.18

    def test_hash_is_process_stable(self):
        # Pinned values: a PYTHONHASHSEED-dependent hash would change
        # these between runs (and change plans between runs with it).
        assert value_hash64("eng") == 0xF8EE870B7E30DE53
        assert value_hash64(7) == 0xA6633073FB0CB18E

    def test_mixed_types_hash_distinct(self):
        assert value_hash64(1) != value_hash64(1.0)
        assert value_hash64("1") != value_hash64(1)

    def test_rejects_mismatched_k(self):
        with pytest.raises(ValueError):
            KMVSketch(16).merge(KMVSketch(32))


class TestSpaceSavingSketch:
    @given(value_lists)
    def test_never_undercounts_and_bounded_overcount(self, values):
        sketch = spacesaving_from_values(values, capacity=8)
        true = {}
        for v in values:
            true[value_order_key(v)] = true.get(value_order_key(v), 0) + 1
        for value, count, error in sketch.items():
            actual = true[value_order_key(value)]
            assert count >= actual
            assert count - actual <= error
            assert error <= sketch.total / sketch.capacity

    @given(st.lists(values_st, max_size=40))
    def test_exact_below_capacity(self, values):
        sketch = spacesaving_from_values(values, capacity=64)
        true = {}
        for v in values:
            true[value_order_key(v)] = true.get(value_order_key(v), 0) + 1
        assert len(sketch.items()) == len(true)
        for value, count, error in sketch.items():
            assert count == true[value_order_key(value)]
            assert error == 0

    @given(value_lists, st.integers(1, 5))
    def test_merge_exact_while_under_capacity(self, values, num_blocks):
        # documented: merges are bit-identical to the global sketch while
        # no participating summary has hit capacity
        direct = spacesaving_from_values(values, capacity=512)
        merged = SpaceSavingSketch(512)
        for i in range(num_blocks):
            merged = merged.merge(
                spacesaving_from_values(values[i::num_blocks], capacity=512)
            )
        assert merged == direct

    @given(value_lists, value_lists)
    def test_merge_preserves_no_undercount(self, xs, ys):
        merged = spacesaving_from_values(xs, capacity=8).merge(
            spacesaving_from_values(ys, capacity=8)
        )
        true = {}
        for v in xs + ys:
            true[value_order_key(v)] = true.get(value_order_key(v), 0) + 1
        for value, count, _error in merged.items():
            assert count >= true[value_order_key(value)]
        assert merged.total == len(xs) + len(ys)

    @given(values_st, st.integers(1, 50))
    def test_weighted_add_equals_repeated_add(self, value, count):
        weighted = SpaceSavingSketch(8)
        weighted.add(value, count)
        repeated = SpaceSavingSketch(8)
        for _ in range(count):
            repeated.add(value)
        assert weighted == repeated

    def test_heavy_hitter_guarantee(self):
        # any value above total/capacity must be present in the summary
        values = ["hot"] * 500 + [f"cold{i}" for i in range(100)]
        sketch = spacesaving_from_values(values, capacity=16)
        assert sketch.estimate("hot") >= 500
        assert sketch.share("hot") >= 500 / sketch.total
        assert sketch.heavy_hitters(0.5)[0][0] == "hot"

    def test_untracked_value_share_is_none(self):
        sketch = spacesaving_from_values(range(100), capacity=4)
        assert sketch.share("never-seen") is None

    def test_eviction_deterministic(self):
        # min-count ties broken on canonical bytes, not insertion order
        a = SpaceSavingSketch(2)
        b = SpaceSavingSketch(2)
        for v in ("x", "y", "z"):
            a.add(v)
        for v in ("y", "x", "z"):
            b.add(v)
        assert a == b


class TestColumnStats:
    def test_observe_tracks_nulls_and_range(self):
        stats = ColumnStats(name="v")
        for value in (5, None, 1, 9, None):
            stats.observe(value)
        assert stats.count == 5 and stats.null_count == 2
        assert stats.min_value == 1 and stats.max_value == 9
        assert stats.non_null_fraction == pytest.approx(0.6)
        assert stats.ndv == 3.0

    def test_bool_not_treated_as_numeric_range(self):
        stats = ColumnStats(name="flag")
        stats.observe(True)
        assert stats.min_value is None and stats.max_value is None

    @given(st.lists(st.one_of(values_st, st.none()), max_size=120),
           st.integers(1, 4))
    def test_block_merge_equals_single_pass(self, values, num_blocks):
        direct = ColumnStats(name="c")
        for v in values:
            direct.observe(v)
        merged = ColumnStats(name="c")
        for i in range(num_blocks):
            block = ColumnStats(name="c")
            for v in values[i::num_blocks]:
                block.observe(v)
            merged = merged.merge(block)
        assert merged.count == direct.count
        assert merged.null_count == direct.null_count
        assert merged.min_value == direct.min_value
        assert merged.max_value == direct.max_value
        assert merged.ndv_sketch == direct.ndv_sketch

    def test_equality_selectivity_uses_heavy_hitters(self):
        stats = ColumnStats(name="k")
        for _ in range(80):
            stats.observe("hot")
        for i in range(20):
            stats.observe(f"c{i}")
        assert stats.selectivity("=", "hot") == pytest.approx(0.8)

    def test_range_selectivity_interpolates(self):
        stats = ColumnStats(name="v")
        for i in range(101):
            stats.observe(i)
        assert stats.selectivity("<", 25) == pytest.approx(0.25)
        assert stats.selectivity(">=", 25) == pytest.approx(0.75)
        assert stats.selectivity("<", -5) == 0.0
        assert stats.selectivity("<", 1000) == 1.0

    def test_unknown_op_neutral(self):
        stats = ColumnStats(name="v")
        stats.observe(1)
        assert stats.selectivity("like", "x") == 1.0


def small_warehouse():
    hdfs = HDFS(num_workers=3)
    metastore = Metastore(hdfs)
    schema = Schema.parse("k int, v string")
    table = metastore.create_table("t", schema)
    hdfs.write(f"{table.location}/part-0", schema,
               [(i % 4, f"v{i}") for i in range(40)], scale=100.0)
    hdfs.write(f"{table.location}/part-1", schema,
               [(9, "x")] * 10, scale=100.0)
    return hdfs, metastore, table


class TestCollectionAndFreshness:
    def test_collect_merges_files(self):
        hdfs, _metastore, table = small_warehouse()
        stats = collect_table_stats(hdfs, table)
        assert stats.row_count == 50
        assert stats.total_bytes == pytest.approx(table.logical_bytes(hdfs))
        k = stats.column("k")
        assert k.count == 50 and k.ndv == 5.0
        assert k.min_value == 0 and k.max_value == 9

    def test_basic_only_skips_rows(self):
        hdfs, _metastore, table = small_warehouse()
        stats = collect_table_stats(hdfs, table, with_columns=False)
        assert stats.row_count == 50
        assert not stats.has_column_stats
        # neutral by construction: no conjunct can shrink an estimate
        assert stats.conjunct_selectivity([("k", "=", 9)]) == 1.0

    def test_metastore_round_trip(self):
        hdfs, metastore, table = small_warehouse()
        stats = collect_table_stats(hdfs, table)
        epoch = metastore.stats_epoch
        metastore.put_table_stats(stats)
        assert metastore.stats_epoch == epoch + 1
        loaded = metastore.get_table_stats("T")  # case-insensitive
        assert loaded is stats
        assert loaded.column("K").ndv_sketch == stats.column("k").ndv_sketch

    def test_analyze_does_not_bump_catalog_version(self):
        hdfs, metastore, table = small_warehouse()
        version = metastore.version
        metastore.put_table_stats(collect_table_stats(hdfs, table))
        assert metastore.version == version

    def test_stale_after_new_file(self):
        hdfs, metastore, table = small_warehouse()
        metastore.put_table_stats(collect_table_stats(hdfs, table))
        hdfs.write(f"{table.location}/part-2", table.schema,
                   [(1, "new")], scale=100.0)
        assert metastore.get_table_stats("t") is None
        assert "t" in metastore.stats_tables()  # recorded but withheld

    def test_fingerprint_tracks_content(self):
        hdfs, _metastore, table = small_warehouse()
        before = table_fingerprint(hdfs, table.location)
        hdfs.delete(f"{table.location}/part-0")
        hdfs.write(f"{table.location}/part-0", table.schema,
                   [(1, "rewritten")], scale=100.0)
        assert table_fingerprint(hdfs, table.location) != before

    def test_truncate_drops_stats(self):
        hdfs, metastore, table = small_warehouse()
        metastore.put_table_stats(collect_table_stats(hdfs, table))
        epoch = metastore.stats_epoch
        metastore.truncate_table("t")
        assert metastore.get_table_stats("t") is None
        assert metastore.stats_tables() == []
        assert metastore.stats_epoch == epoch + 1

    def test_drop_table_drops_stats(self):
        hdfs, metastore, table = small_warehouse()
        metastore.put_table_stats(collect_table_stats(hdfs, table))
        metastore.drop_table("t")
        assert metastore.stats_tables() == []


class TestAnalyzeStatement:
    def test_analyze_basic_and_columns(self, local_session):
        basic = local_session.query("ANALYZE TABLE emp COMPUTE STATISTICS")
        table, rows, total_bytes, column_stats = basic.rows[0]
        assert (table, rows) == ("emp", 7)
        assert total_bytes == pytest.approx(
            local_session.metastore.get_table("emp").logical_bytes(
                local_session.hdfs),
            rel=0.01)
        assert column_stats == 0  # no column stats yet
        full = local_session.query(
            "ANALYZE TABLE emp COMPUTE STATISTICS FOR COLUMNS"
        )
        assert full.rows[0][3] == 5
        stats = local_session.metastore.get_table_stats("emp")
        assert stats.column("dept").null_count == 1
        assert stats.column("salary").max_value == 120.0

    @pytest.mark.parametrize("format_name", ["text", "orc", "sequence"])
    def test_analyze_reads_columns(self, format_name, monkeypatch):
        """ANALYZE observes each file a column at a time through
        ``scan_batch``: no row is derived, no batch becomes rows, and
        every column's stats equal a row walk's (each column sees its
        values in the same order)."""
        hdfs = HDFS(num_workers=3)
        metastore = Metastore(hdfs)
        schema = Schema.parse("k int, v string, x double, b boolean")
        table = metastore.create_table("t", schema, format_name=format_name)
        rows = [(i % 7, None if i % 5 == 0 else f"v{i % 11}",
                 i / 4, i % 3 == 0) for i in range(300)]
        parts = [rows[:150], rows[150:]]
        if format_name == "orc":  # several stripes per file
            monkeypatch.setattr(get_format("orc"), "stripe_rows", 64)
        for index, part in enumerate(parts):  # columns in, as an INSERT
            hdfs.write(f"{table.location}/part-{index}", schema,
                       ColumnBatch.from_rows(part), format_name=format_name)

        expected = {}  # the row walk ANALYZE made: per file, then merged
        for part in parts:
            per_file = {name: ColumnStats(name=name) for name in schema.names}
            for row in part:
                for name, value in zip(schema.names, row):
                    per_file[name].observe(value)
            for name, column_stats in per_file.items():
                expected[name] = (column_stats if name not in expected
                                  else expected[name].merge(column_stats))

        made = []
        for owner in (RowMajorStoredFile, OrcStoredFile):
            monkeypatch.setattr(owner, "_derive_rows",
                                lambda *args: made.append(args))
        monkeypatch.setattr(ColumnBatch, "to_rows",
                            lambda batch: made.append(batch))
        with connect(engine="local", hdfs=hdfs, metastore=metastore) as session:
            session.execute("ANALYZE TABLE t COMPUTE STATISTICS FOR COLUMNS")
        assert made == []
        stats = metastore.get_table_stats("t")
        for name, want in expected.items():
            got = stats.column(name)
            assert (got.count, got.null_count, got.min_value, got.max_value) \
                == (want.count, want.null_count, want.min_value, want.max_value)
            assert got.ndv_sketch == want.ndv_sketch
            assert got.heavy == want.heavy

    def test_session_stats_summary(self, local_session):
        local_session.execute("ANALYZE TABLE dept COMPUTE STATISTICS FOR COLUMNS")
        summary = local_session.stats("dept")
        assert summary["row_count"] == 3
        assert summary["columns"]["region"]["ndv"] == 2.0
        assert local_session.stats("emp") == {"table": "emp", "stats": None}
        assert set(local_session.stats()) == {"dept"}

    def test_insert_refreshes_stats(self, local_session):
        local_session.execute("ANALYZE TABLE emp COMPUTE STATISTICS FOR COLUMNS")
        assert local_session.metastore.get_table_stats("emp").has_column_stats
        local_session.execute(
            "CREATE TABLE emp2 (name string, salary double)"
        )
        local_session.execute(
            "INSERT OVERWRITE TABLE emp2 SELECT name, salary FROM emp"
        )
        # autogathered basic stats are fresh for the new data...
        stats = local_session.metastore.get_table_stats("emp2")
        assert stats is not None and stats.row_count == 7
        # ...but column sketches require an explicit ANALYZE
        assert not stats.has_column_stats

    def test_ctas_autogathers(self, local_session):
        local_session.execute(
            "CREATE TABLE eng AS SELECT name FROM emp WHERE dept = 'eng'"
        )
        stats = local_session.metastore.get_table_stats("eng")
        assert stats is not None and stats.row_count == 3

    def test_autogather_disabled(self, warehouse):
        hdfs, metastore = warehouse
        session = connect(engine="local", hdfs=hdfs, metastore=metastore,
                          conf={"repro.stats.auto": False})
        session.execute("CREATE TABLE c AS SELECT name FROM emp")
        assert session.metastore.get_table_stats("c") is None
