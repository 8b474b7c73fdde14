"""Tests for the map-side runtime operators and reduce logics."""

import functools

import pytest

from repro.common.errors import ExecutionError
from repro.common.kv import KeyValue
from repro.common.rows import DataType
from repro.exec.expressions import Const, InputRef
from repro.exec import expressions as bexpr
from repro.exec.mapper import ExecMapper, ExecReducer
from repro.exec.operators import (
    FileSinkDesc,
    FilterDesc,
    LimitDesc,
    ListCollector,
    MapGroupByDesc,
    MapJoinDesc,
    ReduceSinkDesc,
    SelectDesc,
    build_pipeline,
    OperatorContext,
)
from repro.exec.reduce import (
    ReduceAggregateDesc,
    ReduceDistinctDesc,
    ReduceJoinDesc,
    ReduceSortDesc,
    group_sorted_pairs,
    key_comparator,
    sort_pairs,
)
from repro.sql.functions import AGGREGATES


def ref(i, dtype=DataType.BIGINT):
    return InputRef(i, dtype)


class TestMapPipeline:
    def test_filter_select_filesink(self):
        mapper = ExecMapper(
            [
                FilterDesc(bexpr.Comparison(">", ref(0), Const(1, DataType.BIGINT))),
                SelectDesc([ref(1), ref(0)]),
                FileSinkDesc(),
            ],
            collector=None,
            num_partitions=1,
        )
        mapper.process_batch([(1, "a"), (2, "b"), (3, "c")])
        result = mapper.close()
        assert result.output == [("b", 2), ("c", 3)]
        assert result.rows_read == 3

    def test_filter_drops_null_predicate(self):
        mapper = ExecMapper(
            [FilterDesc(bexpr.Comparison("=", ref(0), ref(1))), FileSinkDesc()],
            collector=None, num_partitions=1,
        )
        mapper.process_batch([(None, 1), (1, 1)])
        assert mapper.close().output == [(1, 1)]

    def test_reduce_sink_partitions_and_tags(self):
        collector = ListCollector()
        mapper = ExecMapper(
            [ReduceSinkDesc(key_expressions=[ref(0)], value_expressions=[ref(1)], tag=1)],
            collector=collector, num_partitions=4,
        )
        mapper.process_batch([(1, "x"), (2, "y")])
        result = mapper.close()
        assert result.kv_pairs == 2
        assert result.kv_bytes > 0
        partitions = {p for p, _pair in collector.pairs}
        assert partitions <= {0, 1, 2, 3}
        assert all(pair.value[0] == 1 for _p, pair in collector.pairs)

    def test_limit_operator(self):
        mapper = ExecMapper(
            [LimitDesc(2), FileSinkDesc()], collector=None, num_partitions=1
        )
        mapper.process_batch([(i,) for i in range(10)])
        assert len(mapper.close().output) == 2

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ExecutionError):
            build_pipeline([], OperatorContext())

    def test_pipeline_must_end_in_sink(self):
        with pytest.raises(ExecutionError):
            build_pipeline([FilterDesc(Const(True, DataType.BOOLEAN))], OperatorContext())


class TestMapGroupBy:
    def make(self, max_groups=100):
        return ExecMapper(
            [
                MapGroupByDesc(
                    key_expressions=[ref(0)],
                    aggregates=[(AGGREGATES["sum"], ref(1)), (AGGREGATES["count"], None)],
                    max_groups_in_memory=max_groups,
                ),
                FileSinkDesc(),
            ],
            collector=None, num_partitions=1,
        )

    def test_partial_aggregation(self):
        mapper = self.make()
        mapper.process_batch([("a", 1), ("b", 5), ("a", 2)])
        rows = sorted(mapper.close().output)
        # rows are key + flattened partials: sum partial (value,), count (n,)
        assert rows == [("a", 3, 2), ("b", 5, 1)]

    def test_flush_on_pressure(self):
        mapper = self.make(max_groups=2)
        mapper.process_batch([("a", 1), ("b", 1), ("c", 1), ("a", 1)])
        rows = mapper.close().output
        # 'a' may appear twice (flushed then re-created): partial results
        total_for_a = sum(row[1] for row in rows if row[0] == "a")
        assert total_for_a == 2
        assert len(rows) >= 3

    def test_count_star_sentinel(self):
        mapper = ExecMapper(
            [
                MapGroupByDesc(
                    key_expressions=[],
                    aggregates=[(AGGREGATES["count"], None)],
                ),
                FileSinkDesc(),
            ],
            collector=None, num_partitions=1,
        )
        mapper.process_batch([(None,), (None,), (1,)])
        assert mapper.close().output == [(3,)]


class TestMapJoin:
    def run_join(self, join_type="inner", swap=False, probe_rows=None):
        desc = MapJoinDesc(
            small_location="/small",
            probe_key_expressions=[ref(0)],
            build_key_expressions=[ref(0)],
            join_type=join_type,
            small_width=2,
            swap_output=swap,
        )
        mapper = ExecMapper(
            [desc, FileSinkDesc()],
            collector=None,
            num_partitions=1,
            small_tables={"/small": [(1, "one"), (2, "two"), (2, "deux")]},
        )
        mapper.process_batch(probe_rows or [(1, "L1"), (2, "L2"), (9, "L9")])
        return mapper.close().output

    def test_inner(self):
        rows = self.run_join()
        assert (1, "L1", 1, "one") in rows
        assert (2, "L2", 2, "two") in rows and (2, "L2", 2, "deux") in rows
        assert not any(row[0] == 9 for row in rows)

    def test_left_outer(self):
        rows = self.run_join(join_type="left")
        assert (9, "L9", None, None) in rows

    def test_swap_output_order(self):
        rows = self.run_join(swap=True)
        assert (1, "one", 1, "L1") in rows

    def test_null_keys_never_match(self):
        rows = self.run_join(probe_rows=[(None, "LN")])
        assert rows == []

    def test_missing_broadcast_table(self):
        desc = MapJoinDesc(
            small_location="/ghost",
            probe_key_expressions=[ref(0)],
            build_key_expressions=[ref(0)],
        )
        with pytest.raises(ExecutionError):
            ExecMapper([desc, FileSinkDesc()], None, 1, small_tables={})


def _reduced(reducer, *groups):
    """Output rows of *reducer* over ``(key, [value, ...])`` groups."""
    pairs = [KeyValue(key, value) for key, values in groups for value in values]
    return reducer.run(pairs).output


class TestReduceLogics:
    """The reference (row) logics; ``test_column_reduce.py`` checks the
    engines' columnar reduce against them."""

    def test_aggregate_merge_partials(self):
        reducer = ExecReducer(
            ReduceAggregateDesc(
                key_arity=1,
                aggregates=[AGGREGATES["sum"], AGGREGATES["avg"]],
                inputs_are_partials=True,
                partial_arities=[1, 2],
            ),
            [FileSinkDesc()],
        )
        # values: (tag, sum_partial, avg_sum, avg_count)
        rows = _reduced(reducer, (("k",), [(0, 3, 3.0, 2), (0, 4, 5.0, 1)]))
        assert rows == [("k", 7, pytest.approx(8.0 / 3))]

    def test_aggregate_raw_values(self):
        reducer = ExecReducer(
            ReduceAggregateDesc(
                key_arity=1,
                aggregates=[AGGREGATES["count_distinct"]],
                inputs_are_partials=False,
            ),
            [FileSinkDesc()],
        )
        rows = _reduced(reducer, (("k",), [(0, "x"), (0, "x"), (0, "y")]))
        assert rows == [("k", 2)]

    def test_join_inner_and_left(self):
        for join_type, expect_unmatched in (("inner", False), ("left", True)):
            reducer = ExecReducer(
                ReduceJoinDesc(join_type=join_type, left_width=2, right_width=1),
                [FileSinkDesc()],
            )
            rows = _reduced(
                reducer,
                ((1,), [(0, 1, "L"), (1, "R")]),
                ((2,), [(0, 2, "Lonely")]),
            )
            assert (1, "L", "R") in rows
            assert ((2, "Lonely", None) in rows) == expect_unmatched

    def test_sort_identity(self):
        reducer = ExecReducer(ReduceSortDesc(), [FileSinkDesc()])
        rows = _reduced(reducer, ((1,), [(0, "a", 1), (0, "b", 2)]))
        assert rows == [("a", 1), ("b", 2)]

    def test_distinct(self):
        reducer = ExecReducer(ReduceDistinctDesc(key_arity=2), [FileSinkDesc()])
        assert _reduced(reducer, (("a", 1), [(0,), (0,)])) == [("a", 1)]


class TestSortHelpers:
    def test_sort_pairs_ascending_nulls_first(self):
        pairs = [KeyValue((k,), (0,)) for k in (3, None, 1)]
        ordered = [pair.key[0] for pair in sort_pairs(pairs)]
        assert ordered == [None, 1, 3]

    def test_sort_pairs_directions(self):
        pairs = [KeyValue((k,), (0,)) for k in (1, 3, 2)]
        ordered = [pair.key[0] for pair in sort_pairs(pairs, directions=[False])]
        assert ordered == [3, 2, 1]

    def test_multi_key_mixed_directions(self):
        pairs = [KeyValue((a, b), ()) for a, b in ((1, "x"), (1, "a"), (0, "z"))]
        ordered = [pair.key for pair in sort_pairs(pairs, directions=[True, False])]
        assert ordered == [(0, "z"), (1, "x"), (1, "a")]

    def test_group_sorted_pairs(self):
        pairs = sort_pairs(
            [KeyValue((k,), (k * 10,)) for k in (2, 1, 2, 1, 1)]
        )
        groups = list(group_sorted_pairs(pairs))
        assert [(key, len(values)) for key, values in groups] == [((1,), 3), ((2,), 2)]

    def test_key_comparator_length_tiebreak(self):
        compare = key_comparator()
        assert compare((1,), (1, 2)) < 0


class TestSortFastPathEquivalence:
    """The native tuple-sort fast path must order exactly like the Hive
    comparator (the ground truth), including the cases that force the
    fallback: NULLs, bools, and incomparable type mixes."""

    def _comparator_order(self, pairs, directions=None):
        compare = key_comparator(directions)
        return sorted(
            pairs,
            key=functools.cmp_to_key(lambda a, b: compare(a.key, b.key)),
        )

    def _assert_equivalent(self, keys, directions=None):
        pairs = [KeyValue(key, (i,)) for i, key in enumerate(keys)]
        fast = [p.key for p in sort_pairs(list(pairs), directions)]
        slow = [p.key for p in self._comparator_order(list(pairs), directions)]
        assert fast == slow, (keys, directions)

    def test_native_sortable_int_keys(self):
        self._assert_equivalent([(3,), (1,), (2,), (1,)])
        self._assert_equivalent([(3,), (1,), (2,)], directions=[False])

    def test_string_keys_both_directions(self):
        keys = [("b", 2), ("a", 9), ("b", 1), ("a", 9)]
        self._assert_equivalent(keys)
        self._assert_equivalent(keys, directions=[False, False])

    def test_null_keys_force_comparator(self):
        self._assert_equivalent([(None,), (2,), (None,), (1,)])
        self._assert_equivalent([(None,), (2,), (1,)], directions=[False])

    def test_bool_keys_force_comparator(self):
        self._assert_equivalent([(True,), (False,), (True,)])

    def test_ragged_arity_forces_comparator(self):
        # length tiebreak is NOT direction-flipped, so ragged keys must
        # skip the native reverse sort and use the comparator
        keys = [(1, 2), (1,), (0,), (1, 1)]
        self._assert_equivalent(keys)
        self._assert_equivalent(keys, directions=[False, False])

    def test_stability_preserved(self):
        pairs = [KeyValue((1,), (i,)) for i in range(5)]
        assert [p.value for p in sort_pairs(list(pairs))] == \
            [(i,) for i in range(5)]
