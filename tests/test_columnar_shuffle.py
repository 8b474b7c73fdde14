"""The columnar shuffle against its per-pair references.

The engines move ``PairRun`` columns and ``Segments``; the ``local``
oracle moves ``KeyValue`` objects.  Three halves, each checked against
the per-value code it replaced in production (which the oracle still
runs):

* the sink — bulk per-column sizes, key bytes and partition ids vs
  ``fields_size`` / ``serialize_fields`` / ``crc32`` per value;
* routing — ``SendPartitionList.add_many``, ``MapOutputCollector`` and
  ``SkewRoutingCollector.collect_batch`` vs one ``add`` / ``collect``
  per pair (``shuffle_reference.ReferenceSendPartitionList``);
* the reduce — ``reduce_segments`` vs ``sort_pairs`` →
  ``group_sorted_pairs`` → the row ``ReduceLogic``\\ s, rows equal with
  ``==`` (floats included: accumulation order is part of the contract).
"""

import functools
import math
import struct
from array import array
from collections import Counter
from zlib import crc32

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HDFS, Metastore, connect, get_metrics
from repro.bench import fresh_hibench, fresh_tpch
from repro.common.errors import ExecutionError
from repro.common.kv import (
    KeyValue,
    bulk_field_bytes,
    bulk_field_sizes,
    exact_field_bytes,
    exact_field_sizes,
    fields_size,
    kv_size,
    serialize_fields,
)
from repro.common.rows import ColumnBatch, Schema, pack_column
from repro.engines.base import MapOutputCollector
from repro.engines.datampi.buffers import SendPartitionList
from repro.exec.column_reduce import sort_permutation
from repro.exec.expressions import Arithmetic, Const, InputRef
from repro.exec.mapper import ExecMapper, ExecReducer
from repro.exec.operators import (
    Collector,
    FileSinkDesc,
    OperatorContext,
    ReduceSinkDesc,
    SkewRouteDesc,
    SkewRoutingCollector,
)
from repro.exec.reduce import (
    ReduceAggregateDesc,
    ReduceDistinctDesc,
    ReduceJoinDesc,
    ReduceSortDesc,
    key_comparator,
)
from repro.exec.shuffle import Segments, emit_run
from repro.sql.functions import AGGREGATES
from repro.workloads.hibench import (
    HIBENCH_AGGREGATE,
    HIBENCH_JOIN,
    hibench_ddl,
)
from repro.workloads.tpch import tpch_query

from .shuffle_reference import (
    ReferenceSendPartitionList,
    RunCollector,
    pairs_in,
    pairs_of,
    run_of,
    segments_of,
)

# ---------------------------------------------------------------------------
# (a) the sink: bulk sizes, key bytes, partition ids
# ---------------------------------------------------------------------------

_TEXT = st.one_of(
    st.text(alphabet="abcXYZ09 _", max_size=12),          # ASCII, empty included
    st.text(alphabet="aé日ü😀", min_size=1, max_size=6),   # multi-byte UTF-8
)
_INTS = st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)
_FLOATS = st.floats(allow_nan=False)
_MIXED = st.one_of(_TEXT, _INTS, _FLOATS, st.booleans(), st.none())


@st.composite
def _column(draw, size):
    """One column of *size* values: homogeneous (packed to a typed array
    when a scan would pack it), or any mix."""
    values = st.one_of(
        st.lists(_TEXT, min_size=size, max_size=size),
        st.lists(_INTS, min_size=size, max_size=size),
        st.lists(_FLOATS, min_size=size, max_size=size),
        st.lists(st.booleans(), min_size=size, max_size=size),
        st.lists(st.none(), min_size=size, max_size=size),
        st.lists(_MIXED, min_size=size, max_size=size),
    )
    column = draw(values)
    return pack_column(column) if draw(st.booleans()) else column


@st.composite
def _columns(draw, max_width=3):
    size = draw(st.integers(min_value=1, max_value=12))
    key_width = draw(st.integers(min_value=0, max_value=max_width))
    value_width = draw(st.integers(min_value=0, max_value=max_width))
    keys = [draw(_column(size)) for _ in range(key_width)]
    values = [draw(_column(size)) for _ in range(value_width)]
    return size, keys, values


def _pairs(size, keys, values, tag):
    key_rows = list(zip(*keys)) if keys else [()] * size
    value_rows = list(zip(*values)) if values else [()] * size
    return [KeyValue(key, (tag,) + value)
            for key, value in zip(key_rows, value_rows)]


@settings(max_examples=300, deadline=None)
@given(_columns(), st.integers(min_value=1, max_value=7),
       st.integers(min_value=0, max_value=3))
def test_emit_run_matches_the_per_value_serde(columns, num_partitions, tag):
    size, keys, values = columns
    partition_ids, run = emit_run(keys, values, tag, size, num_partitions)
    pairs = _pairs(size, keys, values, tag)
    assert len(run) == len(partition_ids) == size
    assert run.sizes == [
        len(serialize_fields(pair.key)) - 1 + fields_size(pair.value)
        for pair in pairs
    ] == [kv_size(pair) for pair in pairs]
    assert partition_ids == [
        (crc32(serialize_fields(pair.key)) & 0x7FFFFFFF) % num_partitions
        for pair in pairs
    ]
    assert pairs_in(run) == pairs


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10).flatmap(_column))
def test_bulk_passes_match_the_exact_ones(column):
    def per_field(sizes):
        fixed, varying = sizes
        return [fixed + extra for extra in varying or [0] * len(column)]

    for key in (False, True):
        sizes = bulk_field_sizes(column, key)
        if sizes is not None:
            assert per_field(sizes) == per_field(exact_field_sizes(column, key))
    data = bulk_field_bytes(column)
    if data is not None:
        assert data == exact_field_bytes(column)
    assert per_field(exact_field_sizes(column, True)) \
        == per_field(exact_field_sizes(column, False)) \
        == [fields_size((value,)) - 1 for value in column]


def test_type_sets_decide_what_a_bulk_pass_may_assume():
    # bool is not the 9-byte int; a non-ASCII string is longer than len()
    assert bulk_field_sizes([True, False]) == (2, None)
    assert bulk_field_sizes([1, True]) == (0, [9, 2])
    assert bulk_field_sizes(["é", "e"]) == (3, [2, 1])
    assert bulk_field_sizes(array("q", [1, 2])) == (9, None)
    assert bulk_field_sizes(array("d", [1.0])) == (9, None)
    assert bulk_field_sizes([1, None, 2.0]) == (0, [9, 1, 9])
    # a string among fixed-width values, or an exotic type: per value
    assert bulk_field_sizes(["a", None]) is None
    assert bulk_field_sizes([1, object()]) is None
    assert bulk_field_bytes(["a", None]) is None
    # a nullable int key is encoded per value (ints must be range-checked)
    assert bulk_field_sizes([1, None], key=True) is None


def _sink_pairs(descriptors, batch, num_partitions=3):
    collector = RunCollector()
    mapper = ExecMapper(descriptors, collector, num_partitions, vectorized=True)
    mapper.process_batch(batch)
    result = mapper.close()
    pairs, partitions = [], []
    for partition_ids, run in collector.batches:
        pairs += pairs_in(run)
        partitions += partition_ids
        assert run.sizes == [kv_size(pair) for pair in pairs[-len(run):]]
    assert result.kv_pairs == len(pairs)
    assert result.kv_bytes == sum(map(kv_size, pairs))
    assert mapper.context.kv_size_histogram == Counter(map(kv_size, pairs))
    return partitions, pairs


_ROWS = [
    (i, f"k{i % 4}", i / 4.0, None if i % 3 == 0 else f"ü{i}", i % 2 == 0)
    for i in range(10)
]


@pytest.mark.parametrize("selection", [
    None, range(2, 7), range(0, 10), [7, 2, 2, 9], [5], range(0, 10, 3),
], ids=repr)
def test_sink_gathers_windows_and_selections(selection):
    sink = ReduceSinkDesc(
        [InputRef(1), InputRef(0)], [InputRef(0), InputRef(3), InputRef(2), InputRef(4)],
        tag=1,
    )
    batch = ColumnBatch.from_rows(_ROWS)
    if selection is not None:
        batch = batch.with_selection(selection)
    rows = batch.to_rows()
    partitions, pairs = _sink_pairs([sink], batch)
    assert pairs == [
        KeyValue((row[1], row[0]), (1, row[0], row[3], row[2], row[4]))
        for row in rows
    ]
    assert partitions == [
        (crc32(serialize_fields(pair.key)) & 0x7FFFFFFF) % 3 for pair in pairs
    ]


def test_computed_key_is_projected_then_takes_the_same_path():
    sink = ReduceSinkDesc(
        [Arithmetic("%", InputRef(0), Const(3))], [InputRef(1), Const("c")], tag=0
    )
    for vectorized_batch in (ColumnBatch.from_rows(_ROWS),
                             ColumnBatch.from_rows(_ROWS).with_selection([1, 8, 3])):
        rows = vectorized_batch.to_rows()
        _partitions, pairs = _sink_pairs([sink], vectorized_batch)
        assert pairs == [KeyValue((row[0] % 3,), (0, row[1], "c")) for row in rows]


# ---------------------------------------------------------------------------
# bugfix: engines and oracle raise the same error on the same bad pair
# ---------------------------------------------------------------------------

_ROLES = [False, True]


def _emit(descriptors, rows, vectorized, num_partitions):
    mapper = ExecMapper(descriptors, RunCollector(), num_partitions,
                        vectorized=vectorized)
    mapper.process_batch(ColumnBatch.from_rows(rows) if vectorized else rows)
    return mapper.close()


@pytest.mark.parametrize("vectorized", _ROLES, ids=["oracle", "engines"])
@pytest.mark.parametrize("num_partitions", [1, 4])
class TestBadPairs:
    def test_key_string_over_64k(self, vectorized, num_partitions):
        sink = ReduceSinkDesc([InputRef(0)], [InputRef(0)], tag=0)
        with pytest.raises(ExecutionError, match="string field longer than 64 KiB"):
            _emit([sink], [("x" * 70000,)], vectorized, num_partitions)
        # multi-byte: 30000 characters, 90000 bytes
        with pytest.raises(ExecutionError, match="string field longer than 64 KiB"):
            _emit([sink], [("ok",), ("日" * 30000,)], vectorized, num_partitions)
        # a long *value* is only sized, on both sides
        sink = ReduceSinkDesc([InputRef(1)], [InputRef(0)], tag=0)
        result = _emit([sink], [("x" * 70000, 1)], vectorized, num_partitions)
        assert result.kv_bytes == 1 + 9 + 1 + 9 + 3 + 70000

    def test_key_arity_over_255(self, vectorized, num_partitions):
        sink = ReduceSinkDesc([InputRef(0)] * 256, [], tag=0)
        with pytest.raises(ExecutionError, match="arity > 255"):
            _emit([sink], [(1,)], vectorized, num_partitions)
        sink = ReduceSinkDesc([InputRef(0)] * 255, [], tag=0)
        assert _emit([sink], [(1,)], vectorized, num_partitions).kv_pairs == 1

    def test_key_int_beyond_64_bits_and_exotic_types(self, vectorized, num_partitions):
        sink = ReduceSinkDesc([InputRef(0)], [], tag=0)
        with pytest.raises(struct.error):
            _emit([sink], [(1,), (2 ** 63,)], vectorized, num_partitions)
        with pytest.raises(ExecutionError, match="unsupported field type"):
            _emit([sink], [(1,), (b"raw",)], vectorized, num_partitions)


@pytest.mark.parametrize("engine", ["local", "hadoop", "datampi", "llap"])
@pytest.mark.parametrize("reducers", ["one", "many"])
def test_long_key_raises_the_serde_error_on_every_engine(engine, reducers):
    hdfs = HDFS(num_workers=3)
    metastore = Metastore(hdfs)
    schema = Schema.parse("k string, v int")
    table = metastore.create_table("t", schema, format_name="sequence")
    hdfs.write(f"{table.location}/p0", schema,
               [("x" * 70000, 1), ("y", 2)], format_name="sequence")
    conf = {"hive.exec.reducers.bytes.per.reducer": 1} if reducers == "many" else {}
    with connect(engine=engine, hdfs=hdfs, metastore=metastore, conf=conf) as session:
        with pytest.raises(ExecutionError, match="string field longer than 64 KiB"):
            session.query("SELECT k, count(*) FROM t GROUP BY k")


# ---------------------------------------------------------------------------
# (b) routing segments: SPL, map output buckets, skew routing
# ---------------------------------------------------------------------------

def _numbered_run(sizes, first=0):
    """A run whose pair *i* has key ``(first + i,)`` and wire size
    ``sizes[i]`` (sizes are what routing reads; they need not be real)."""
    run = run_of([KeyValue((first + i,), (0, "v")) for i in range(len(sizes))])
    run.sizes = list(sizes)
    return run


@st.composite
def _batches(draw):
    num_partitions = draw(st.integers(min_value=1, max_value=7))
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        sizes = draw(st.lists(st.integers(min_value=11, max_value=90),
                              min_size=1, max_size=24))
        ids = draw(st.lists(st.integers(0, num_partitions - 1),
                            min_size=len(sizes), max_size=len(sizes)))
        batches.append((ids, sizes))
    return num_partitions, batches


def _spl_outcomes(num_partitions, batches, capacity):
    """(closed, drained) as ``(partition, keys, bytes)`` lists from the
    reference per-pair SPL and from ``add_many``."""
    reference = ReferenceSendPartitionList(num_partitions, capacity)
    spl = SendPartitionList(num_partitions, capacity)
    closed = []
    first = 0
    for ids, sizes in batches:
        run = _numbered_run(sizes, first)
        for offset, (partition, size) in enumerate(zip(ids, sizes)):
            reference.add(partition, first + offset, size)
        before = len(closed)
        spl.add_many(list(ids), run, closed.append)
        assert len(closed) - before <= len(sizes)
        first += len(sizes)
    assert spl.bytes_added == sum(sum(sizes) for _ids, sizes in batches)

    def shape(buffers):
        return [
            (b.partition, [pair.key[0] for pair in pairs_of(b.segments)],
             b.actual_bytes)
            for b in buffers
        ]

    return (reference.closed, reference.drain()), (shape(closed), shape(spl.drain()))


@settings(max_examples=300, deadline=None)
@given(_batches(), st.one_of(
    st.integers(min_value=1, max_value=400).map(float),
    st.floats(min_value=0.5, max_value=400.0),
))
def test_add_many_closes_the_buffers_per_pair_add_closes(spec, capacity):
    num_partitions, batches = spec
    expected, got = _spl_outcomes(num_partitions, batches, capacity)
    assert got == expected


@pytest.mark.parametrize("num_partitions", [1, 3])
def test_buffers_close_on_the_first_a_middle_and_the_last_pair(num_partitions):
    sizes = [40, 30, 30, 20, 50, 30]
    ids = [i % num_partitions for i in range(len(sizes))]
    one = [size for size, partition in zip(sizes, ids) if partition == 0]
    capacities = (
        one[0],                # closes on the first pair
        one[0] + 0.5,          # a float capacity between two byte counts
        sum(one[:-1]) + 1,     # closes on the last pair
        sum(one),              # ... exactly
        sum(one) + 1,          # never closes: everything is drained
    )
    for capacity in capacities:
        expected, got = _spl_outcomes(num_partitions, [(ids, sizes)] * 2, capacity)
        assert got == expected, capacity
    closed_first = _spl_outcomes(num_partitions, [(ids, sizes)], one[0])[1][0]
    assert closed_first[0] == (0, [0], one[0])


def test_closings_are_ordered_by_emit_position_not_by_partition():
    # partition 1 closes on pair 1, partition 0 on pair 2: emit order
    closed = []
    spl = SendPartitionList(2, 50.0)
    spl.add_many([0, 1, 0, 1], _numbered_run([30, 60, 30, 10]), closed.append)
    assert [(b.partition, b.actual_bytes) for b in closed] == [(1, 60), (0, 60)]
    assert [(b.partition, b.actual_bytes) for b in spl.drain()] == [(1, 10)]


@settings(max_examples=150, deadline=None)
@given(_batches())
def test_map_output_collector_buckets_like_per_pair_collect(spec):
    num_partitions, batches = spec
    collector = MapOutputCollector(num_partitions)
    expected = [[] for _ in range(num_partitions)]
    nbytes = [0] * num_partitions
    first = 0
    for ids, sizes in batches:
        collector.collect_batch(list(ids), _numbered_run(sizes, first))
        for offset, (partition, size) in enumerate(zip(ids, sizes)):
            expected[partition].append(first + offset)
            nbytes[partition] += size
        first += len(sizes)
    assert [[pair.key[0] for pair in pairs_of(segments)]
            for segments in collector.partitions] == expected
    assert [len(segments) for segments in collector.partitions] == \
        [len(keys) for keys in expected]
    assert collector.partition_bytes == nbytes
    assert collector.total_bytes == sum(nbytes)


class _Stream(Collector):
    """Records the (partition, key, size) stream either entry point sees."""

    def __init__(self):
        self.stream = []

    def collect(self, partition, pair):
        self.stream.append((partition, pair.key, pair.serialized_size()))

    def collect_batch(self, partition_ids, run):
        assert len(partition_ids) == len(run)
        self.stream += [
            (partition, pair.key, size) for partition, pair, size
            in zip(partition_ids, pairs_in(run), run.sizes)
        ]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["split", "replicate"]),
    st.integers(min_value=1, max_value=6),
    st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      min_size=1, max_size=15), min_size=1, max_size=3),
)
def test_skew_routing_of_a_run_matches_per_pair_routing(mode, num_partitions,
                                                        batches):
    desc = SkewRouteDesc(heavy_keys=((1,), (4,)), mode=mode)
    outcomes = []
    for columnar in (False, True):
        inner = _Stream()
        context = OperatorContext(collector=inner, num_partitions=num_partitions)
        router = SkewRoutingCollector(desc, inner, context)
        for batch in batches:
            pairs = [KeyValue((key,), (0, f"v{key}" * (key + 1)))
                     for key, _partition in batch]
            ids = [partition % num_partitions for _key, partition in batch]
            if columnar:
                router.collect_batch(ids, run_of(pairs))
            else:
                for partition, pair in zip(ids, pairs):
                    router.collect(partition, pair)
        outcomes.append((inner.stream, context.kv_pairs_out,
                         context.kv_bytes_out, dict(context.kv_size_histogram)))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# (c) the columnar reduce vs the row logics
# ---------------------------------------------------------------------------

_KEY_PART = st.one_of(
    st.integers(-3, 3), st.sampled_from(["a", "b", "é"]),
    st.sampled_from([0.5, 1.0, -2.0]), st.booleans(), st.none(),
)
_CLEAN_PART = st.one_of(st.integers(-3, 3))


@st.composite
def _keys(draw, size, arity):
    """*size* key tuples: per position either comparable values only or
    anything (NULLs, bools, incomparable str/int mixes)."""
    parts = [
        draw(st.lists(_CLEAN_PART if draw(st.booleans()) else _KEY_PART,
                      min_size=size, max_size=size))
        for _ in range(arity)
    ]
    return list(zip(*parts)) if arity else [()] * size


def _reduce_both(desc, pairs, directions=None, packed=False):
    """Output rows of the reference and of the columnar reduce — or the
    ``TypeError`` an incomparable key mix (``'a' < 0``) raises from the
    Hive comparator, which both must raise alike."""
    outputs = []
    for vectorized in (False, True):
        reducer = ExecReducer(desc, [FileSinkDesc()], vectorized=vectorized)
        shuffle_input = segments_of(pairs, packed) if vectorized else list(pairs)
        try:
            result = reducer.run(shuffle_input, directions)
        except TypeError:
            outputs.append(TypeError)
            continue
        assert isinstance(result.output, ColumnBatch) == vectorized
        outputs.append(result.output.to_rows() if vectorized else result.output)
    return outputs


def _assert_same_rows(outputs):
    reference, columnar = outputs
    assert columnar == reference
    if reference is not TypeError:
        # == on tuples lets 1 == 1.0 == True through; types must agree too
        assert [list(map(type, row)) for row in columnar] == \
            [list(map(type, row)) for row in reference]


_DIRECTIONS = st.one_of(
    st.none(), st.lists(st.booleans(), min_size=0, max_size=3)
)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 14), st.integers(0, 3), _DIRECTIONS,
       st.booleans())
def test_sort_and_distinct_match_the_row_logics(data, size, arity, directions,
                                                packed):
    keys = data.draw(_keys(size, arity))
    pairs = [KeyValue(key, (0, i, f"v{i}")) for i, key in enumerate(keys)]
    _assert_same_rows(_reduce_both(ReduceSortDesc(), pairs, directions,
                                   packed=packed))
    _assert_same_rows(_reduce_both(ReduceDistinctDesc(key_arity=arity), pairs,
                                   directions, packed=packed))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 14), st.integers(1, 2),
       st.sampled_from(["inner", "left"]), st.booleans())
def test_join_matches_the_row_logic(data, size, arity, join_type, packed):
    keys = data.draw(_keys(size, arity))
    tags = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    pairs = [
        KeyValue(key, (0, i, f"L{i}") if tag == 0 else (1, float(i)))
        for i, (key, tag) in enumerate(zip(keys, tags))
    ]
    desc = ReduceJoinDesc(join_type=join_type, left_width=2, right_width=1)
    _assert_same_rows(_reduce_both(desc, pairs, packed=packed))


_NUMBER = st.one_of(
    st.none(), st.integers(-5, 5),
    st.floats(min_value=-1e16, max_value=1e16, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 14), st.integers(0, 2), st.booleans())
def test_raw_aggregates_match_the_row_logic(data, size, arity, packed):
    keys = data.draw(_keys(size, arity))
    names = ["count", "sum", "avg", "min", "max", "count_distinct"]
    values = [
        data.draw(st.lists(_NUMBER, min_size=size, max_size=size))
        for _ in names
    ]
    pairs = [KeyValue(key, (0,) + row) for key, row in zip(keys, zip(*values))]
    desc = ReduceAggregateDesc(
        key_arity=arity, aggregates=[AGGREGATES[name] for name in names],
        inputs_are_partials=False,
    )
    _assert_same_rows(_reduce_both(desc, pairs, packed=packed))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 14), st.integers(0, 2), st.booleans())
def test_partial_aggregates_match_the_row_logic(data, size, arity, packed):
    keys = data.draw(_keys(size, arity))
    number = st.one_of(st.integers(-5, 5),
                       st.floats(min_value=-1e16, max_value=1e16, allow_nan=False))
    # partial tuples: count (n), sum (s | NULL), avg (s, n), min, max
    partials = st.tuples(
        st.integers(0, 9), st.one_of(st.none(), number),
        st.floats(min_value=-1e16, max_value=1e16, allow_nan=False),
        st.integers(0, 9), st.one_of(st.none(), number),
        st.one_of(st.none(), number),
    )
    rows = data.draw(st.lists(partials, min_size=size, max_size=size))
    pairs = [KeyValue(key, (0,) + row) for key, row in zip(keys, rows)]
    names = ["count", "sum", "avg", "min", "max"]
    desc = ReduceAggregateDesc(
        key_arity=arity, aggregates=[AGGREGATES[name] for name in names],
        inputs_are_partials=True, partial_arities=[1, 1, 2, 1, 1],
    )
    _assert_same_rows(_reduce_both(desc, pairs, packed=packed))


def test_aggregates_add_left_to_right_not_compensated():
    """``sum()`` over floats is compensated from Python 3.12 on: it
    returns 2.0 here, ``((1e16 + 1.0) + -1e16) + 1.0`` is 1.0 — and 1.0
    is what ``Aggregate.merge`` computes on the oracle."""
    shaped = [1e16, 1.0, -1e16, 1.0]
    left_to_right = ((0.0 + 1e16 + 1.0) + -1e16) + 1.0
    assert left_to_right == 1.0
    assert math.fsum(shaped) == 2.0  # what a compensated kernel would return
    pairs = [KeyValue(("k",), (0, value, value, 1)) for value in shaped]
    desc = ReduceAggregateDesc(
        key_arity=1, aggregates=[AGGREGATES["sum"], AGGREGATES["avg"]],
        inputs_are_partials=True, partial_arities=[1, 2],
    )
    outputs = _reduce_both(desc, pairs)
    _assert_same_rows(outputs)
    assert outputs[1] == [("k", left_to_right, left_to_right / 4)]
    raw = ReduceAggregateDesc(
        key_arity=1, aggregates=[AGGREGATES["sum"], AGGREGATES["avg"]],
        inputs_are_partials=False,
    )
    pairs = [KeyValue(("k",), (0, value, value)) for value in shaped]
    outputs = _reduce_both(raw, pairs, packed=True)
    _assert_same_rows(outputs)
    assert outputs[1] == [("k", left_to_right, left_to_right / 4)]


def test_global_aggregate_over_nothing_yields_one_row():
    desc = ReduceAggregateDesc(
        key_arity=0,
        aggregates=[AGGREGATES[name] for name in
                    ("count", "sum", "avg", "min", "count_distinct")],
        inputs_are_partials=False,
    )
    outputs = _reduce_both(desc, [])
    _assert_same_rows(outputs)
    assert outputs[1] == [(0, None, None, None, 0)]
    keyed = ReduceAggregateDesc(key_arity=1, aggregates=[AGGREGATES["count"]],
                                inputs_are_partials=False)
    assert _reduce_both(keyed, []) == [[], []]


def test_permutation_is_stable_and_keeps_arrival_order_across_sides():
    # equal keys keep arrival order (ascending and descending alike);
    # in a join the two sides interleave on arrival
    pairs = [KeyValue((i % 2,), (0, i)) for i in range(8)]
    for directions in (None, [False]):
        outputs = _reduce_both(ReduceSortDesc(), pairs, directions)
        _assert_same_rows(outputs)
    assert outputs[1] == [(1,), (3,), (5,), (7,), (0,), (2,), (4,), (6,)]
    # True and 2 are equal under the comparator but not ==: three groups
    # on arrival order R(True) L(2) R(2)
    pairs = [KeyValue((True,), (1, "r0")), KeyValue((2,), (0, "l1")),
             KeyValue((2,), (1, "r2")), KeyValue((True,), (0, "l3"))]
    desc = ReduceJoinDesc(join_type="left", left_width=1, right_width=1)
    _assert_same_rows(_reduce_both(desc, pairs))


_TIED_KEY_COLUMNS = st.one_of(
    st.lists(st.sampled_from([0, 1, 2, 2.0, -1.5]), min_size=0, max_size=24),
    st.lists(st.sampled_from(["a", "b", "ab"]), min_size=0, max_size=24),
    st.lists(st.sampled_from([0, 1, None, True, "a"]), min_size=0, max_size=24),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TIED_KEY_COLUMNS, min_size=1, max_size=3),
       st.lists(st.booleans(), min_size=0, max_size=4), st.booleans())
def test_mixed_direction_sort_is_the_comparator_order(columns, directions, packed):
    """``DESC, ASC`` mixes sort by stable builtin passes: the permutation
    must be the Hive comparator's (ties in arrival order) whatever the
    directions — heavy ties, NULLs, bools and incomparable mixes
    included (those fall back to the comparator itself)."""
    size = min(map(len, columns))
    columns = [column[:size] for column in columns]
    if packed:
        columns = [pack_column(column) for column in columns]
    keys = list(zip(*columns))
    compare = key_comparator(directions)
    try:
        expected = sorted(range(size), key=functools.cmp_to_key(
            lambda a, b: compare(keys[a], keys[b])
        ))
    except TypeError:
        expected = TypeError
    try:
        order = sort_permutation(
            columns[0] if len(columns) == 1 else keys, columns, directions,
            range(size),
        )
    except TypeError:
        order = TypeError
    assert order == expected


# ---------------------------------------------------------------------------
# observability: why a task left the fast path, from a counter
# ---------------------------------------------------------------------------

def _shuffle_counters():
    snapshot = get_metrics().snapshot()
    return {
        name.rpartition(".")[2]: int(snapshot.get(name, 0))
        for name in ("exec.sink.columns_bulk", "exec.sink.columns_exact",
                     "exec.reduce.sort_native", "exec.reduce.sort_comparator")
    }


def test_benchmark_queries_never_leave_the_bulk_sizing_path():
    """TPC-H 1-22 + HiBench: every sink column is sized by a bulk pass
    (``columns_exact`` stays 0, the value on the tree that introduced the
    counter) and every sort — the mixed-direction ORDER BYs included —
    is the builtin one."""
    before = _shuffle_counters()
    hdfs, metastore = fresh_tpch(1, lineitem_sample=1500)
    with connect(engine="datampi", hdfs=hdfs, metastore=metastore) as session:
        for number in range(1, 23):
            session.execute(tpch_query(number, 1))
    hdfs, metastore = fresh_hibench(1, sample_uservisits=3000)
    with connect(engine="datampi", hdfs=hdfs, metastore=metastore) as session:
        session.execute(hibench_ddl())
        session.execute(HIBENCH_JOIN)
        session.execute(HIBENCH_AGGREGATE)
        # the serving benchmark's top-10: DESC, then ASC as the tie-break
        top = session.query("SELECT r.pageurl, r.pagerank FROM rankings r "
                            "ORDER BY r.pagerank DESC, r.pageurl LIMIT 10").rows
        assert top == sorted(top, key=lambda row: (-row[1], row[0]))
    after = _shuffle_counters()
    moved = {name: after[name] - before[name] for name in after}
    assert moved["columns_exact"] == 0
    assert moved["columns_bulk"] > 1000
    assert moved["sort_comparator"] == 0 and moved["sort_native"] == 49


def test_counters_name_the_column_and_the_sort_that_left_the_fast_path():
    hdfs = HDFS(num_workers=3)
    metastore = Metastore(hdfs)
    schema = Schema.parse("a int, b string")
    table = metastore.create_table("t", schema, format_name="sequence")
    hdfs.write(f"{table.location}/p0", schema,
               [(3, "x"), (None, "y"), (1, None), (2, "z")], format_name="sequence")
    with connect(engine="hadoop", hdfs=hdfs, metastore=metastore) as session:
        before = _shuffle_counters()
        rows = session.query("SELECT b FROM t WHERE b IS NOT NULL ORDER BY b").rows
        moved = _shuffle_counters()
        assert rows == [("x",), ("y",), ("z",)]
        assert moved["sort_native"] == before["sort_native"] + 1
        assert moved["sort_comparator"] == before["sort_comparator"]
        assert moved["columns_exact"] == before["columns_exact"]
        # a NULL key takes the Hive comparator (NULLS FIRST); a nullable
        # int key and a nullable string value take the per-value serde
        before = moved
        rows = session.query("SELECT a, b FROM t ORDER BY a").rows
        moved = _shuffle_counters()
        assert rows == [(None, "y"), (1, None), (2, "z"), (3, "x")]
        assert moved["sort_comparator"] == before["sort_comparator"] + 1
        assert moved["sort_native"] == before["sort_native"]
        assert moved["columns_exact"] == before["columns_exact"] + 2


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=20.0, max_value=300.0),
    st.lists(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)),
                      min_size=1, max_size=12), min_size=1, max_size=3),
    st.booleans(),
)
def test_reducing_routed_buffers_matches_reducing_their_pairs(
        num_partitions, capacity, batches, packed):
    """Send buffers slice runs (windows when there is one partition,
    position lists otherwise, a buffer spanning two runs on carry-over);
    the reduce gathers them back, neighbours of one run merged."""
    spl = SendPartitionList(num_partitions, capacity)
    buffers, routed, serial = [], [[] for _ in range(num_partitions)], 0
    for batch in batches:
        pairs = [KeyValue((key,), (0, serial + i, f"v{key}"))
                 for i, (key, _partition) in enumerate(batch)]
        serial += len(batch)
        ids = [partition % num_partitions for _key, partition in batch]
        for partition, pair in zip(ids, pairs):
            routed[partition].append(pair)
        spl.add_many(ids, run_of(pairs, packed), buffers.append)
    buffers += spl.drain()
    for partition in range(num_partitions):
        received = Segments()
        for buffer in buffers:
            if buffer.partition == partition:
                received.extend(buffer.segments)
        assert pairs_of(received) == routed[partition]
        for desc in (ReduceSortDesc(), ReduceDistinctDesc(key_arity=1)):
            reference = ExecReducer(desc, [FileSinkDesc()]).run(routed[partition])
            columnar = ExecReducer(desc, [FileSinkDesc()], vectorized=True).run(received)
            assert columnar.output.to_rows() == reference.output
