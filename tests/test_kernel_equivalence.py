"""Nullability-aware kernels compute what the all-nullable ones do, and
both what the closure compiler does.

The column-kernel emitter (``repro.exec.expressions._emit``) drops NULL
guards, shares subexpressions and seeds group slots when the batch
promises NULL-free columns.  Every such kernel must be indistinguishable
— ``repr``-equal values, the same ``TypeError``\\ s, the same table
insertion order — from the kernel generated with no promise at all, and
from the reference evaluators that share no code with either: the
closure compiler row by row, the row ``MapGroupByOperator`` and the
``Aggregate`` protocol.

Random expression trees draw from a small alphabet of columns and
constants so that structurally equal subtrees (the CSE's input) are
common; data mixes ints and floats, ±0.0, division by zero and NULLs
that come and go per column.  ``scripts/check.sh`` re-runs the module
under ``PYTHONHASHSEED=1``.
"""

import math
import re
from array import array
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.rows import ColumnBatch, DataType
from repro.exec import expressions as bexpr
from repro.exec.expressions import (
    Const,
    InputRef,
    codegen_filter_kernel,
    codegen_group_kernel,
    codegen_keys_kernel,
    codegen_project_kernel,
    codegen_reduce_aggregate_kernel,
)
from repro.exec.mapper import ExecMapper
from repro.exec.operators import FileSinkDesc, FilterDesc, MapGroupByDesc
from repro.sql.functions import AGGREGATES, get_scalar

# columns: 0 ints, 1 floats, 2 ints mixed with floats, 3 strings
_VALUES = (
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.5, -2.25, 3.0]),
    st.one_of(st.integers(-2, 2), st.sampled_from([0.0, -0.0, 0.5])),
    st.sampled_from(["a", "ab", "b", ""]),
)


@st.composite
def _tables(draw):
    """Column lists; each column independently with or without NULLs."""
    size = draw(st.integers(1, 10))
    columns = []
    for values in _VALUES:
        if draw(st.booleans()):
            values = st.one_of(st.none(), values)
        columns.append(draw(st.lists(values, min_size=size, max_size=size)))
    return columns


def _ref(index):
    dtype = (DataType.BIGINT, DataType.DOUBLE, DataType.DOUBLE,
             DataType.STRING, DataType.STRING)[index]
    return InputRef(index, dtype)


def _const(value):
    return Const(value, DataType.DOUBLE)


# now and then a string where a number belongs: ``"a" + 1`` must raise
# in every evaluator, at the same row
_NUMERIC_LEAVES = st.one_of(
    st.sampled_from([0, 1, 2] * 6 + [3]).map(_ref),
    st.sampled_from([0, 1, 2, -1, 0.5, 0.0, -0.0, None]).map(_const),
)
_STRING_LEAVES = st.one_of(
    st.just(_ref(3)), st.sampled_from(["a", "b", None]).map(_const),
)

_booleans = st.deferred(lambda: _BOOLEANS)


def _numeric_nodes(children):
    return st.one_of(
        st.builds(bexpr.Arithmetic, st.sampled_from("+-*/%"), children, children),
        st.builds(lambda when, then, other: bexpr.CaseExpr(
            branches=[(when, then)], else_value=other, dtype=DataType.DOUBLE,
        ), _booleans, children, st.one_of(st.none(), children)),
        st.builds(lambda arg: bexpr.ScalarCall(
            function=get_scalar("abs"), args=[arg], dtype=DataType.DOUBLE,
        ), children),
        st.builds(lambda a, b: bexpr.ScalarCall(
            function=get_scalar("coalesce"), args=[a, b], dtype=DataType.DOUBLE,
        ), children, children),
        st.builds(lambda arg, dtype: bexpr.CastExpr(operand=arg, dtype=dtype),
                  children, st.sampled_from([DataType.INT, DataType.DOUBLE,
                                             DataType.STRING])),
    )


_NUMERICS = st.recursive(_NUMERIC_LEAVES, _numeric_nodes, max_leaves=6)
_STRINGS = st.one_of(
    _STRING_LEAVES,
    st.builds(lambda arg: bexpr.ScalarCall(
        function=get_scalar("upper"), args=[arg], dtype=DataType.STRING,
    ), _STRING_LEAVES),
)
_BOOLEAN_LEAVES = st.one_of(
    st.builds(bexpr.Comparison, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
              _NUMERICS, _NUMERICS),
    st.builds(bexpr.Comparison, st.sampled_from(["=", "<", ">="]),
              _STRINGS, _STRINGS),
    # ill-typed on purpose: str against number raises in every evaluator
    st.builds(bexpr.Comparison, st.just("<"), _STRINGS, _NUMERIC_LEAVES),
    st.builds(lambda arg, negated: bexpr.IsNullExpr(operand=arg, negated=negated),
              st.one_of(_NUMERICS, _STRINGS), st.booleans()),
    st.builds(lambda arg, negated: bexpr.InSet(
        operand=arg, values=frozenset({0, 1, 2.5}), negated=negated,
    ), _NUMERICS, st.booleans()),
    st.builds(lambda arg, negated: bexpr.LikeExpr(
        operand=arg, pattern="a%", negated=negated,
    ), _STRINGS, st.booleans()),
    st.sampled_from([True, False, None]).map(
        lambda value: Const(value, DataType.BOOLEAN)
    ),
)
def _logical_nodes(children):
    # AND / OR / NOT take any value by truthiness, not only booleans
    operands = st.one_of(children, children, _NUMERIC_LEAVES)
    return st.one_of(
        st.lists(operands, min_size=0, max_size=3).map(
            lambda operands: bexpr.LogicalAnd(operands=operands)
        ),
        st.lists(operands, min_size=1, max_size=3).map(
            lambda operands: bexpr.LogicalOr(operands=operands)
        ),
        operands.map(lambda operand: bexpr.LogicalNot(operand=operand)),
    )


_BOOLEANS = st.recursive(_BOOLEAN_LEAVES, _logical_nodes, max_leaves=5)
_EXPRESSIONS = st.one_of(_NUMERICS, _BOOLEANS, _STRINGS)


def _facts(columns):
    """Every honest promise: NULL-free columns, and nothing promised."""
    true_facts = frozenset(
        index for index, column in enumerate(columns) if None not in column
    )
    return [true_facts, frozenset()]


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (TypeError, OverflowError) as error:  # CAST(inf AS INT) overflows
        return type(error).__name__


def _rows(columns):
    return list(zip(*columns))


@settings(max_examples=300, deadline=None)
@given(_tables(), st.lists(_EXPRESSIONS, min_size=1, max_size=3))
def test_project_filter_and_keys_kernels(columns, expressions):
    rows = _rows(columns)
    closures = [expression.compile() for expression in expressions]

    def reference_row(row):
        return [closure(row) for closure in closures]

    expected = [_outcome(reference_row, row) for row in rows]
    predicate = expressions[0]
    for no_nulls in _facts(columns):
        project = codegen_project_kernel(expressions, no_nulls)
        keep = codegen_filter_kernel(predicate, no_nulls)
        keys = codegen_keys_kernel(expressions, no_nulls)
        for position, row in enumerate(rows):
            # one row at a time: a TypeError belongs to its row
            got = _outcome(
                lambda: [out[0] for out in project(columns, [position])]
            )
            assert got == expected[position], (no_nulls, row)
            first = _outcome(closures[0], row)
            kept = _outcome(keep, columns, [position])
            assert kept == ("TypeError" if first == "TypeError" else
                            repr([position] if first == "True" else [])), \
                (no_nulls, row)
            if expected[position] != "TypeError":
                parts = reference_row(row)
                key = None if None in parts else tuple(parts)
                assert repr(keys(columns, [position])) == repr([key]), \
                    (no_nulls, row)
        if "TypeError" not in expected:
            # the whole batch in one call: nothing may leak from one row
            # (or from a branch another row took) into the next
            got = project(columns, range(len(rows)))
            assert repr(_rows(got)) == repr(
                [tuple(reference_row(row)) for row in rows]
            ), no_nulls
            sel = list(range(0, len(rows), 2))
            assert keep(columns, sel) == [
                i for i in sel if closures[0](rows[i]) is True
            ], no_nulls
        # a promised input makes a promised output only if it is true
        for known, column in zip(project.no_nulls,
                                 project(columns, []) if "TypeError" in expected
                                 else project(columns, range(len(rows)))):
            assert not known or None not in column


_AGGREGATE_SPECS = st.one_of(
    st.lists(
        st.tuples(st.sampled_from(["count", "sum", "avg", "min", "max"]),
                  st.one_of(st.none(), _NUMERICS)),
        min_size=0, max_size=4,
    ),
    # several counts side by side — COUNT(*), COUNT(x), AVG(x) over plain
    # columns, the shape whose count slots a seeded kernel shares
    st.lists(
        st.tuples(st.sampled_from(["count", "count", "avg", "sum"]),
                  st.one_of(st.none(), st.sampled_from([0, 1, 2]).map(_ref))),
        min_size=2, max_size=6,
    ),
    # SUM(x) beside AVG(x): the running sum a seeded kernel shares when x
    # is a typed array('d') column (1), and must not share over a list
    # (2, where ints past 2**53 make 0.0 + SUM differ from AVG's sum)
    st.sampled_from([1, 2]).flatmap(lambda column: st.lists(
        st.sampled_from(["sum", "avg", "count"]), max_size=3,
    ).map(lambda names: [(name, _ref(column))
                         for name in ["sum", "avg", *names]])),
)

_NAN = float("nan")  # one object: the rows holding it are one group

# columns of a GROUP BY table: 0 ints, 1 floats led by -0.0, NaN and
# ±inf (a typed array('d') when drawn so), 2 ints — some past 2**53 —
# mixed with floats, 3 strings, 4 key values equal across types
# (1 / 1.0 / True, -0.0 / 0.0) and NaNs, one shared object and fresh ones
_GROUP_VALUES = (
    st.integers(-3, 3),
    st.sampled_from([-0.0, -0.0, -0.0, 0.0, 1.5, -2.25,
                     math.inf, -math.inf, _NAN]),
    st.one_of(st.integers(-2, 2),
              st.sampled_from([2**53 + 1, 2**60 + 3, 0.5, -0.0])),
    st.sampled_from(["a", "ab", "b", ""]),
    st.one_of(st.sampled_from([-0.0, 0.0, 1, 1.0, True, None, _NAN]),
              st.builds(float, st.just("nan"))),
)


@st.composite
def _group_batches(draw):
    """``(columns, live)``: each column independently with or without
    NULLs, column 1 maybe typed, and the live positions — ``None``
    (dense), an engine window or an arbitrary selection."""
    size = draw(st.integers(0, 10))
    columns = []
    for position, values in enumerate(_GROUP_VALUES):
        if draw(st.booleans()):
            values = st.one_of(st.none(), values)
        column = draw(st.lists(values, min_size=size, max_size=size))
        if position == 1 and None not in column and draw(st.booleans()):
            column = array("d", column)
        columns.append(column)
    window = st.tuples(st.integers(0, size), st.integers(0, size)).map(
        lambda ends: range(min(ends), max(ends)))
    chosen = st.lists(st.booleans(), min_size=size, max_size=size).map(
        lambda keep: [i for i, kept in enumerate(keep) if kept])
    return columns, draw(st.one_of(st.none(), window, chosen))


def _batch(columns, live, promised):
    """*columns* as a batch over the *live* positions: with the true
    NULL promises and typed buffers (*promised*), or promising nothing
    and holding lists only."""
    if not promised:
        columns = [list(column) for column in columns]
    facts = [None not in column for column in columns] if promised else None
    batch = ColumnBatch(columns, len(columns[0]), None, facts)
    if type(live) is range:
        return batch[live.start:live.stop]
    return batch if live is None else batch.with_selection(live)


def _exact(rows):
    """Rows with every float spelled by ``float.hex``: -0.0, NaN, ±inf
    and the last bit all show."""
    return [tuple(value.hex() if type(value) is float else repr(value)
                  for value in row) for row in rows]


def _group_rows(batches, predicate, key_exprs, aggregates, max_groups,
                vectorized):
    chain = [MapGroupByDesc(key_exprs, aggregates, max_groups), FileSinkDesc()]
    if predicate is not None:
        chain.insert(0, FilterDesc(predicate))
    mapper = ExecMapper(chain, None, 1, vectorized=vectorized)
    for batch in batches:
        mapper.process_batch(batch)
    output = mapper.close().output
    return _exact(output.to_rows() if vectorized else output)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_group_batches(), min_size=1, max_size=3),
    # a bare value filters too: only TRUE keeps a row, not 1
    st.one_of(st.none(), _BOOLEANS, _NUMERIC_LEAVES),
    st.lists(st.one_of(st.sampled_from([0, 2, 3, 4, 4]).map(_ref), _NUMERICS),
             min_size=0, max_size=3),
    _AGGREGATE_SPECS,
    st.integers(1, 4),
)
# AVG's sum is 0.0 + SUM, never SUM itself (-0.0), and only over a typed
# column: over a list 2**53 + 1 and 1 sum to 2**53 + 2 as ints, to 2**53
# as floats
@example([([[0], array("d", [-0.0]), [0], ["a"], [0]], None)], None, [],
         [("sum", _ref(1)), ("avg", _ref(1))], 4)
@example([([[0, 0], [0.5, 0.5], [2**53 + 1, 1], ["a", "a"], [0, 0]], None)],
         None, [], [("sum", _ref(2)), ("avg", _ref(2))], 4)
def test_group_kernel(tables, predicate, key_exprs, specs, max_groups):
    """The flushed rows are the table's ``key + slots`` in insertion
    order, pressure flushes included (``max_groups`` is tiny): identical
    with the true promises, with none, and from the row operators — a
    Filter in front runs inside the group kernel, keys of two and three
    columns probe one dict per column, and a SUM's running sum is
    shared with an AVG over the same all-float column."""
    aggregates = [(AGGREGATES[name], argument) for name, argument in specs]
    as_rows = [
        [row for index, row in enumerate(_rows(columns))
         if live is None or index in live]
        for columns, live in tables
    ]
    expected = _outcome(_group_rows, as_rows, predicate, key_exprs,
                        aggregates, max_groups, False)
    promised = [_batch(columns, live, True) for columns, live in tables]
    bare = [_batch(columns, live, False) for columns, live in tables]
    # promises that change from batch to batch, in either direction: the
    # operator only ever narrows what it takes as promised, and a table
    # whose slots were shared is brought up to date before a variant
    # that shares less runs on it
    mixed = [batch if index % 2 else plain
             for index, (batch, plain) in enumerate(zip(promised, bare))]
    other = [plain if index % 2 else batch
             for index, (batch, plain) in enumerate(zip(promised, bare))]
    for batches in (promised, bare, mixed, other):
        assert _outcome(_group_rows, batches, predicate, key_exprs,
                        aggregates, max_groups, True) == expected


def _reduce_reference(aggregates, arities, columns, order, ends):
    starts = list(accumulate(arities or [1] * len(aggregates), initial=0))
    outs = [[] for _ in aggregates]
    begin = 0
    for end in ends:
        for position, aggregate in enumerate(aggregates):
            acc = aggregate.create()
            for i in order[begin:end]:
                if arities is None:
                    acc = aggregate.update(acc, columns[starts[position]][i])
                else:
                    acc = aggregate.merge(acc, tuple(
                        columns[starts[position] + part][i]
                        for part in range(arities[position])
                    ))
            outs[position].append(aggregate.result(acc))
        begin = end
    return outs


@st.composite
def _reduce_cases(draw):
    merge = draw(st.booleans())
    names = ["count", "sum", "avg", "min", "max"]
    if not merge:
        names.append("count_distinct")
    aggregates = [AGGREGATES[name] for name in
                  draw(st.lists(st.sampled_from(names), min_size=0, max_size=4))]
    size = draw(st.integers(1, 10))
    numbers = st.one_of(st.integers(-3, 3),
                        st.sampled_from([0.0, -0.0, 1.5, -2.25]))
    columns, arities = [], []
    for aggregate in aggregates:
        nullable = draw(st.booleans())
        values = st.one_of(st.none(), numbers) if nullable else numbers
        if merge and aggregate.name == "count":
            values = st.integers(0, 4)
        if merge and aggregate.name == "avg":
            values = st.sampled_from([0.0, -0.0, 1.5, -2.25])
        columns.append(draw(st.lists(values, min_size=size, max_size=size)))
        arities.append(1)
        if merge and aggregate.name == "avg":
            columns.append(draw(st.lists(st.integers(0, 3), min_size=size,
                                         max_size=size)))
            arities[-1] = 2
    order = draw(st.permutations(range(size)))
    cuts = sorted(draw(st.sets(st.integers(1, size), max_size=3)) | {size})
    return aggregates, (arities if merge else None), columns, list(order), cuts


@settings(max_examples=300, deadline=None)
@given(_reduce_cases())
def test_reduce_kernel(case):
    aggregates, arities, columns, order, ends = case
    expected = _outcome(_reduce_reference, aggregates, arities, columns,
                        order, ends)
    for no_nulls in _facts(columns):
        kernel, initial, out_no_nulls = codegen_reduce_aggregate_kernel(
            aggregates, arities, no_nulls
        )
        got = _outcome(kernel, order, ends, columns, initial)
        assert got == expected, no_nulls
        if got != "TypeError":
            for known, column in zip(out_no_nulls,
                                     kernel(order, ends, columns, initial)):
                assert not known or None not in column


# ---------------------------------------------------------------------------
# the two mutants the property tests must kill, pinned as plain cases
# ---------------------------------------------------------------------------

def test_avg_slot_is_seeded_with_zero_plus_the_first_value():
    """``initial[:]`` + update leaves ``0.0 + x`` in AVG's sum slot: an
    int becomes a float and ``-0.0`` becomes ``0.0``.  Seeding with the
    bare ``x`` would show in both."""
    aggregates = [(AGGREGATES["avg"], _ref(0)), (AGGREGATES["avg"], _ref(1))]
    for no_nulls in (frozenset({0, 1}), frozenset()):
        kernel, initial, _scalar, _facts_out = codegen_group_kernel(
            [], aggregates, 10, no_nulls
        )
        table = {}
        kernel([[3], [-0.0]], 1, table, {}, initial, lambda: None)
        assert repr(table) == "{(): [3.0, 1, 0.0, 1]}"


_COUNTS = [(AGGREGATES["count"], None), (AGGREGATES["avg"], _ref(1)),
           (AGGREGATES["count"], _ref(2)), (AGGREGATES["sum"], _ref(1))]
# slots: count(*) | avg sum, avg count | count(c2) | sum


def test_counts_share_a_slot_only_when_they_count_the_same_rows():
    """Seeded — every operand promised NULL-free — ``COUNT(*)``, the
    count half of ``AVG`` and ``COUNT(x)`` all count the group's rows:
    one is updated, the others are filled in at the flush.  A ``COUNT(x)``
    over a column that may hold NULL counts something else, and a kernel
    that shared it with ``COUNT(*)`` would report 3 for the 2 below."""
    kernel = codegen_group_kernel([_ref(0)], _COUNTS, 10, frozenset({0, 1, 2}))[0]
    assert kernel.shared == ((2, 0), (3, 0))
    for no_nulls in (frozenset({0, 1}), frozenset()):
        assert codegen_group_kernel([_ref(0)], _COUNTS, 10, no_nulls)[0].shared == ()
    desc = MapGroupByDesc([_ref(0)], _COUNTS, 10)
    mapper = ExecMapper([desc, FileSinkDesc()], None, 1, vectorized=True)
    mapper.process_batch(ColumnBatch(
        [[7, 7, 7], [1.0, 2.0, 4.0], [5, None, 6]], 3, None, [True, True, False]
    ))
    assert mapper.close().output.to_rows() == [(7, 3, 7.0, 3, 2, 7.0)]
    # the reduce-side kernel has no flush to fill anything in: it shares nothing
    reduce, _initial, _facts_out = codegen_reduce_aggregate_kernel(
        [aggregate for aggregate, _argument in _COUNTS], [1, 2, 1, 1],
        frozenset(range(5)),
    )
    assert reduce([0, 1], [2], [[3, 2], [7.0, 1.0], [3, 2], [2, 2], [7.0, 1.0]],
                  None) == [[5], [8.0 / 5], [4], [8.0]]


def test_a_flush_fills_the_shared_counts_in_mid_batch_and_at_close():
    """``max_groups`` 2 and three keys: the third key's first row flushes
    the table in mid-batch.  A flush that forgot the fill would emit the
    seeds — 1 — in every shared slot."""
    desc = MapGroupByDesc([_ref(0)], _COUNTS, 2)
    mapper = ExecMapper([desc, FileSinkDesc()], None, 1, vectorized=True)
    mapper.process_batch(ColumnBatch(
        [[1, 1, 2, 1, 3, 3], [1.0] * 6, [0] * 6], 6, None, [True, True, True]
    ))
    assert mapper.close().output.to_rows() == [
        (1, 3, 3.0, 3, 3, 3.0), (2, 1, 1.0, 1, 1, 1.0), (3, 2, 2.0, 2, 2, 2.0),
    ]


def test_a_variant_that_shares_less_starts_from_filled_in_counts():
    """Batch one is promised NULL-free and runs the sharing variant: the
    group's three rows are counted in one slot.  Batch two promises
    nothing, so its variant updates every count on its own — from 3, not
    from the seeds, or ``COUNT(*)`` would say 5 and ``AVG``'s count 3."""
    desc = MapGroupByDesc([_ref(0)], _COUNTS, 10)
    mapper = ExecMapper([desc, FileSinkDesc()], None, 1, vectorized=True)
    mapper.process_batch(ColumnBatch(
        [[7, 7, 7], [1.0, 2.0, 4.0], [5, 5, 6]], 3, None, [True, True, True]
    ))
    mapper.process_batch(ColumnBatch([[7, 7], [None, 8.0], [None, 1]], 2))
    # and promised again: the operator stays on the narrower variant
    mapper.process_batch(ColumnBatch(
        [[7], [1.0], [1]], 1, None, [True, True, True]
    ))
    assert mapper.close().output.to_rows() == [(7, 6, 16.0, 5, 5, 16.0)]


def test_a_value_computed_in_a_case_branch_is_not_reused_outside_it():
    """``a + b`` first appears inside a THEN branch, then unconditionally.
    Row 0 takes the branch, row 1 does not: a kernel sharing the branch's
    temporary would hand row 1 row 0's sum (or no value at all)."""
    total = bexpr.Arithmetic("+", _ref(0), _ref(2))
    case = bexpr.CaseExpr(
        branches=[(bexpr.Comparison(">", _ref(0), _const(0)), total)],
        else_value=_const(0), dtype=DataType.DOUBLE,
    )
    columns = [[1, -1, 2], [], [10, 20, 30]]
    for no_nulls in (frozenset({0, 2}), frozenset()):
        kernel = codegen_project_kernel([case, total], no_nulls)
        assert kernel(columns, range(3)) == [[11, 0, 32], [11, 19, 32]]
    # the same through a short-circuited AND operand
    both = bexpr.LogicalAnd(operands=[
        bexpr.Comparison(">", _ref(0), _const(0)),
        bexpr.Comparison(">", total, _const(15)),
    ])
    for no_nulls in (frozenset({0, 2}), frozenset()):
        kernel = codegen_project_kernel([both, total], no_nulls)
        assert kernel(columns, range(3)) == [[False, False, True], [11, 19, 32]]


def test_a_group_seeded_under_fewer_promises_is_not_updated_bare():
    """Promises may differ from batch to batch.  A group created while
    the argument column could hold NULL has a NULL ``SUM`` slot; the
    kernel for a later, NULL-free batch must still guard that slot — the
    operator only ever narrows what it takes as promised."""
    desc = MapGroupByDesc(
        [_ref(0)], [(AGGREGATES["sum"], _ref(2)), (AGGREGATES["min"], _ref(2))],
        10,
    )
    mapper = ExecMapper([desc, FileSinkDesc()], None, 1, vectorized=True)
    mapper.process_batch(ColumnBatch([[1, 2], [], [None, 7]], 2))
    mapper.process_batch(ColumnBatch([[1, 2], [], [5, 1]], 2, None,
                                     [True, True, True]))
    assert mapper.close().output.to_rows() == [(1, 5, 5), (2, 8, 1)]


def test_a_dropped_guard_does_not_skip_an_operand_that_raises():
    """The closure compiler evaluates both operands before it looks for
    NULLs, so ``NULL + ("a" + 1)`` raises.  A kernel that keeps the
    compound operand inline would evaluate it only past the guard; so
    would one folding ``("a" < 1) IS NULL`` to a constant."""
    ill_typed = bexpr.Arithmetic("+", _ref(3), _const(1))
    columns = [[None], [], [], ["a"]]
    for expression in (
        bexpr.Arithmetic("+", _ref(0), ill_typed),
        bexpr.Arithmetic("/", ill_typed, _ref(0)),
        bexpr.IsNullExpr(operand=bexpr.Comparison("<", _ref(3), _const(1))),
    ):
        with pytest.raises(TypeError):
            expression.compile()((None, None, None, "a"))
        for no_nulls in (frozenset({3}), frozenset()):
            with pytest.raises(TypeError):
                codegen_project_kernel([expression], no_nulls)(columns, [0])


def test_and_or_of_values_yield_booleans_not_the_values():
    operands = [_ref(0), _ref(1)]
    kernel = codegen_project_kernel(
        [bexpr.LogicalAnd(operands=operands), bexpr.LogicalOr(operands=operands)],
        frozenset({0, 1}),
    )
    assert repr(kernel([[2, 0], [1.5, 0.0]], range(2))) == \
        "[[True, False], [True, False]]"


def test_equal_constants_of_different_types_are_not_shared():
    """``1``, ``1.0`` and ``True`` are ``==``; as constants they are not
    interchangeable (``x * 1`` keeps an int, ``x * 1.0`` does not)."""
    kernel = codegen_project_kernel(
        [bexpr.Arithmetic("*", _ref(0), _const(1)),
         bexpr.Arithmetic("*", _ref(0), _const(1.0)),
         bexpr.Arithmetic("*", _ref(0), _const(True))],
        frozenset({0}),
    )
    assert repr(kernel([[2]], range(1))) == "[[2], [2.0], [2]]"


def test_no_kernel_tests_a_bound_constant_for_null(monkeypatch):
    """A literal's NULL-ness is decided at codegen: ``c0 is None`` never
    reaches generated code, with or without promises."""
    sources = []
    compile_kernel = bexpr._compile_kernel

    def spy(source, env, name):
        sources.append(source)
        return compile_kernel(source, env, name)

    monkeypatch.setattr(bexpr, "_compile_kernel", spy)
    one, null = _const(1), _const(None)
    expressions = [
        bexpr.Arithmetic("+", _ref(0), one),
        bexpr.Arithmetic("/", one, null),
        bexpr.Comparison("<", null, _ref(1)),
        bexpr.LogicalAnd(operands=[bexpr.Comparison("=", _ref(0), one),
                                   Const(None, DataType.BOOLEAN)]),
        bexpr.IsNullExpr(operand=one),
        bexpr.InSet(operand=null, values=frozenset({1})),
    ]
    for no_nulls in (frozenset(), frozenset({0, 1})):
        codegen_project_kernel(expressions, no_nulls)
        codegen_filter_kernel(expressions[3], no_nulls)
        codegen_keys_kernel(expressions, no_nulls)
        codegen_group_kernel(
            expressions[:1], [(AGGREGATES["count"], None),
                              (AGGREGATES["sum"], one),
                              (AGGREGATES["max"], null)], 10, no_nulls,
        )
    assert len(sources) == 8
    for source in sources:
        assert not re.search(r"\bc\d+ is (not )?None", source), source


@pytest.mark.parametrize("no_nulls", [frozenset(), frozenset({0, 1, 2})])
def test_division_by_zero_stays_null_whatever_is_promised(no_nulls):
    kernel = codegen_project_kernel(
        [bexpr.Arithmetic("/", _ref(0), _ref(2)),
         bexpr.Arithmetic("%", _ref(1), _ref(2))], no_nulls,
    )
    assert kernel.no_nulls == [False, False]
    assert repr(kernel([[4, 1], [1.5, -0.0], [0, 0.0]], range(2))) == \
        "[[None, None], [None, None]]"
