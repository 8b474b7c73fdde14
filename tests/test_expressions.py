"""Tests for bound-expression compilation (NULL logic, operators)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.common.rows import ColumnBatch, DataType
from repro.exec import expressions as bexpr
from repro.exec.expressions import (
    Const,
    InputRef,
    codegen_filter_kernel,
    codegen_group_kernel,
    codegen_keys_kernel,
    codegen_project_kernel,
    compile_many,
    stable_hash,
)
from repro.exec.mapper import ExecMapper
from repro.exec.operators import FileSinkDesc, MapGroupByDesc
from repro.sql.functions import AGGREGATES, get_scalar


def ref(index, dtype=DataType.BIGINT):
    return InputRef(index, dtype)


def const(value):
    return Const(value, DataType.BIGINT if isinstance(value, int) else DataType.STRING)


class TestArithmetic:
    def test_basic_ops(self):
        row = (10, 3)
        assert bexpr.Arithmetic("+", ref(0), ref(1)).compile()(row) == 13
        assert bexpr.Arithmetic("-", ref(0), ref(1)).compile()(row) == 7
        assert bexpr.Arithmetic("*", ref(0), ref(1)).compile()(row) == 30
        assert bexpr.Arithmetic("%", ref(0), ref(1)).compile()(row) == 1

    def test_division_by_zero_is_null(self):
        assert bexpr.Arithmetic("/", ref(0), ref(1)).compile()((1, 0)) is None

    def test_null_propagates(self):
        evaluate = bexpr.Arithmetic("+", ref(0), ref(1)).compile()
        assert evaluate((None, 1)) is None
        assert evaluate((1, None)) is None


class TestComparison:
    def test_all_operators(self):
        row = (1, 2)
        cases = {"=": False, "<>": True, "<": True, "<=": True, ">": False, ">=": False}
        for op, expected in cases.items():
            assert bexpr.Comparison(op, ref(0), ref(1)).compile()(row) is expected

    def test_null_comparison_unknown(self):
        assert bexpr.Comparison("=", ref(0), ref(1)).compile()((None, 1)) is None


class TestThreeValuedLogic:
    def test_and_short_circuit_false(self):
        # FALSE AND NULL -> FALSE (not NULL)
        expr = bexpr.LogicalAnd(operands=[Const(False, DataType.BOOLEAN),
                                          Const(None, DataType.BOOLEAN)])
        assert expr.compile()(()) is False

    def test_and_with_unknown(self):
        expr = bexpr.LogicalAnd(operands=[Const(True, DataType.BOOLEAN),
                                          Const(None, DataType.BOOLEAN)])
        assert expr.compile()(()) is None

    def test_or_short_circuit_true(self):
        expr = bexpr.LogicalOr(operands=[Const(None, DataType.BOOLEAN),
                                         Const(True, DataType.BOOLEAN)])
        assert expr.compile()(()) is True

    def test_or_with_unknown(self):
        expr = bexpr.LogicalOr(operands=[Const(False, DataType.BOOLEAN),
                                         Const(None, DataType.BOOLEAN)])
        assert expr.compile()(()) is None

    def test_not_null(self):
        expr = bexpr.LogicalNot(operand=Const(None, DataType.BOOLEAN))
        assert expr.compile()(()) is None


class TestLike:
    def evaluate(self, pattern, value, negated=False):
        expr = bexpr.LikeExpr(operand=ref(0, DataType.STRING), pattern=pattern,
                              negated=negated)
        return expr.compile()((value,))

    def test_percent(self):
        assert self.evaluate("%green%", "dark green wheat") is True
        assert self.evaluate("%green%", "dark red wheat") is False

    def test_prefix_suffix(self):
        assert self.evaluate("forest%", "forest green") is True
        assert self.evaluate("%BRASS", "PROMO BRASS") is True

    def test_underscore(self):
        assert self.evaluate("a_c", "abc") is True
        assert self.evaluate("a_c", "abbc") is False

    def test_regex_chars_escaped(self):
        assert self.evaluate("a.c", "abc") is False
        assert self.evaluate("a.c", "a.c") is True

    def test_negated(self):
        assert self.evaluate("%special%requests%", "no such thing", negated=True) is True

    def test_null_operand(self):
        assert self.evaluate("%x%", None) is None


class TestMisc:
    def test_in_set(self):
        expr = bexpr.InSet(operand=ref(0), values=frozenset({1, 2, 3}))
        assert expr.compile()((2,)) is True
        assert expr.compile()((9,)) is False
        assert expr.compile()((None,)) is None

    def test_in_set_negated(self):
        expr = bexpr.InSet(operand=ref(0), values=frozenset({1}), negated=True)
        assert expr.compile()((2,)) is True

    def test_is_null(self):
        assert bexpr.IsNullExpr(operand=ref(0)).compile()((None,)) is True
        assert bexpr.IsNullExpr(operand=ref(0), negated=True).compile()((1,)) is True

    def test_case(self):
        expr = bexpr.CaseExpr(
            branches=[(bexpr.Comparison(">", ref(0), const(10)), const("big"))],
            else_value=const("small"),
        )
        evaluate = expr.compile()
        assert evaluate((11,)) == "big"
        assert evaluate((5,)) == "small"

    def test_case_without_else_yields_null(self):
        expr = bexpr.CaseExpr(
            branches=[(bexpr.Comparison(">", ref(0), const(10)), const("big"))]
        )
        assert expr.compile()((1,)) is None

    def test_cast(self):
        assert bexpr.CastExpr(operand=ref(0), dtype=DataType.INT).compile()(("42",)) == 42
        assert bexpr.CastExpr(operand=ref(0), dtype=DataType.DOUBLE).compile()((3,)) == 3.0
        assert bexpr.CastExpr(operand=ref(0), dtype=DataType.STRING).compile()((3,)) == "3"

    def test_cast_malformed_is_null(self):
        expr = bexpr.CastExpr(operand=ref(0), dtype=DataType.INT)
        assert expr.compile()(("abc",)) is None

    def test_compile_many(self):
        project = compile_many([ref(1), const(7), ref(0)])
        assert project(("a", "b")) == ("b", 7, "a")


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(("key", 1)) == stable_hash(("key", 1))

    def test_spreads(self):
        buckets = {stable_hash((f"k{i}",)) % 16 for i in range(200)}
        assert len(buckets) >= 12

    def test_distinguishes(self):
        assert stable_hash(("a",)) != stable_hash(("b",))


class TestCodegenEquivalence:
    """The generated column kernels must agree with the closure compiler
    — the reference — on both values and types, including the
    three-valued-logic corners and short-circuit laziness."""

    ROWS = [
        (None, None, None),
        (0, 0, ""),
        (1, -2, "a"),
        (5, 5, "bb"),
        (None, 3, "a"),
        (7, None, None),
        (-1, 10, "zz"),
    ]

    def _grid(self):
        a, b = ref(0), ref(1)
        comparisons = [
            bexpr.Comparison(op, a, b)
            for op in ("=", "<>", "<", "<=", ">", ">=")
        ]
        arith = [
            bexpr.Arithmetic(op, a, b) for op in ("+", "-", "*", "/", "%")
        ]
        text = ref(2, DataType.STRING)
        leaves = comparisons + arith + [
            bexpr.InSet(operand=text, values=frozenset({"a", "bb"})),
            bexpr.InSet(operand=text, values=frozenset({"a"}), negated=True),
            bexpr.IsNullExpr(operand=a),
            bexpr.IsNullExpr(operand=b, negated=True),
            bexpr.LikeExpr(operand=text, pattern="%b"),
            bexpr.LikeExpr(operand=text, pattern="_", negated=True),
            bexpr.CastExpr(operand=text, dtype=DataType.INT),
            bexpr.CastExpr(operand=a, dtype=DataType.STRING),
            bexpr.ScalarCall(function=get_scalar("upper"), args=[text]),
            bexpr.ScalarCall(function=get_scalar("substr"),
                             args=[text, const(1), const(1)]),
            bexpr.CaseExpr(
                branches=[(bexpr.Comparison(">", a, const(3)), const("big")),
                          (bexpr.IsNullExpr(operand=a), text)],
                else_value=const("small"),
            ),
            bexpr.CaseExpr(branches=[(bexpr.Comparison("<", a, b), b)]),
            const(1),
            const(0),
            Const(None, DataType.BIGINT),
        ]
        composites = []
        for i, x in enumerate(leaves):
            y = leaves[(i + 3) % len(leaves)]
            composites += [
                bexpr.LogicalAnd(operands=[x, y]),
                bexpr.LogicalOr(operands=[x, y]),
                bexpr.LogicalNot(operand=x),
                bexpr.LogicalAnd(
                    operands=[bexpr.LogicalOr(operands=[x, y]),
                              bexpr.LogicalNot(operand=y)]
                ),
            ]
        return leaves + composites + [
            bexpr.LogicalAnd(operands=[]), bexpr.LogicalOr(operands=[]),
        ]

    def _outcome(self, fn, *args):
        try:
            value = fn(*args)
        except TypeError:
            return ("TypeError",)  # e.g. None < int must fail identically
        return (type(value).__name__, value)

    def _one_row_batch(self, row):
        batch = ColumnBatch.from_rows([row])
        return batch.columns, range(batch.size)

    def test_matches_closure_compiler(self):
        for expression in self._grid():
            closure = expression.compile()
            project = codegen_project_kernel([expression])
            keep = codegen_filter_kernel(expression)
            for row in self.ROWS:
                expected = self._outcome(closure, row)
                batch = self._one_row_batch(row)
                assert self._outcome(
                    lambda cols, sel: project(cols, sel)[0][0], *batch
                ) == expected, (expression, row)
                # a filter keeps a row only when the predicate is TRUE
                kept = self._outcome(keep, *batch)
                if expected == ("TypeError",):
                    assert kept == expected, (expression, row)
                else:
                    assert kept == ("list", [0] if expected[1] is True else []), \
                        (expression, row)

    def test_compile_many_matches_per_expression(self):
        expressions = [
            ref(0),
            bexpr.Arithmetic("*", ref(0), ref(1)),
            bexpr.LogicalAnd(
                operands=[bexpr.Comparison("<", ref(0), ref(1)),
                          bexpr.IsNullExpr(operand=ref(2), negated=True)]
            ),
        ]
        project = compile_many(expressions)
        kernel = codegen_project_kernel(expressions)
        singles = [e.compile() for e in expressions]
        for row in self.ROWS:
            expected = tuple(self._outcome(fn, row) for fn in singles)
            batch = self._one_row_batch(row)
            if ("TypeError",) in expected:
                with pytest.raises(TypeError):
                    project(row)
                with pytest.raises(TypeError):
                    kernel(*batch)
            else:
                for got in (project(row),
                            tuple(column[0] for column in kernel(*batch))):
                    assert tuple(
                        (type(v).__name__, v) for v in got
                    ) == expected, row

    def test_unknown_node_has_no_kernel(self):
        class Exotic(bexpr.BoundExpression):
            pass

        for build in (codegen_filter_kernel,
                      lambda e: codegen_project_kernel([ref(0), e]),
                      lambda e: codegen_keys_kernel([e])):
            with pytest.raises(ExecutionError, match="Exotic"):
                build(bexpr.LogicalNot(operand=Exotic()))


def _group_by(batches, key_exprs, aggregates, max_groups, vectorized):
    """Map-side GROUP BY partial rows: through the generated group kernel
    (*vectorized*), or through the reference operator's generic
    ``create -> update* -> partial`` loop."""
    mapper = ExecMapper(
        [MapGroupByDesc(key_exprs, aggregates, max_groups), FileSinkDesc()],
        None, 1, vectorized=vectorized,
    )
    for rows in batches:
        mapper.process_batch(ColumnBatch.from_rows(rows) if vectorized else rows)
    output = mapper.close().output
    return output.to_rows() if vectorized else output


# columns: int key, string key, mixed int/float measure, string measure
_GROUP_ROW = st.tuples(
    st.sampled_from([0, 1, 2, None]),
    st.sampled_from(["a", "b", None]),
    st.one_of(st.none(), st.integers(-5, 5),
              st.floats(-4.0, 4.0, allow_nan=False)),
    st.one_of(st.none(), st.text("xyz", max_size=2)),
)
_GROUP_AGGREGATES = st.lists(
    st.sampled_from([
        ("count", None), ("count", 2), ("count", 3), ("sum", 2), ("avg", 2),
        ("min", 2), ("max", 2), ("min", 3), ("max", 3),
    ]),
    min_size=0, max_size=4,
)


class TestFusedGroupUpdate:
    """The generated group kernel must replay exactly what the
    per-aggregate create/update/partial protocol produces."""

    ROWS = [(3, 1.5), (None, 2.0), (4, None), (0, -1.0), (7, 3.5)]

    def _check(self, batches, key_columns, specs, max_groups):
        key_exprs = [ref(column) for column in key_columns]
        aggregates = [
            (AGGREGATES[name], None if column is None else ref(column))
            for name, column in specs
        ]
        expected, got = (
            _group_by(batches, key_exprs, aggregates, max_groups, vectorized)
            for vectorized in (False, True)
        )
        # repr: identical values *and* types (1 vs 1.0), in identical order
        assert repr(got) == repr(expected)
        return got

    def test_count_sum_avg_fused(self):
        specs = [("count", None), ("count", 0), ("sum", 0), ("sum", 1),
                 ("avg", 1), ("min", 0), ("max", 1)]
        assert self._check([self.ROWS], [], specs, 10) == [
            (5, 4, 14, 6.0, 6.0, 4, 0, 3.5)
        ]

    def test_sum_of_all_nulls_stays_null(self):
        rows = [(None,), (None,)]
        assert self._check([rows], [], [("sum", 0), ("min", 0), ("max", 0)],
                           10) == [(None, None, None)]

    @settings(max_examples=150, deadline=None)
    @given(
        batches=st.lists(st.lists(_GROUP_ROW, max_size=12), min_size=1, max_size=3),
        key_columns=st.sampled_from([[], [0], [1], [0, 1]]),
        specs=_GROUP_AGGREGATES,
        max_groups=st.integers(1, 4),
    )
    def test_kernel_matches_aggregate_protocol(self, batches, key_columns,
                                               specs, max_groups):
        self._check(batches, key_columns, specs, max_groups)

    def test_unknown_aggregate_has_no_kernel(self):
        with pytest.raises(ExecutionError, match="CountDistinctAggregate"):
            codegen_group_kernel(
                [], [(AGGREGATES["count_distinct"], ref(0))], 10
            )
