"""Tests for semantic analysis: binding, pushdown, aggregation planning."""

import pytest

from repro import connect
from repro.bench import fresh_tpch
from repro.common.errors import SemanticError
from repro.common.rows import DataType
from repro.engines.base import Engine
from repro.engines.local import LocalEngine
from repro.plan.analyzer import Analyzer
from repro.plan.logical import (
    AggregateNode,
    DistinctNode,
    Filter,
    JoinNode,
    LimitNode,
    Project,
    Scan,
    SortNode,
)
from repro.exec import expressions as bexpr
from repro.exec.expressions import InputRef, referenced_columns, remap_input_refs
from repro.sql import parse_statement
from repro.storage.metastore import Metastore


@pytest.fixture()
def analyzer(warehouse):
    _hdfs, metastore = warehouse
    return Analyzer(metastore)


def analyze(analyzer, sql):
    return analyzer.analyze(parse_statement(sql))


class TestBasicShapes:
    def test_scan_project(self, analyzer):
        node = analyze(analyzer, "SELECT name, salary FROM emp")
        assert isinstance(node, Project)
        assert isinstance(node.child, Scan)
        assert node.names == ["name", "salary"]
        assert node.expressions[0].index == 1

    def test_star_expansion(self, analyzer):
        node = analyze(analyzer, "SELECT * FROM emp")
        assert len(node.expressions) == 5

    def test_qualified_star(self, analyzer):
        node = analyze(analyzer, "SELECT e.* FROM emp e JOIN dept d ON e.dept = d.dept")
        assert len(node.expressions) == 5

    def test_where_becomes_filter(self, analyzer):
        node = analyze(analyzer, "SELECT name FROM emp WHERE salary > 90")
        assert isinstance(node.child, Filter)

    def test_limit_and_order(self, analyzer):
        node = analyze(analyzer, "SELECT name FROM emp ORDER BY name DESC LIMIT 3")
        assert isinstance(node, LimitNode)
        assert isinstance(node.child, SortNode)
        assert node.child.ascending == [False]

    def test_distinct(self, analyzer):
        node = analyze(analyzer, "SELECT DISTINCT dept FROM emp")
        assert isinstance(node, DistinctNode)

    def test_missing_table(self, analyzer):
        with pytest.raises(SemanticError):
            analyze(analyzer, "SELECT x FROM ghost")

    def test_missing_column(self, analyzer):
        with pytest.raises(SemanticError):
            analyze(analyzer, "SELECT nope FROM emp")

    def test_ambiguous_column(self, analyzer):
        with pytest.raises(SemanticError):
            analyze(analyzer, "SELECT dept FROM emp e JOIN dept d ON e.dept = d.dept")

    def test_qualified_resolution(self, analyzer):
        node = analyze(analyzer, "SELECT d.dept FROM emp e JOIN dept d ON e.dept = d.dept")
        assert node.expressions[0].index == 5  # first column of the right side


class TestJoins:
    def test_equi_key_extraction(self, analyzer):
        node = analyze(
            analyzer, "SELECT name FROM emp e JOIN dept d ON e.dept = d.dept"
        ).child
        assert isinstance(node, JoinNode)
        assert len(node.left_keys) == 1 and len(node.right_keys) == 1
        assert node.right_keys[0].index == 0  # rebased to the right side
        assert node.residual is None

    def test_flipped_equality(self, analyzer):
        node = analyze(
            analyzer, "SELECT name FROM emp e JOIN dept d ON d.dept = e.dept"
        ).child
        assert referenced_columns(node.left_keys[0]) == {2}

    def test_non_equi_stays_residual(self, analyzer):
        node = analyze(
            analyzer,
            "SELECT name FROM emp e JOIN dept d ON e.dept = d.dept AND e.salary < d.budget",
        ).child
        assert isinstance(node, JoinNode)
        assert node.residual is not None

    def test_side_pure_on_condition_pushed(self, analyzer):
        node = analyze(
            analyzer,
            "SELECT name FROM emp e JOIN dept d ON e.dept = d.dept AND e.salary > 90",
        ).child
        assert isinstance(node, JoinNode)
        assert isinstance(node.left, Filter)  # pushed below the join

    def test_where_pushdown_through_join(self, analyzer):
        node = analyze(
            analyzer,
            "SELECT name FROM emp e JOIN dept d ON e.dept = d.dept "
            "WHERE e.salary > 90 AND d.region = 'west'",
        )
        join = node.child
        assert isinstance(join, JoinNode)
        assert isinstance(join.left, Filter)
        assert isinstance(join.right, Filter)

    def test_left_join_right_conjunct_not_pushed(self, analyzer):
        node = analyze(
            analyzer,
            "SELECT name FROM emp e LEFT JOIN dept d ON e.dept = d.dept "
            "WHERE d.region IS NULL",
        )
        # anti-join pattern: the filter must run after the join
        assert isinstance(node.child, Filter)
        assert isinstance(node.child.child, JoinNode)

    def test_cross_join_no_keys(self, analyzer):
        node = analyze(analyzer, "SELECT name FROM emp CROSS JOIN dept").child
        assert isinstance(node, JoinNode)
        assert node.left_keys == []


class TestAggregation:
    def test_group_by_with_aggregates(self, analyzer):
        node = analyze(
            analyzer,
            "SELECT dept, count(*) c, avg(salary) a FROM emp GROUP BY dept",
        )
        agg = node.child
        assert isinstance(agg, AggregateNode)
        assert len(agg.calls) == 2
        assert agg.calls[0].argument is None  # COUNT(*)
        assert agg.calls[1].dtype is DataType.DOUBLE

    def test_expression_group_key(self, analyzer):
        node = analyze(
            analyzer,
            "SELECT year(hired), count(*) FROM emp GROUP BY year(hired)",
        )
        agg = node.child
        assert isinstance(agg, AggregateNode)
        # the select's year(hired) resolves to group position 0
        assert node.expressions[0].index == 0

    def test_having(self, analyzer):
        node = analyze(
            analyzer,
            "SELECT dept FROM emp GROUP BY dept HAVING count(*) > 1",
        )
        having = node.child
        assert isinstance(having, Filter)
        assert isinstance(having.child, AggregateNode)
        # HAVING adds the count aggregate even though it's not selected
        assert len(having.child.calls) == 1

    def test_global_aggregate(self, analyzer):
        node = analyze(analyzer, "SELECT sum(salary) FROM emp")
        agg = node.child
        assert isinstance(agg, AggregateNode)
        assert agg.group_expressions == []

    def test_same_aggregate_deduplicated(self, analyzer):
        node = analyze(
            analyzer,
            "SELECT sum(salary), sum(salary) * 2 FROM emp",
        )
        assert len(node.child.calls) == 1

    def test_bare_column_outside_group_rejected(self, analyzer):
        with pytest.raises(SemanticError):
            analyze(analyzer, "SELECT name, count(*) FROM emp GROUP BY dept")

    def test_aggregate_in_where_rejected(self, analyzer):
        with pytest.raises(SemanticError):
            analyze(analyzer, "SELECT dept FROM emp WHERE count(*) > 1 GROUP BY dept")

    def test_nested_aggregate_rejected(self, analyzer):
        with pytest.raises(SemanticError):
            analyze(analyzer, "SELECT sum(count(*)) FROM emp GROUP BY dept")

    def test_order_by_aggregate_alias(self, analyzer):
        node = analyze(
            analyzer,
            "SELECT dept, sum(salary) total FROM emp GROUP BY dept ORDER BY total DESC",
        )
        assert isinstance(node, SortNode)
        assert node.sort_expressions[0].index == 1

    def test_order_by_same_expression(self, analyzer):
        node = analyze(
            analyzer,
            "SELECT dept, sum(salary) FROM emp GROUP BY dept ORDER BY sum(salary)",
        )
        assert isinstance(node, SortNode)
        assert node.sort_expressions[0].index == 1

    def test_order_by_unknown_rejected(self, analyzer):
        with pytest.raises(SemanticError):
            analyze(analyzer, "SELECT dept FROM emp GROUP BY dept ORDER BY salary")


class TestSubqueries:
    def test_from_subquery_binding(self, analyzer):
        node = analyze(
            analyzer,
            "SELECT s.d FROM (SELECT dept AS d FROM emp) s",
        )
        assert node.names == ["d"]

    def test_subquery_join(self, analyzer):
        node = analyze(
            analyzer,
            "SELECT name FROM emp e JOIN (SELECT dept AS d FROM dept) x ON e.dept = x.d",
        )
        assert isinstance(node.child, JoinNode)


class TestHelpers:
    def test_shift_input_refs(self):
        expr = bexpr.Comparison("=", InputRef(2), InputRef(5))
        shifted = remap_input_refs(expr, lambda index: index - 2)
        assert (shifted.left.index, shifted.right.index) == (0, 3)
        # original untouched
        assert referenced_columns(expr) == {2, 5}

    def test_shared_subtree_remaps_once(self):
        """BETWEEN desugars into two comparisons sharing one operand."""
        operand = InputRef(4)
        expr = bexpr.LogicalAnd(operands=[
            bexpr.Comparison(">=", operand, bexpr.Const(1)),
            bexpr.Comparison("<=", operand, bexpr.Const(9)),
        ])
        shifted = remap_input_refs(expr, lambda index: index - 4)
        assert referenced_columns(shifted) == {0}

    def test_collect_refs_nested(self):
        expr = bexpr.LogicalAnd(operands=[
            bexpr.Comparison(">", InputRef(1), InputRef(4)),
            bexpr.IsNullExpr(operand=InputRef(7)),
        ])
        assert referenced_columns(expr) == {1, 4, 7}


NON_BOOLEAN_PREDICATES = [
    "SELECT count(*) FROM lineitem WHERE l_quantity",
    "SELECT count(*) FROM lineitem WHERE l_comment",
    "SELECT count(*) FROM lineitem l JOIN orders o "
    "ON l.l_orderkey = o.o_orderkey AND l.l_quantity",
    "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag "
    "HAVING sum(l_quantity)",
    "SELECT count(*) FROM lineitem WHERE l_quantity > 1 OR l_comment",
    "SELECT count(*) FROM lineitem WHERE NOT l_quantity",
]


@pytest.fixture(scope="module")
def tpch_warehouse():
    return fresh_tpch(1, lineitem_sample=200)


@pytest.mark.parametrize("engine", ["local", "datampi"])
@pytest.mark.parametrize("sql", NON_BOOLEAN_PREDICATES)
def test_non_boolean_predicate_rejected_before_any_job(tpch_warehouse, engine, sql,
                                                       monkeypatch):
    """Hive rejects a WHERE / HAVING / ON predicate, or an AND / OR / NOT
    operand, that is not boolean: analysis fails, instead of a job that
    silently returns no rows."""

    def no_job(*_args, **_kwargs):
        raise AssertionError("a job ran")

    monkeypatch.setattr(Engine, "run_plan", no_job)
    monkeypatch.setattr(LocalEngine, "run_plan", no_job)
    hdfs, metastore = tpch_warehouse
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        with pytest.raises(SemanticError, match="must be boolean"):
            session.query(sql)
