"""Semantic analysis: AST -> bound logical tree.

Responsibilities:

* resolve table/column names against the metastore and row signatures;
* bind + type expressions (desugaring BETWEEN / IN / LIKE / CASE);
* split join conditions into equi-keys and residuals;
* push WHERE conjuncts below joins (predicate pushdown — this is what
  later feeds ORC stripe elimination);
* plan aggregation: collect aggregate calls, rewrite post-aggregation
  expressions against the aggregate's output row.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.errors import SemanticError
from repro.common.rows import DataType
from repro.exec import expressions as bexpr
from repro.exec.expressions import BoundExpression, Const, InputRef, require_boolean
from repro.sql import ast
from repro.sql.functions import get_aggregate, get_scalar, is_aggregate, is_scalar
from repro.storage.metastore import Metastore
from repro.plan.logical import (
    AggregateCall,
    AggregateNode,
    DistinctNode,
    FieldInfo,
    Filter,
    JoinNode,
    LimitNode,
    LogicalNode,
    Project,
    RowSignature,
    Scan,
    SortNode,
    UnionNode,
)


def expr_has_aggregate(expression: ast.Expression) -> bool:
    for node in ast.walk_expression(expression):
        if isinstance(node, ast.FunctionCall) and is_aggregate(node.name):
            return True
    return False


def collect_input_refs(expression: BoundExpression) -> List[int]:
    """All InputRef positions used by a bound expression tree."""
    refs: List[int] = []
    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, InputRef):
            refs.append(node.index)
        for name in getattr(node, "__dataclass_fields__", {}):
            value = getattr(node, name)
            if isinstance(value, BoundExpression):
                stack.append(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, BoundExpression):
                        stack.append(item)
                    elif isinstance(item, tuple):
                        stack.extend(
                            piece for piece in item if isinstance(piece, BoundExpression)
                        )
    return refs


def shift_input_refs(expression: BoundExpression, delta: int) -> BoundExpression:
    """Return a copy with every InputRef index shifted by *delta*."""
    import copy

    clone = copy.deepcopy(expression)
    stack = [clone]
    seen = set()  # shared subtrees (BETWEEN desugaring) must shift once
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, InputRef):
            node.index += delta
        for name in getattr(node, "__dataclass_fields__", {}):
            value = getattr(node, name)
            if isinstance(value, BoundExpression):
                stack.append(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, BoundExpression):
                        stack.append(item)
                    elif isinstance(item, tuple):
                        stack.extend(
                            piece for piece in item if isinstance(piece, BoundExpression)
                        )
    return clone


def split_conjuncts(expression: BoundExpression) -> List[BoundExpression]:
    if isinstance(expression, bexpr.LogicalAnd):
        out: List[BoundExpression] = []
        for operand in expression.operands:
            out.extend(split_conjuncts(operand))
        return out
    return [expression]


def conjoin(conjuncts: List[BoundExpression]) -> Optional[BoundExpression]:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return bexpr.LogicalAnd(operands=conjuncts)


class _AggContext:
    """Post-aggregation binding scope: group exprs and aggregate calls map
    to positions in the aggregate's output row."""

    def __init__(
        self,
        group_asts: List[ast.Expression],
        call_asts: List[ast.FunctionCall],
        signature: RowSignature,
    ):
        self.group_asts = group_asts
        self.call_asts = call_asts
        self.signature = signature


class Analyzer:
    def __init__(self, metastore: Metastore):
        self.metastore = metastore

    # -- entry point --------------------------------------------------------
    def analyze(self, select) -> LogicalNode:
        if isinstance(select, ast.UnionAll):
            return self._plan_union(select)
        if select.source is None:
            raise SemanticError("SELECT without FROM is not supported")
        select = self._rewrite_in_subqueries(select)
        node = self._build_source(select.source)

        if select.where is not None:
            if expr_has_aggregate(select.where):
                raise SemanticError("aggregates are not allowed in WHERE")
            predicate = require_boolean(self._bind(select.where, node.signature), "WHERE")
            node = self._push_filter(node, predicate)

        needs_aggregate = bool(select.group_by) or any(
            expr_has_aggregate(item.expression)
            for item in select.items
            if not isinstance(item.expression, ast.Star)
        ) or (select.having is not None)

        agg_context: Optional[_AggContext] = None
        if needs_aggregate:
            node, agg_context = self._plan_aggregate(select, node)
            if select.having is not None:
                having = require_boolean(self._bind(
                    select.having, node.signature, agg_context=agg_context
                ), "HAVING")
                node = Filter(node, having)

        node = self._plan_projection(select, node, agg_context)

        if select.distinct:
            node = DistinctNode(node)

        if select.order_by:
            node = self._plan_order_by(select, node, agg_context)

        if select.limit is not None:
            node = LimitNode(node, select.limit)

        return node

    # -- IN (SELECT ...) rewrite -----------------------------------------------
    def _rewrite_in_subqueries(self, select: ast.Select) -> ast.Select:
        """Rewrite top-level ``[NOT] IN (SELECT ...)`` WHERE conjuncts into
        (anti-)joins against the DISTINCT subquery — the transformation the
        Hive TPC-H port applies by hand.  Uncorrelated subqueries only;
        NOT IN uses the usual anti-join (NULLs in the subquery do not
        empty the result as strict SQL would)."""
        if select.where is None:
            return select

        def split(expr):
            if isinstance(expr, ast.BinaryOp) and expr.op == "and":
                return split(expr.left) + split(expr.right)
            return [expr]

        conjuncts = split(select.where)
        if not any(isinstance(c, ast.InSubquery) for c in conjuncts):
            for conjunct in conjuncts:
                for sub in ast.walk_expression(conjunct):
                    if isinstance(sub, ast.InSubquery):
                        raise SemanticError(
                            "IN (SELECT ...) is only supported as a top-level "
                            "WHERE conjunct"
                        )
            return select

        import copy as _copy
        import dataclasses

        source = select.source
        kept: List[ast.Expression] = []
        counter = 0
        for conjunct in conjuncts:
            if not isinstance(conjunct, ast.InSubquery):
                kept.append(conjunct)
                continue
            inner = conjunct.query
            if not isinstance(inner, ast.Select):
                raise SemanticError("IN subquery must be a plain SELECT")
            if len(inner.items) != 1 or isinstance(inner.items[0].expression, ast.Star):
                raise SemanticError("IN subquery must produce exactly one column")
            item = inner.items[0]
            alias = f"_insub{counter}"
            column = f"_inval{counter}"  # unique: never clashes with sources
            counter += 1
            distinct_inner = dataclasses.replace(
                _copy.deepcopy(inner),
                distinct=True,
                items=[ast.SelectItem(_copy.deepcopy(item.expression), column)],
            )
            condition = ast.BinaryOp(
                "=", conjunct.operand, ast.ColumnRef(column, table=alias)
            )
            source = ast.Join(
                left=source,
                right=ast.SubquerySource(distinct_inner, alias),
                join_type="left" if conjunct.negated else "inner",
                condition=condition,
            )
            if conjunct.negated:
                kept.append(ast.IsNull(ast.ColumnRef(column, table=alias)))

        where = None
        for conjunct in kept:
            where = conjunct if where is None else ast.BinaryOp("and", where, conjunct)
        return dataclasses.replace(select, source=source, where=where)

    def _plan_union(self, union: ast.UnionAll) -> LogicalNode:
        """UNION ALL: analyze every branch; arities must match, the first
        branch's names/types win (Hive's positional union semantics)."""
        branches = [self.analyze(branch) for branch in union.branches]
        width = len(branches[0].signature)
        for position, branch in enumerate(branches[1:], start=2):
            if len(branch.signature) != width:
                raise SemanticError(
                    f"UNION ALL branch {position} has {len(branch.signature)} "
                    f"columns, expected {width}"
                )
        return UnionNode(inputs=branches)

    # -- FROM --------------------------------------------------------------
    def _build_source(self, source: ast.Source) -> LogicalNode:
        if isinstance(source, ast.TableRef):
            table = self.metastore.get_table(source.name)
            return Scan(table, source.binding)
        if isinstance(source, ast.SubquerySource):
            child = self.analyze(source.query)
            # expose the subquery's outputs under its alias
            child.signature = RowSignature(
                [
                    FieldInfo(source.binding, info.name, info.dtype)
                    for info in child.signature.fields
                ]
            )
            return child
        if isinstance(source, ast.Join):
            return self._build_join(source)
        raise SemanticError(f"unsupported FROM item: {type(source).__name__}")

    def _build_join(self, join: ast.Join) -> LogicalNode:
        left = self._build_source(join.left)
        right = self._build_source(join.right)
        concat = left.signature.concat(right.signature)
        left_width = len(left.signature)

        left_keys: List[BoundExpression] = []
        right_keys: List[BoundExpression] = []
        residuals: List[BoundExpression] = []

        if join.condition is not None:
            bound = require_boolean(self._bind(join.condition, concat), "ON")
            for conjunct in split_conjuncts(bound):
                pair = self._as_equi_key(conjunct, left_width)
                if pair is not None:
                    left_key, right_key = pair
                    left_keys.append(left_key)
                    right_keys.append(shift_input_refs(right_key, -left_width))
                else:
                    residuals.append(conjunct)

        # side-pure residuals can run below the join (inner joins only;
        # for LEFT joins the right side must not be pre-filtered by ON)
        kept: List[BoundExpression] = []
        for conjunct in residuals:
            refs = collect_input_refs(conjunct)
            if join.join_type == "inner" and refs and all(r < left_width for r in refs):
                left = Filter(left, conjunct)
            elif (
                join.join_type == "inner"
                and refs
                and all(r >= left_width for r in refs)
            ):
                right = Filter(right, shift_input_refs(conjunct, -left_width))
            else:
                kept.append(conjunct)

        return JoinNode(
            left=left,
            right=right,
            join_type=join.join_type,
            left_keys=left_keys,
            right_keys=right_keys,
            residual=conjoin(kept),
        )

    @staticmethod
    def _as_equi_key(
        conjunct: BoundExpression, left_width: int
    ) -> Optional[Tuple[BoundExpression, BoundExpression]]:
        if not isinstance(conjunct, bexpr.Comparison) or conjunct.op != "=":
            return None
        left_refs = collect_input_refs(conjunct.left)
        right_refs = collect_input_refs(conjunct.right)
        if not left_refs or not right_refs:
            return None  # constant side: stays a residual/filter
        if all(r < left_width for r in left_refs) and all(
            r >= left_width for r in right_refs
        ):
            return conjunct.left, conjunct.right
        if all(r >= left_width for r in left_refs) and all(
            r < left_width for r in right_refs
        ):
            return conjunct.right, conjunct.left
        return None

    # -- predicate pushdown --------------------------------------------------
    def _push_filter(self, node: LogicalNode, predicate: BoundExpression) -> LogicalNode:
        remaining: List[BoundExpression] = []
        for conjunct in split_conjuncts(predicate):
            pushed = self._try_push(node, conjunct)
            if pushed is None:
                remaining.append(conjunct)
        residue = conjoin(remaining)
        return Filter(node, residue) if residue is not None else node

    def _try_push(
        self, node: LogicalNode, conjunct: BoundExpression
    ) -> Optional[LogicalNode]:
        """Push one conjunct below joins in place; returns the node if the
        push happened, None if the caller must keep the filter."""
        if isinstance(node, JoinNode):
            refs = collect_input_refs(conjunct)
            left_width = len(node.left.signature)
            if refs and all(r < left_width for r in refs):
                if self._try_push(node.left, conjunct) is None:
                    node.left = Filter(node.left, conjunct)
                return node
            if (
                refs
                and all(r >= left_width for r in refs)
                and node.join_type == "inner"
            ):
                shifted = shift_input_refs(conjunct, -left_width)
                if self._try_push(node.right, shifted) is None:
                    node.right = Filter(node.right, shifted)
                return node
            return None
        if isinstance(node, Filter):
            return self._try_push(node.child, conjunct)
        return None  # Scan/subquery: caller wraps in Filter directly above

    # -- aggregation -----------------------------------------------------------
    def _plan_aggregate(
        self, select: ast.Select, node: LogicalNode
    ) -> Tuple[LogicalNode, _AggContext]:
        signature = node.signature

        group_asts = list(select.group_by)
        group_bound = [self._bind(expr, signature) for expr in group_asts]
        group_names = []
        for position, expr in enumerate(group_asts):
            if isinstance(expr, ast.ColumnRef):
                group_names.append(expr.name.lower())
            else:
                group_names.append(f"_g{position}")

        # collect every distinct aggregate call appearing downstream
        call_asts: List[ast.FunctionCall] = []
        scan_targets: List[ast.Expression] = [
            item.expression for item in select.items
        ]
        if select.having is not None:
            scan_targets.append(select.having)
        for order in select.order_by:
            scan_targets.append(order.expression)
        for target in scan_targets:
            if isinstance(target, ast.Star):
                continue
            for sub in ast.walk_expression(target):
                if isinstance(sub, ast.FunctionCall) and is_aggregate(sub.name):
                    if not any(sub == known for known in call_asts):
                        call_asts.append(sub)

        calls: List[AggregateCall] = []
        for position, call in enumerate(call_asts):
            for argument in call.args:
                if expr_has_aggregate(argument):
                    raise SemanticError("nested aggregates are not allowed")
            aggregate = get_aggregate(call.name, call.distinct)
            if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
                argument_bound = None
                arg_type = None
            else:
                if len(call.args) != 1:
                    raise SemanticError(f"{call.name} takes exactly one argument")
                argument_bound = self._bind(call.args[0], signature)
                arg_type = argument_bound.dtype
            calls.append(
                AggregateCall(
                    aggregate=aggregate,
                    argument=argument_bound,
                    name=f"_agg{position}",
                    dtype=aggregate.result_type(arg_type),
                    distinct=call.distinct,
                )
            )

        agg_node = AggregateNode(
            child=node,
            group_expressions=group_bound,
            group_names=group_names,
            calls=calls,
        )
        context = _AggContext(group_asts, call_asts, agg_node.signature)
        return agg_node, context

    # -- projection ------------------------------------------------------------
    def _plan_projection(
        self,
        select: ast.Select,
        node: LogicalNode,
        agg_context: Optional[_AggContext],
    ) -> LogicalNode:
        expressions: List[BoundExpression] = []
        names: List[str] = []
        for position, item in enumerate(select.items):
            if isinstance(item.expression, ast.Star):
                if agg_context is not None:
                    raise SemanticError("SELECT * cannot be combined with GROUP BY")
                star = item.expression
                for index, info in enumerate(node.signature.fields):
                    if star.table is not None and info.binding != star.table.lower():
                        continue
                    expressions.append(InputRef(index, info.dtype))
                    names.append(info.name)
                continue
            bound = self._bind(item.expression, node.signature, agg_context=agg_context)
            expressions.append(bound)
            if item.alias:
                names.append(item.alias.lower())
            elif isinstance(item.expression, ast.ColumnRef):
                names.append(item.expression.name.lower())
            else:
                names.append(f"_c{position}")
        return Project(node, expressions, names)

    # -- order by ---------------------------------------------------------------
    def _plan_order_by(
        self,
        select: ast.Select,
        node: LogicalNode,
        agg_context: Optional[_AggContext],
    ) -> LogicalNode:
        """ORDER BY binds against the select outputs (aliases and repeated
        expressions); for non-aggregate queries it may also reference
        source columns, which are carried as hidden sort columns and
        trimmed after the sort (Hive's behaviour)."""
        sort_expressions: List[BoundExpression] = []
        ascending: List[bool] = []
        hidden: List[BoundExpression] = []  # exprs over the pre-projection row
        visible_width = len(node.signature)

        for order in select.order_by:
            bound: Optional[BoundExpression] = None
            expr = order.expression
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int) \
                    and not isinstance(expr.value, bool):
                # ORDER BY <ordinal> (1-based select position)
                ordinal = expr.value
                if not 1 <= ordinal <= visible_width:
                    raise SemanticError(
                        f"ORDER BY position {ordinal} is out of range 1..{visible_width}"
                    )
                info = node.signature.fields[ordinal - 1]
                bound = InputRef(ordinal - 1, info.dtype)
            if bound is None and isinstance(expr, ast.ColumnRef) and expr.table is None:
                try:
                    index, dtype = node.signature.resolve(expr.name)
                    bound = InputRef(index, dtype)
                except SemanticError:
                    bound = None
            if bound is None:
                # expression identical to a select item -> order by that output
                for position, item in enumerate(select.items):
                    if not isinstance(item.expression, ast.Star) and item.expression == expr:
                        info = node.signature.fields[position]
                        bound = InputRef(position, info.dtype)
                        break
            if bound is None and agg_context is None and isinstance(node, Project):
                # hidden sort column over the projection's input
                try:
                    under = self._bind(expr, node.child.signature)
                except SemanticError:
                    under = None
                if under is not None:
                    hidden.append(under)
                    bound = InputRef(visible_width + len(hidden) - 1, under.dtype)
            if bound is None:
                raise SemanticError(
                    f"ORDER BY expression must name a select output: {expr}"
                )
            sort_expressions.append(bound)
            ascending.append(order.ascending)

        if hidden:
            widened = Project(
                node.child,
                list(node.expressions) + hidden,
                list(node.names) + [f"_sort{i}" for i in range(len(hidden))],
            )
            sorted_node = SortNode(widened, sort_expressions, ascending)
            trim = [
                InputRef(i, widened.signature.fields[i].dtype)
                for i in range(visible_width)
            ]
            return Project(sorted_node, trim, list(node.names))
        return SortNode(node, sort_expressions, ascending)

    # -- expression binding -------------------------------------------------------
    def _bind(
        self,
        expression: ast.Expression,
        signature: RowSignature,
        agg_context: Optional[_AggContext] = None,
    ) -> BoundExpression:
        if agg_context is not None:
            # group-by expressions and aggregate calls resolve to positions
            # in the aggregate output row
            for position, group in enumerate(agg_context.group_asts):
                if expression == group:
                    info = agg_context.signature.fields[position]
                    return InputRef(position, info.dtype)
            base = len(agg_context.group_asts)
            for position, call in enumerate(agg_context.call_asts):
                if expression == call:
                    info = agg_context.signature.fields[base + position]
                    return InputRef(base + position, info.dtype)
            signature = agg_context.signature  # remaining names resolve here

        if isinstance(expression, ast.Literal):
            return Const(expression.value, self._literal_type(expression.value))

        if isinstance(expression, ast.ColumnRef):
            index, dtype = signature.resolve(expression.name, expression.table)
            return InputRef(index, dtype)

        if isinstance(expression, ast.BinaryOp):
            return self._bind_binary(expression, signature, agg_context)

        if isinstance(expression, ast.UnaryOp):
            operand = self._bind(expression.operand, signature, agg_context)
            if expression.op == "not":
                return bexpr.LogicalNot(operand=require_boolean(operand, "NOT operand"))
            if expression.op == "-":
                zero = Const(0, operand.dtype if operand.dtype.is_numeric else DataType.DOUBLE)
                return bexpr.Arithmetic(
                    "-", zero, operand, dtype=self._numeric_type(operand, operand)
                )
            raise SemanticError(f"unknown unary operator {expression.op!r}")

        if isinstance(expression, ast.FunctionCall):
            if is_aggregate(expression.name):
                raise SemanticError(
                    f"aggregate {expression.name} not allowed in this context"
                )
            if not is_scalar(expression.name):
                raise SemanticError(f"unknown function: {expression.name}")
            function = get_scalar(expression.name)
            if not (function.min_args <= len(expression.args) <= function.max_args):
                raise SemanticError(
                    f"{function.name} expects {function.min_args}..{function.max_args} args"
                )
            args = [self._bind(arg, signature, agg_context) for arg in expression.args]
            dtype = function.infer_type([arg.dtype for arg in args])
            return bexpr.ScalarCall(function=function, args=args, dtype=dtype)

        if isinstance(expression, ast.CaseWhen):
            branches = [
                (
                    self._bind(condition, signature, agg_context),
                    self._bind(value, signature, agg_context),
                )
                for condition, value in expression.branches
            ]
            else_value = (
                self._bind(expression.else_value, signature, agg_context)
                if expression.else_value is not None
                else None
            )
            dtype = branches[0][1].dtype if branches else DataType.STRING
            return bexpr.CaseExpr(branches=branches, else_value=else_value, dtype=dtype)

        if isinstance(expression, ast.Between):
            operand = self._bind(expression.operand, signature, agg_context)
            low = self._bind(expression.low, signature, agg_context)
            high = self._bind(expression.high, signature, agg_context)
            inside = bexpr.LogicalAnd(
                operands=[
                    bexpr.Comparison(">=", operand, low),
                    bexpr.Comparison("<=", operand, high),
                ]
            )
            return bexpr.LogicalNot(operand=inside) if expression.negated else inside

        if isinstance(expression, ast.InList):
            operand = self._bind(expression.operand, signature, agg_context)
            if all(isinstance(item, ast.Literal) for item in expression.items):
                values = frozenset(item.value for item in expression.items)
                return bexpr.InSet(
                    operand=operand, values=values, negated=expression.negated
                )
            comparisons = [
                bexpr.Comparison(
                    "=", operand, self._bind(item, signature, agg_context)
                )
                for item in expression.items
            ]
            union: BoundExpression = bexpr.LogicalOr(operands=comparisons)
            return bexpr.LogicalNot(operand=union) if expression.negated else union

        if isinstance(expression, ast.Like):
            operand = self._bind(expression.operand, signature, agg_context)
            pattern = expression.pattern
            if not isinstance(pattern, ast.Literal) or not isinstance(pattern.value, str):
                raise SemanticError("LIKE pattern must be a string literal")
            return bexpr.LikeExpr(
                operand=operand, pattern=pattern.value, negated=expression.negated
            )

        if isinstance(expression, ast.IsNull):
            operand = self._bind(expression.operand, signature, agg_context)
            return bexpr.IsNullExpr(operand=operand, negated=expression.negated)

        if isinstance(expression, ast.Cast):
            operand = self._bind(expression.operand, signature, agg_context)
            return bexpr.CastExpr(
                operand=operand, dtype=DataType.from_name(expression.type_name)
            )

        raise SemanticError(f"cannot bind expression {type(expression).__name__}")

    def _bind_binary(
        self,
        expression: ast.BinaryOp,
        signature: RowSignature,
        agg_context: Optional[_AggContext],
    ) -> BoundExpression:
        op = expression.op
        left = self._bind(expression.left, signature, agg_context)
        right = self._bind(expression.right, signature, agg_context)
        if op in ("and", "or"):
            operands = [require_boolean(side, f"{op.upper()} operand") for side in (left, right)]
            logical = bexpr.LogicalAnd if op == "and" else bexpr.LogicalOr
            return logical(operands=operands)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return bexpr.Comparison(op, left, right)
        if op in ("+", "-", "*", "/", "%"):
            return bexpr.Arithmetic(op, left, right, dtype=self._numeric_type(left, right, op))
        raise SemanticError(f"unknown operator {op!r}")

    @staticmethod
    def _numeric_type(
        left: BoundExpression, right: BoundExpression, op: str = "+"
    ) -> DataType:
        if op == "/":
            return DataType.DOUBLE
        integers = (DataType.INT, DataType.BIGINT)
        if left.dtype in integers and right.dtype in integers:
            return DataType.BIGINT
        return DataType.DOUBLE

    @staticmethod
    def _literal_type(value: object) -> DataType:
        if isinstance(value, bool):
            return DataType.BOOLEAN
        if isinstance(value, int):
            return DataType.BIGINT
        if isinstance(value, float):
            return DataType.DOUBLE
        return DataType.STRING
