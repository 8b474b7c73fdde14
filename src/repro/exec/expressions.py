"""Bound expressions: index-resolved, NULL-aware, evaluated two ways.

The analyzer turns parser AST (names) into these nodes (row positions).
Each node then has exactly two evaluators that share no logic:

* :meth:`BoundExpression.compile` — a plain ``row -> value`` closure
  tree.  Only the reference executor (``engines/local.py``, through the
  row operators) uses it; it is deliberately un-optimized so that it
  stays an independent oracle.
* :func:`_emit` — Python source over column lists, assembled by the
  ``codegen_*_kernel`` family into one generated function per operator.
  Every production engine task runs these and nothing else.

Semantics follow Hive:

* three-valued logic — comparisons with NULL yield NULL; ``AND``/``OR``
  propagate unknowns; filters keep a row only when the predicate is
  exactly TRUE;
* ``int / int`` is double division; ``%`` keeps integer semantics;
* ``LIKE`` supports ``%`` and ``_``.
"""

from __future__ import annotations

import operator
import re
import zlib
from dataclasses import dataclass, field
from itertools import accumulate
from types import CodeType
from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError, SemanticError
from repro.common.kv import serialize_fields
from repro.common.lru import LruCache
from repro.common.rows import DataType
from repro.obs import get_metrics
from repro.sql.functions import (
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    ScalarFunction,
    SumAggregate,
)

Row = Tuple[object, ...]
Evaluator = Callable[[Row], object]


class BoundExpression:
    """Base class; every node knows its result type."""

    dtype: DataType = DataType.STRING

    def compile(self) -> Evaluator:
        raise NotImplementedError


@dataclass
class InputRef(BoundExpression):
    index: int
    dtype: DataType = DataType.STRING

    def compile(self) -> Evaluator:
        index = self.index
        return lambda row: row[index]


@dataclass
class Const(BoundExpression):
    value: object
    dtype: DataType = DataType.STRING

    def compile(self) -> Evaluator:
        value = self.value
        return lambda row: value


@dataclass
class Arithmetic(BoundExpression):
    op: str
    left: BoundExpression
    right: BoundExpression
    dtype: DataType = DataType.DOUBLE

    def compile(self) -> Evaluator:
        left, right = self.left.compile(), self.right.compile()
        op = self.op

        if op == "+":
            def evaluate(row):
                a, b = left(row), right(row)
                return None if a is None or b is None else a + b
        elif op == "-":
            def evaluate(row):
                a, b = left(row), right(row)
                return None if a is None or b is None else a - b
        elif op == "*":
            def evaluate(row):
                a, b = left(row), right(row)
                return None if a is None or b is None else a * b
        elif op == "/":
            def evaluate(row):
                a, b = left(row), right(row)
                if a is None or b is None or b == 0:
                    return None  # Hive yields NULL on division by zero
                return a / b
        elif op == "%":
            def evaluate(row):
                a, b = left(row), right(row)
                if a is None or b is None or b == 0:
                    return None
                return a % b
        else:
            raise ExecutionError(f"unknown arithmetic op {op!r}")
        return evaluate


@dataclass
class Comparison(BoundExpression):
    op: str  # '=', '<>', '<', '<=', '>', '>='
    left: BoundExpression
    right: BoundExpression
    dtype: DataType = DataType.BOOLEAN

    def compile(self) -> Evaluator:
        left, right = self.left.compile(), self.right.compile()
        op = self.op
        if op == "=":
            compare = lambda a, b: a == b
        elif op == "<>":
            compare = lambda a, b: a != b
        elif op == "<":
            compare = lambda a, b: a < b
        elif op == "<=":
            compare = lambda a, b: a <= b
        elif op == ">":
            compare = lambda a, b: a > b
        elif op == ">=":
            compare = lambda a, b: a >= b
        else:
            raise ExecutionError(f"unknown comparison {op!r}")

        def evaluate(row):
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            return compare(a, b)

        return evaluate


@dataclass
class LogicalAnd(BoundExpression):
    operands: List[BoundExpression] = field(default_factory=list)
    dtype: DataType = DataType.BOOLEAN

    def compile(self) -> Evaluator:
        compiled = [operand.compile() for operand in self.operands]

        def evaluate(row):
            saw_null = False
            for evaluator in compiled:
                value = evaluator(row)
                if value is None:
                    saw_null = True
                elif not value:
                    return False
            return None if saw_null else True

        return evaluate


@dataclass
class LogicalOr(BoundExpression):
    operands: List[BoundExpression] = field(default_factory=list)
    dtype: DataType = DataType.BOOLEAN

    def compile(self) -> Evaluator:
        compiled = [operand.compile() for operand in self.operands]

        def evaluate(row):
            saw_null = False
            for evaluator in compiled:
                value = evaluator(row)
                if value is None:
                    saw_null = True
                elif value:
                    return True
            return None if saw_null else False

        return evaluate


@dataclass
class LogicalNot(BoundExpression):
    operand: BoundExpression = None
    dtype: DataType = DataType.BOOLEAN

    def compile(self) -> Evaluator:
        inner = self.operand.compile()

        def evaluate(row):
            value = inner(row)
            return None if value is None else not value

        return evaluate


@dataclass
class ScalarCall(BoundExpression):
    function: ScalarFunction = None
    args: List[BoundExpression] = field(default_factory=list)
    dtype: DataType = DataType.STRING

    def compile(self) -> Evaluator:
        impl = self.function.impl
        compiled = [arg.compile() for arg in self.args]
        if len(compiled) == 1:
            only = compiled[0]
            return lambda row: impl(only(row))
        if len(compiled) == 2:
            first, second = compiled
            return lambda row: impl(first(row), second(row))
        return lambda row: impl(*[evaluator(row) for evaluator in compiled])


@dataclass
class CaseExpr(BoundExpression):
    branches: List[Tuple[BoundExpression, BoundExpression]] = field(default_factory=list)
    else_value: Optional[BoundExpression] = None
    dtype: DataType = DataType.STRING

    def compile(self) -> Evaluator:
        compiled = [(cond.compile(), value.compile()) for cond, value in self.branches]
        otherwise = self.else_value.compile() if self.else_value else (lambda row: None)

        def evaluate(row):
            for condition, value in compiled:
                if condition(row):
                    return value(row)
            return otherwise(row)

        return evaluate


@dataclass
class LikeExpr(BoundExpression):
    operand: BoundExpression = None
    pattern: str = ""
    negated: bool = False
    dtype: DataType = DataType.BOOLEAN

    def compile(self) -> Evaluator:
        regex = re.compile(_like_to_regex(self.pattern), re.DOTALL)
        inner = self.operand.compile()
        negated = self.negated

        def evaluate(row):
            value = inner(row)
            if value is None:
                return None
            matched = regex.fullmatch(str(value)) is not None
            return not matched if negated else matched

        return evaluate


@dataclass
class InSet(BoundExpression):
    """Membership test against a literal set (the common TPC-H shape)."""

    operand: BoundExpression = None
    values: frozenset = frozenset()
    negated: bool = False
    dtype: DataType = DataType.BOOLEAN

    def compile(self) -> Evaluator:
        inner = self.operand.compile()
        values = self.values
        negated = self.negated

        def evaluate(row):
            value = inner(row)
            if value is None:
                return None
            contained = value in values
            return not contained if negated else contained

        return evaluate


@dataclass
class IsNullExpr(BoundExpression):
    operand: BoundExpression = None
    negated: bool = False
    dtype: DataType = DataType.BOOLEAN

    def compile(self) -> Evaluator:
        inner = self.operand.compile()
        negated = self.negated
        if negated:
            return lambda row: inner(row) is not None
        return lambda row: inner(row) is None


@dataclass
class CastExpr(BoundExpression):
    operand: BoundExpression = None
    dtype: DataType = DataType.STRING

    def compile(self) -> Evaluator:
        inner = self.operand.compile()
        target = self.dtype

        def evaluate(row):
            value = inner(row)
            if value is None:
                return None
            try:
                if target in (DataType.INT, DataType.BIGINT):
                    return int(float(value))
                if target is DataType.DOUBLE:
                    return float(value)
                if target is DataType.BOOLEAN:
                    return bool(value)
                return str(value)
            except (TypeError, ValueError):
                return None  # Hive casts malformed values to NULL

        return evaluate


def _like_to_regex(pattern: str) -> str:
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return "".join(out)


def compile_expression(expression: BoundExpression) -> Evaluator:
    """Compile one expression for the reference row operators."""
    return expression.compile()


def compile_many(expressions: List[BoundExpression]) -> Callable[[Row], Row]:
    """Compile a projection list into a ``row -> tuple`` closure: an
    all-column-reference list becomes a single ``itemgetter``, small
    arities unroll the tuple construction instead of paying a generator
    per row."""
    if not expressions:
        return lambda row: ()
    if all(type(expression) is InputRef for expression in expressions):
        indices = [expression.index for expression in expressions]
        if len(indices) == 1:
            index = indices[0]
            return lambda row: (row[index],)
        return operator.itemgetter(*indices)
    compiled = [expression.compile() for expression in expressions]
    if len(compiled) == 1:
        only = compiled[0]
        return lambda row: (only(row),)
    if len(compiled) == 2:
        first, second = compiled
        return lambda row: (first(row), second(row))
    if len(compiled) == 3:
        first, second, third = compiled
        return lambda row: (first(row), second(row), third(row))
    if len(compiled) == 4:
        first, second, third, fourth = compiled
        return lambda row: (first(row), second(row), third(row), fourth(row))
    return lambda row: tuple([evaluator(row) for evaluator in compiled])


# ---------------------------------------------------------------------------
# column-kernel codegen (production execution; see repro.exec.vectorized)
# ---------------------------------------------------------------------------
#
# Each kernel compiles one operator's whole per-batch work into a single
# generated function running ONE ``for i in sel:`` loop over column lists
# (``col{idx}`` locals — a distinct prefix from the ``c{n}`` environment
# constants).  The emitter covers every node class above and the five
# aggregates the planner places map-side, so kernel construction is
# total: there is no second mode to fall back to.

_ARITH_TEMPLATES = {
    "+": "{n} = None if {a} is None or {b} is None else {a} + {b}",
    "-": "{n} = None if {a} is None or {b} is None else {a} - {b}",
    "*": "{n} = None if {a} is None or {b} is None else {a} * {b}",
    "/": "{n} = None if {a} is None or {b} is None or {b} == 0 else {a} / {b}",
    "%": "{n} = None if {a} is None or {b} is None or {b} == 0 else {a} % {b}",
}

_COMPARE_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _cast_callable(target: DataType) -> Callable[[object], object]:
    """Value-level CAST (same semantics as :meth:`CastExpr.compile`)."""
    def cast(value):
        if value is None:
            return None
        try:
            if target in (DataType.INT, DataType.BIGINT):
                return int(float(value))
            if target is DataType.DOUBLE:
                return float(value)
            if target is DataType.BOOLEAN:
                return bool(value)
            return str(value)
        except (TypeError, ValueError):
            return None  # Hive casts malformed values to NULL
    return cast


def _emit(expression: BoundExpression, lines: List[str], env: dict,
          counter: List[int], indent: str,
          ref: Callable[[int], str]) -> str:
    """Append statements evaluating *expression*; returns a cheap atom
    (a temp name, an input reference or a bound constant) holding its
    value.  *ref* renders an :class:`InputRef` atom (``col{i}[i]``, see
    :func:`_column_ref`).  The emitter is total over the node classes of
    this module; anything else raises :class:`ExecutionError`."""
    kind = type(expression)
    if kind is InputRef:
        return ref(expression.index)
    if kind is Const:
        name = f"c{len(env)}"
        env[name] = expression.value
        return name
    if kind is Arithmetic:
        template = _ARITH_TEMPLATES.get(expression.op)
        if template is None:
            raise ExecutionError(f"unknown arithmetic op {expression.op!r}")
        a = _emit(expression.left, lines, env, counter, indent, ref)
        b = _emit(expression.right, lines, env, counter, indent, ref)
        name = f"v{counter[0]}"
        counter[0] += 1
        lines.append(indent + template.format(n=name, a=a, b=b))
        return name
    if kind is Comparison:
        pyop = _COMPARE_OPS.get(expression.op)
        if pyop is None:
            raise ExecutionError(f"unknown comparison {expression.op!r}")
        a = _emit(expression.left, lines, env, counter, indent, ref)
        b = _emit(expression.right, lines, env, counter, indent, ref)
        name = f"v{counter[0]}"
        counter[0] += 1
        lines.append(
            f"{indent}{name} = None if {a} is None or {b} is None "
            f"else {a} {pyop} {b}"
        )
        return name
    if kind is ScalarCall:
        args = [
            _emit(arg, lines, env, counter, indent, ref)
            for arg in expression.args
        ]
        impl_name = f"f{len(env)}"
        env[impl_name] = expression.function.impl
        name = f"v{counter[0]}"
        counter[0] += 1
        lines.append(f"{indent}{name} = {impl_name}({', '.join(args)})")
        return name
    if kind is IsNullExpr:
        atom = _emit(expression.operand, lines, env, counter, indent, ref)
        name = f"v{counter[0]}"
        counter[0] += 1
        test = "is not None" if expression.negated else "is None"
        lines.append(f"{indent}{name} = {atom} {test}")
        return name
    if kind is InSet:
        atom = _emit(expression.operand, lines, env, counter, indent, ref)
        set_name = f"c{len(env)}"
        env[set_name] = expression.values
        name = f"v{counter[0]}"
        counter[0] += 1
        membership = "not in" if expression.negated else "in"
        lines.append(
            f"{indent}{name} = None if {atom} is None "
            f"else {atom} {membership} {set_name}"
        )
        return name
    if kind is LikeExpr:
        atom = _emit(expression.operand, lines, env, counter, indent, ref)
        match_name = f"f{len(env)}"
        env[match_name] = re.compile(
            _like_to_regex(expression.pattern), re.DOTALL
        ).fullmatch
        name = f"v{counter[0]}"
        counter[0] += 1
        test = "is None" if expression.negated else "is not None"
        lines.append(
            f"{indent}{name} = None if {atom} is None "
            f"else {match_name}(str({atom})) {test}"
        )
        return name
    if kind is CastExpr:
        atom = _emit(expression.operand, lines, env, counter, indent, ref)
        cast_name = f"f{len(env)}"
        env[cast_name] = _cast_callable(expression.dtype)
        name = f"v{counter[0]}"
        counter[0] += 1
        lines.append(f"{indent}{name} = {cast_name}({atom})")
        return name
    if kind is CaseExpr:
        name = f"v{counter[0]}"
        counter[0] += 1

        def emit_branches(branches, level: str) -> None:
            if not branches:
                if expression.else_value is not None:
                    atom = _emit(
                        expression.else_value, lines, env, counter, level, ref
                    )
                    lines.append(f"{level}{name} = {atom}")
                else:
                    lines.append(f"{level}{name} = None")
                return
            condition, value = branches[0]
            cond_atom = _emit(condition, lines, env, counter, level, ref)
            lines.append(f"{level}if {cond_atom}:")
            value_atom = _emit(value, lines, env, counter, level + "    ", ref)
            lines.append(f"{level}    {name} = {value_atom}")
            lines.append(f"{level}else:")
            emit_branches(branches[1:], level + "    ")

        emit_branches(list(expression.branches), indent)
        return name
    if kind is LogicalNot:
        atom = _emit(expression.operand, lines, env, counter, indent, ref)
        name = f"v{counter[0]}"
        counter[0] += 1
        lines.append(f"{indent}{name} = None if {atom} is None else not {atom}")
        return name
    if kind is LogicalAnd or kind is LogicalOr:
        return _emit_logical(
            expression.operands, kind is LogicalAnd, lines, env, counter,
            indent, ref,
        )
    raise ExecutionError(f"no column kernel for expression {kind.__name__}")


def _emit_logical(operands: List[BoundExpression], is_and: bool,
                  lines: List[str], env: dict, counter: List[int],
                  indent: str, ref: Callable[[int], str]) -> str:
    """Three-valued AND/OR with the closure compiler's exact short-circuit:
    stop at the first definitive operand (falsy for AND, truthy for OR),
    otherwise remember NULLs and keep going.  Later operands nest inside
    the continue-branch so they are only evaluated when reached."""
    result = f"v{counter[0]}"
    saw_null = f"v{counter[0] + 1}"
    counter[0] += 2
    lines.append(f"{indent}{saw_null} = False")
    definitive = "False" if is_and else "True"
    exhausted = "True" if is_and else "False"

    def emit_rest(rest: List[BoundExpression], level: str) -> None:
        if not rest:
            lines.append(
                f"{level}{result} = None if {saw_null} else {exhausted}"
            )
            return
        atom = _emit(rest[0], lines, env, counter, level, ref)
        lines.append(f"{level}if {atom} is None:")
        lines.append(f"{level}    {saw_null} = True")
        # continue past NULLs and non-definitive values
        if is_and:
            lines.append(f"{level}if {atom} is None or {atom}:")
        else:
            lines.append(f"{level}if {atom} is None or not {atom}:")
        emit_rest(rest[1:], level + "    ")
        lines.append(f"{level}else:")
        lines.append(f"{level}    {result} = {definitive}")

    emit_rest(list(operands), indent)
    return result



def _emit_aggregate_updates(
    aggregates: List[Tuple[object, List[str]]], lines: List[str], env: dict,
    indent: str, merge: bool = False, own_methods: bool = False,
) -> Tuple[list, List[str]]:
    """Emit per-row statements folding each aggregate's atoms into a flat
    slot list named ``acc``: its argument (``update``), or with *merge*
    the fields of a map-side partial tuple (``merge``).  count, sum, avg,
    min and max — what the planner places map-side — run inline, their
    slots laid out exactly like ``partial()``, so a map-side slot list
    *is* the concatenated partials; sums add left to right with ``+``,
    the order ``Aggregate.update`` / ``merge`` add in (a compensated
    builtin ``sum`` would differ in the last ulp).  With *own_methods*
    (reduce side) any other aggregate — ``COUNT(DISTINCT)``, which has no
    partial — keeps its accumulator in one slot and goes through its own
    ``create`` / ``update`` / ``merge`` / ``result``.

    Returns the initial slot list (the concatenated ``create()`` tuples)
    and one result expression per aggregate over ``acc``.
    """
    initial: list = []
    results: List[str] = []
    for aggregate, atoms in aggregates:
        kind = type(aggregate)
        atom = atoms[0]
        slot = len(initial)
        here = f"acc[{slot}]"
        results.append(here)
        if kind not in (CountAggregate, SumAggregate, AvgAggregate,
                        MinAggregate, MaxAggregate):
            if not own_methods:
                raise ExecutionError(
                    f"no column kernel for map-side aggregate {kind.__name__}"
                )
            name = f"g{len(env)}"
            env[name] = aggregate
            initial.append(aggregate.create())
            folded = (f"merge({here}, {_tuple_src(atoms)})" if merge
                      else f"update({here}, {atom})")
            lines.append(f"{indent}{here} = {name}.{folded}")
            results[-1] = f"{name}.result({here})"
            continue
        lines.append(f"{indent}if {atom} is not None:")
        if kind is CountAggregate:
            initial.append(0)
            lines.append(f"{indent}    {here} += {atom if merge else 1}")
        elif kind is SumAggregate:
            initial.append(None)
            lines.append(f"{indent}    s{slot} = {here}")
            lines.append(
                f"{indent}    {here} = {atom} if s{slot} is None "
                f"else s{slot} + {atom}"
            )
        elif kind is AvgAggregate:
            initial.extend([0.0, 0])
            count = f"acc[{slot + 1}]"
            lines.append(f"{indent}    {here} += {atom}")
            lines.append(f"{indent}    {count} += {atoms[1] if merge else 1}")
            results[-1] = f"{here} / {count} if {count} else None"
        else:
            initial.append(None)
            beats = "<" if kind is MinAggregate else ">"
            lines.append(f"{indent}    s{slot} = {here}")
            lines.append(
                f"{indent}    if s{slot} is None or {atom} {beats} s{slot}:"
            )
            lines.append(f"{indent}        {here} = {atom}")
    return initial, results



def _column_ref(used: set) -> Callable[[int], str]:
    """Atom renderer for column kernels; records referenced columns."""
    def ref(index: int) -> str:
        used.add(index)
        return f"col{index}[i]"
    return ref


def _column_bindings(used: set) -> List[str]:
    return [f"    col{index} = cols[{index}]" for index in sorted(used)]


def _tuple_src(atoms: List[str]) -> str:
    if not atoms:
        return "()"
    if len(atoms) == 1:
        return f"({atoms[0]},)"
    return "(" + ", ".join(atoms) + ")"


#: Compiled kernel *code*, keyed by source text: ``compile()`` runs once
#: per distinct source per process.  Only code objects live here.  A
#: kernel *function* is still made by ``exec`` into the caller's fresh
#: ``env`` (its constants and bound scalar functions) and still lives on
#: the plan descriptor that asked for it, so this cache can pin neither a
#: plan, a broadcast table nor a session.
KERNEL_CODE_CACHE: "LruCache[str, CodeType]" = LruCache(512)


def _compile_kernel(source: str, env: dict, name: str):
    code = KERNEL_CODE_CACHE.lookup(source)
    if code is None:
        get_metrics().counter("exec.kernel_cache.misses").add(1)
        code = compile(source, "<repro-vector-codegen>", "exec")
        KERNEL_CODE_CACHE.store(source, code)
    else:
        get_metrics().counter("exec.kernel_cache.hits").add(1)
    exec(code, env)
    return env[name]


def codegen_filter_kernel(
    predicate: BoundExpression,
) -> Callable[[List[list], Sequence[int]], List[int]]:
    """``(cols, sel) -> new_sel``: positions where the predicate is TRUE
    (three-valued logic — NULL and FALSE rows are dropped alike)."""
    lines: List[str] = []
    env: dict = {}
    counter = [0]
    used: set = set()
    atom = _emit(predicate, lines, env, counter, "        ", _column_ref(used))
    source = "\n".join(
        ["def _filter_batch(cols, sel):"]
        + _column_bindings(used)
        + [
            "    out = []",
            "    append = out.append",
            "    for i in sel:",
        ]
        + lines
        + [
            f"        if {atom} is True:",
            "            append(i)",
            "    return out",
        ]
    )
    return _compile_kernel(source, env, "_filter_batch")


def codegen_project_kernel(
    expressions: List[BoundExpression],
) -> Callable[[List[list], Sequence[int]], List[list]]:
    """``(cols, sel) -> out_cols``: evaluate a projection list over the
    selected rows, producing dense output columns (none for an empty
    list — the zero-width batch keeps its row count)."""
    lines: List[str] = []
    env: dict = {}
    counter = [0]
    used: set = set()
    atoms = [
        _emit(expression, lines, env, counter, "        ", _column_ref(used))
        for expression in expressions
    ]
    header = ["def _project_batch(cols, sel):"] + _column_bindings(used)
    for position in range(len(atoms)):
        header.append(f"    out{position} = []")
        header.append(f"    a{position} = out{position}.append")
    body = ["    for i in sel:"] + lines + [
        f"        a{position}({atom})" for position, atom in enumerate(atoms)
    ] if atoms else []
    outs = ", ".join(f"out{position}" for position in range(len(atoms)))
    source = "\n".join(header + body + [f"    return [{outs}]"])
    return _compile_kernel(source, env, "_project_batch")


def codegen_keys_kernel(
    expressions: List[BoundExpression],
) -> Callable[[List[list], Sequence[int]], list]:
    """``(cols, sel) -> keys``: one key tuple per selected row, with
    ``None`` standing for a key containing NULL (never matches an
    equi-join; the probe loop handles outer-join padding)."""
    lines: List[str] = []
    env: dict = {}
    counter = [0]
    used: set = set()
    atoms = [
        _emit(expression, lines, env, counter, "        ", _column_ref(used))
        for expression in expressions
    ]
    header = ["def _keys_batch(cols, sel):"] + _column_bindings(used) + [
        "    out = []",
        "    append = out.append",
        "    for i in sel:",
    ]
    tail: List[str] = []
    if atoms:
        null_test = " or ".join(f"{atom} is None" for atom in atoms)
        tail += [
            f"        if {null_test}:",
            "            append(None)",
            "        else:",
            f"            append({_tuple_src(atoms)})",
        ]
    else:
        tail += ["        append(())"]
    source = "\n".join(header + lines + tail + ["    return out"])
    return _compile_kernel(source, env, "_keys_batch")


def codegen_group_kernel(
    key_expressions: List[BoundExpression],
    aggregates: List[Tuple[object, Optional[BoundExpression]]],
    max_groups: int,
) -> Tuple[Callable, list, bool]:
    """``(cols, sel, table, initial, flush) -> None``: the whole map-side
    GROUP BY inner loop — key build, hash probe, pressure flush and the
    fused accumulator updates — in one generated frame.  Returns
    ``(kernel, initial_slots, scalar_key)``; a group's slot list is
    exactly its concatenated partial tuples (see
    :func:`_emit_aggregate_updates`).  Single-key grouping probes the
    table with the bare value (``scalar_key`` True): no per-row 1-tuple allocation, and a
    string key's cached hash is reused — equality over scalars matches
    equality over their 1-tuples, so the groups are unchanged.
    """
    lines: List[str] = []
    env: dict = {}
    counter = [0]
    used: set = set()
    ref = _column_ref(used)
    scalar_key = len(key_expressions) == 1
    key_atoms = [
        _emit(expression, lines, env, counter, "        ", ref)
        for expression in key_expressions
    ]
    probe = [
        f"        k = {key_atoms[0] if scalar_key else _tuple_src(key_atoms)}",
        "        acc = table_get(k)",
        "        if acc is None:",
        f"            if len(table) >= {int(max_groups)}:",
        "                flush()",
        "            acc = initial[:]",
        "            table[k] = acc",
    ]
    agg_lines: List[str] = []
    # COUNT(*) has no argument: it counts the sentinel True
    initial, _results = _emit_aggregate_updates(
        [(aggregate, [_emit(arg if arg is not None else Const(True), agg_lines,
                            env, counter, "        ", ref)])
         for aggregate, arg in aggregates],
        agg_lines, env, "        ",
    )
    source = "\n".join(
        ["def _group_batch(cols, sel, table, initial, flush):"]
        + _column_bindings(used)
        + ["    table_get = table.get", "    for i in sel:"]
        + lines
        + probe
        + agg_lines
    )
    return _compile_kernel(source, env, "_group_batch"), initial, scalar_key


def codegen_reduce_aggregate_kernel(
    aggregates: List[object], partial_arities: Optional[List[int]]
) -> Callable[[Sequence[int], Sequence[int], List[Sequence]], List[list]]:
    """``(order, ends, cols, initial) -> out_cols``: the reduce-side GROUP
    BY loop over value columns — the map-side group kernel's sibling,
    built from the same statements (:func:`_emit_aggregate_updates`).
    *order* is the sorted permutation, *ends* each group's end within
    it; one result per aggregate per group.  With *partial_arities* the
    columns are the concatenated map-side partial tuples (merge), with
    ``None`` one raw argument column per aggregate (update).  Returns
    ``(kernel, initial_slots)``.
    """
    env: dict = {}
    used: set = set()
    ref = _column_ref(used)
    arities = partial_arities or [1] * len(aggregates)
    starts = accumulate(arities, initial=0)  # each partial's first column
    lines: List[str] = []
    initial, results = _emit_aggregate_updates(
        [(aggregate, [ref(start + part) for part in range(arity)])
         for aggregate, start, arity in zip(aggregates, starts, arities)],
        lines, env, "            ", merge=partial_arities is not None,
        own_methods=True,
    )
    outs = [f"out{position}" for position in range(len(aggregates))]
    source = "\n".join(
        ["def _reduce_groups(order, ends, cols, initial):"]
        + _column_bindings(used)
        + [f"    {out} = []" for out in outs]
        + ["    start = 0", "    for end in ends:", "        acc = initial[:]",
           "        for i in order[start:end]:"]
        + (lines or ["            pass"])
        + ["        start = end"]
        + [f"        {out}.append({result})" for out, result in zip(outs, results)]
        + [f"    return [{', '.join(outs)}]"]
    )
    return _compile_kernel(source, env, "_reduce_groups"), initial


def stable_hash(fields: Tuple[object, ...]) -> int:
    """Deterministic cross-process hash of a key tuple (CRC32 of the wire
    encoding) — Python's builtin ``hash`` is salted per process, which
    would make the two engines partition differently."""
    return zlib.crc32(serialize_fields(fields)) & 0x7FFFFFFF


def require_boolean(expression: BoundExpression, context: str) -> BoundExpression:
    if expression.dtype is not DataType.BOOLEAN:
        raise SemanticError(f"{context} must be boolean, got {expression.dtype}")
    return expression
