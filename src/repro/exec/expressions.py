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
from typing import (
    Callable,
    Container,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

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
#
# The emitter tracks *nullability per atom*.  A kernel is generated for
# a set of NULL-free input columns (``ColumnBatch.no_nulls``; empty when
# nothing is known); :func:`_emit` returns ``(atom, maybe_null)`` and a
# NULL guard is emitted only for an atom that can be NULL:
#
# * a never-null atom is an inline expression (``(c0 - col2[i])``),
#   evaluated where it is used;
# * a maybe-null atom is a name (a guarded ``vN = None if … else …``
#   temporary or a column value loaded into ``x{idx}``), because its
#   guards repeat it.
#
# Structurally equal deterministic subexpressions are emitted once
# (value numbering): the first occurrence is computed into a name and
# later ones read it.  Evaluation keeps the closure compiler's order and
# its short-circuits, so the same operations run on the same values.

_COMPARE_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH_OPS = ("+", "-", "*", "/", "%")

#: node classes whose value, when not NULL, is exactly ``True``/``False``
_BOOLEAN_NODES = (Comparison, LogicalAnd, LogicalOr, LogicalNot, LikeExpr,
                  InSet, IsNullExpr)


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


def referenced_columns(expressions: Sequence[BoundExpression]) -> frozenset:
    """The input column indexes *expressions* read."""
    found = set()
    pending = list(expressions)
    while pending:
        node = pending.pop()
        if type(node) is InputRef:
            found.add(node.index)
        elif isinstance(node, BoundExpression):
            pending.extend(vars(node).values())
        elif type(node) in (list, tuple):  # operands, CASE branches
            pending.extend(node)
    return frozenset(found)


class _Codegen:
    """One kernel's generation state: the environment its constants and
    functions are bound in, the facts it is generated for, and the value
    numbers of its expressions (structurally equal subtrees share one)."""

    def __init__(self, expressions: Sequence[BoundExpression],
                 no_nulls: Container[int]):
        self.env: dict = {}
        self.no_nulls = no_nulls  # input columns that hold no NULL
        self.used: set = set()    # input columns referenced
        self._temps = 0
        self._numbers: dict = {}  # structural key -> value number
        self._nodes: dict = {}    # id(node) -> (value number, sub-expressions)
        self.volatile: set = set()  # numbers of subtrees calling a function
        self.uses: dict = {}        # value number -> occurrences
        for expression in expressions:
            self._count(expression)

    def number(self, node: BoundExpression) -> int:
        """The value number of *node*."""
        return self._node(node)[0]

    def shared(self, number: int) -> bool:
        """The value occurs more than once in the kernel."""
        return self.uses.get(number, 0) > 1

    def _node(self, node: BoundExpression) -> Tuple[int, list]:
        """``(value number, sub-expressions)`` of *node*, numbering its
        subtree on first sight.  ``Const(1)``, ``Const(1.0)`` and
        ``Const(True)`` are ``==`` but not the same constant, so a
        constant is keyed by type and ``repr``."""
        known = self._nodes.get(id(node))
        if known is not None:
            return known
        children: list = []
        volatile = False
        if type(node) is Const:
            key = (Const, type(node.value), repr(node.value))
        else:
            fields = []
            for value in vars(node).values():
                if isinstance(value, BoundExpression):
                    children.append(value)
                elif type(value) is list:  # operands, arguments, CASE branches
                    for item in value:
                        if type(item) is tuple:
                            children.extend(item)
                        else:
                            children.append(item)
                else:
                    fields.append(value)
            numbers = tuple(map(self.number, children))
            key = (type(node), numbers, tuple(fields))
            # a scalar function is not known to be deterministic
            volatile = (type(node) is ScalarCall
                        or not self.volatile.isdisjoint(numbers))
        number = self._numbers.setdefault(key, len(self._numbers))
        if volatile:
            self.volatile.add(number)
        known = self._nodes[id(node)] = (number, children)
        return known

    def _count(self, node: BoundExpression) -> None:
        number, children = self._node(node)
        seen = self.uses.get(number, 0)
        self.uses[number] = seen + 1
        if not seen:  # a repeated subtree's parts are computed once with it
            for child in children:
                self._count(child)

    def temp(self) -> str:
        self._temps += 1
        return f"v{self._temps - 1}"

    def bind(self, prefix: str, value: object) -> str:
        name = f"{prefix}{len(self.env)}"
        self.env[name] = value
        return name

    def scope(self) -> "_Scope":
        return _Scope(self, {}, True)

    def bindings(self) -> List[str]:
        return [f"col{index} = cols[{index}]" for index in sorted(self.used)]

    def compile(self, lines: List[str], name: str):
        """The kernel function *name* defined by *lines*."""
        counter = get_metrics().counter
        counter("exec.kernel.variants").add(1)
        free = sum(index in self.no_nulls for index in self.used)
        counter("exec.kernel.free_refs").add(free)
        counter("exec.kernel.guarded_refs").add(len(self.used) - free)
        return _compile_kernel("\n".join(lines), self.env, name)


class _Scope:
    """A block of generated statements (relative indentation) and what
    is already computed when control reaches its end: value number ->
    ``(atom, maybe_null)``.  A child scope is a nested block — it reads
    what its parents computed before it, and what it computes stays
    inside (a ``CASE`` branch or a short-circuited operand may not run).
    With *hoist* off no statement is emitted for a never-null value, so
    that a chain of such operands can stay one inline expression."""

    __slots__ = ("gen", "lines", "memo", "hoist")

    def __init__(self, gen: _Codegen, memo: dict, hoist: bool):
        self.gen = gen
        self.lines: List[str] = []
        self.memo = memo
        self.hoist = hoist

    def child(self, hoist: Optional[bool] = None) -> "_Scope":
        return _Scope(self.gen, dict(self.memo),
                      self.hoist if hoist is None else hoist)

    def named(self, atom: str) -> str:
        """*atom* as something cheap to repeat: a compound inline
        expression is computed once, here, into a temporary."""
        if atom.isidentifier():
            return atom
        name = self.gen.temp()
        self.lines.append(f"{name} = {atom}")
        return name

    def guarded(self, operands: List[Tuple[str, bool]], value: str,
                also: str = "") -> Tuple[str, bool]:
        """*value* — a template over the operand atoms (``"{0} + {1}"``)
        — NULL when an operand is, or when the template *also* holds.
        Without a test to make the value stays inline.  With one,
        compound operands are computed first, in order: the guard must
        not skip or reorder their evaluation."""
        atoms = [atom for atom, _maybe in operands]
        if "None" in atoms:  # a NULL literal: decided here, not per row
            for atom in atoms:
                self.named(atom)
            return "None", True
        if not also and not any(maybe for _atom, maybe in operands):
            return f"({value.format(*atoms)})", False
        atoms = [self.named(atom) for atom in atoms]
        tests = [
            f"{atom} is None"
            for atom, (_atom, maybe) in zip(atoms, operands) if maybe
        ]
        if also:
            tests.append(also.format(*atoms))
        name = self.gen.temp()
        self.lines.append(
            f"{name} = None if {' or '.join(tests)} else {value.format(*atoms)}"
        )
        return name, True


def _indented(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def _yields_bool(expression: BoundExpression) -> bool:
    if type(expression) is Const:
        return type(expression.value) is bool
    return isinstance(expression, _BOOLEAN_NODES)


def _emit(expression: BoundExpression, scope: _Scope) -> Tuple[str, bool]:
    """Append to *scope* the statements evaluating *expression*; returns
    ``(atom, maybe_null)``.  A maybe-null atom is a name (or the literal
    ``None``); a never-null atom may be any inline expression, to be
    used once.  The emitter is total over the node classes of this
    module; anything else raises :class:`ExecutionError`."""
    gen = scope.gen
    number = gen.number(expression)
    known = scope.memo.get(number)
    if known is not None:
        return known
    kind = type(expression)
    if kind is InputRef:
        index = expression.index
        gen.used.add(index)
        atom, maybe = f"col{index}[i]", index not in gen.no_nulls
        if maybe or (scope.hoist and gen.shared(number)):
            scope.lines.append(f"x{index} = {atom}")
            atom = f"x{index}"
    elif kind is Const:
        if expression.value is None:
            atom, maybe = "None", True
        else:
            atom, maybe = gen.bind("c", expression.value), False
    elif kind is Arithmetic:
        if expression.op not in _ARITH_OPS:
            raise ExecutionError(f"unknown arithmetic op {expression.op!r}")
        operands = [_emit(expression.left, scope), _emit(expression.right, scope)]
        # Hive yields NULL on division by zero
        atom, maybe = scope.guarded(
            operands, f"{{0}} {expression.op} {{1}}",
            "{1} == 0" if expression.op in "/%" else "",
        )
    elif kind is Comparison:
        pyop = _COMPARE_OPS.get(expression.op)
        if pyop is None:
            raise ExecutionError(f"unknown comparison {expression.op!r}")
        operands = [_emit(expression.left, scope), _emit(expression.right, scope)]
        atom, maybe = scope.guarded(operands, f"{{0}} {pyop} {{1}}")
    elif kind is ScalarCall:
        args = [_emit(arg, scope)[0] for arg in expression.args]
        impl = gen.bind("f", expression.function.impl)
        atom, maybe = gen.temp(), True
        scope.lines.append(f"{atom} = {impl}({', '.join(args)})")
    elif kind is IsNullExpr:
        operand, maybe = _emit(expression.operand, scope)
        if maybe:
            test = "is not None" if expression.negated else "is None"
            atom = f"({operand} {test})"
        else:  # decided here; the operand is still evaluated
            scope.named(operand)
            atom = "True" if expression.negated else "False"
        maybe = False
    elif kind is InSet:
        values = gen.bind("c", expression.values)
        membership = "not in" if expression.negated else "in"
        atom, maybe = scope.guarded(
            [_emit(expression.operand, scope)], f"{{0}} {membership} {values}"
        )
    elif kind is LikeExpr:
        match = gen.bind("f", re.compile(
            _like_to_regex(expression.pattern), re.DOTALL
        ).fullmatch)
        test = "is None" if expression.negated else "is not None"
        atom, maybe = scope.guarded(
            [_emit(expression.operand, scope)], f"{match}(str({{0}})) {test}"
        )
    elif kind is CastExpr:
        operand, _maybe = _emit(expression.operand, scope)
        cast = gen.bind("f", _cast_callable(expression.dtype))
        atom, maybe = gen.temp(), True  # a malformed value casts to NULL
        scope.lines.append(f"{atom} = {cast}({operand})")
    elif kind is CaseExpr:
        atom, maybe = _emit_case(expression, scope)
    elif kind is LogicalNot:
        atom, maybe = scope.guarded(
            [_emit(expression.operand, scope)], "not {0}"
        )
    elif kind is LogicalAnd or kind is LogicalOr:
        atom, maybe = _emit_logical(
            expression.operands, kind is LogicalAnd, scope
        )
    else:
        raise ExecutionError(f"no column kernel for expression {kind.__name__}")
    if number not in gen.volatile:
        if not maybe and scope.hoist and gen.shared(number):
            atom = scope.named(atom)
        if atom.isidentifier():
            scope.memo[number] = (atom, maybe)
    return atom, maybe


def _emit_case(expression: CaseExpr, scope: _Scope) -> Tuple[str, bool]:
    """``if``/``else`` chain assigning one temporary.  A condition runs
    whenever control reaches it (in the enclosing block); a value runs in
    its own branch.  NULL unless every branch value and the ELSE are
    proven otherwise."""
    name = scope.gen.temp()
    maybe_null = expression.else_value is None

    def emit_branches(branches, block: _Scope) -> None:
        nonlocal maybe_null
        if not branches:
            atom = "None"
            if expression.else_value is not None:
                atom, maybe = _emit(expression.else_value, block)
                maybe_null = maybe_null or maybe
            block.lines.append(f"{name} = {atom}")
            return
        condition, value = branches[0]
        test, _maybe = _emit(condition, block)
        then, otherwise = block.child(), block.child()
        atom, maybe = _emit(value, then)
        maybe_null = maybe_null or maybe
        then.lines.append(f"{name} = {atom}")
        emit_branches(branches[1:], otherwise)
        block.lines += [f"if {test}:", *_indented(then.lines),
                        "else:", *_indented(otherwise.lines)]

    emit_branches(list(expression.branches), scope)
    return name, maybe_null


def _emit_logical(operands: List[BoundExpression], is_and: bool,
                  scope: _Scope) -> Tuple[str, bool]:
    """Three-valued AND/OR with the closure compiler's exact short-circuit:
    stop at the first definitive operand (falsy for AND, truthy for OR),
    otherwise remember NULLs and keep going.  Each operand is emitted in
    a block nested in the one before it — it runs only when reached.

    When every operand is a never-null boolean that needs no statement,
    the whole thing is Python's own ``and``/``or`` chain: the same
    left-to-right short-circuit over the same tests."""
    definitive = "False" if is_and else "True"
    exhausted = "True" if is_and else "False"
    blocks: List[Tuple[str, bool, List[str]]] = []
    inline = True
    block = scope
    for operand in operands:
        block = block.child(hoist=False)
        atom, maybe = _emit(operand, block)
        blocks.append((atom, maybe, block.lines))
        if maybe or block.lines or not _yields_bool(operand):
            inline = False
    if inline:
        if not blocks:
            return exhausted, False
        joiner = " and " if is_and else " or "
        return "(" + joiner.join(atom for atom, _maybe, _lines in blocks) + ")", False
    gen = scope.gen
    result = gen.temp()
    maybe_null = any(maybe for _atom, maybe, _lines in blocks)
    if maybe_null:
        saw_null = gen.temp()
        scope.lines.append(f"{saw_null} = False")
        tail = [f"{result} = None if {saw_null} else {exhausted}"]
    else:
        tail = [f"{result} = {exhausted}"]
    for atom, maybe, lines in reversed(blocks):
        # continue past NULLs and non-definitive values
        proceed = atom if is_and else f"not {atom}"
        if maybe:
            lines = lines + [f"if {atom} is None:", f"    {saw_null} = True"]
            proceed = f"{atom} is None or {proceed}"
        tail = lines + [f"if {proceed}:", *_indented(tail),
                        "else:", f"    {result} = {definitive}"]
    scope.lines += tail
    return result, maybe_null


_INLINE_AGGREGATES = (CountAggregate, SumAggregate, AvgAggregate,
                      MinAggregate, MaxAggregate)


class _Fold(NamedTuple):
    """What :func:`_emit_aggregate_updates` hands a kernel builder."""

    initial: list         # the concatenated ``create()`` tuples
    updates: List[str]    # per-row statements folding into ``acc``
    results: List[str]    # one expression over ``acc`` per aggregate
    seeds: Optional[List[str]]  # a new group's slots from its first row
    slot_no_nulls: List[bool]   # per slot: never NULL once a row is in
    result_no_nulls: List[bool]  # per aggregate: its result is never NULL
    shared: List[Tuple[int, int]]  # (slot standing still, the slot counting for it)


def _emit_aggregate_updates(
    aggregates: List[Tuple[object, List[Tuple[str, bool]]]], scope: _Scope,
    merge: bool = False, own_methods: bool = False, share_counts: bool = False,
) -> _Fold:
    """Per-row statements folding each aggregate's ``(atom, maybe_null)``
    operands into a flat slot list named ``acc``: its argument
    (``update``), or with *merge* the fields of a map-side partial tuple
    (``merge``).  count, sum, avg, min and max — what the planner places
    map-side — run inline, their slots laid out exactly like
    ``partial()``, so a map-side slot list *is* the concatenated
    partials; sums add left to right with ``+``, the order
    ``Aggregate.update`` / ``merge`` add in (a compensated builtin
    ``sum`` would differ in the last ulp).  With *own_methods* (reduce
    side) any other aggregate — ``COUNT(DISTINCT)``, which has no
    partial — keeps its accumulator in one slot and goes through its own
    ``create`` / ``update`` / ``merge`` / ``result``.

    An operand that can be NULL keeps its ``if … is not None:`` guard on
    a copy of the initial slots.  When none can, a group's slots are
    *seeded* from its first row instead — exactly what ``initial[:]``
    plus one update leaves, ``AVG``'s ``0.0 + x`` (−0.0, int → float)
    and ``SUM``'s first value being ``x`` itself included — and later
    rows take bare updates, since no slot is ever NULL.

    Seeded, every ``COUNT(*)``, ``COUNT(x)`` and count half of an
    ``AVG(x)`` counts the same thing: the group's rows.  With
    *share_counts* (the map-side group kernel, which can fill them in
    when its table is flushed) only the first such slot is updated; the
    others keep their seed, and ``shared`` pairs each with the slot that
    counts for it.  Sums are not shared: ``0.0 + x`` is ``x`` for a
    float but not for an int past 2**53, and nothing says a column is
    all floats.

    A slot is NULL-free — every group has a row — for ``COUNT`` and
    ``AVG`` always and for ``SUM`` / ``MIN`` / ``MAX`` over a never-null
    operand; so is the result, except that a merged ``AVG`` divides by a
    count its partials cannot prove non-zero.
    """
    seeded = all(
        isinstance(aggregate, _INLINE_AGGREGATES)
        and not any(maybe for _atom, maybe in operands)
        for aggregate, operands in aggregates
    )
    initial: list = []
    lines: List[str] = []
    results: List[str] = []
    seeds: List[str] = []
    slot_no_nulls: List[bool] = []
    result_no_nulls: List[bool] = []
    shared: List[Tuple[int, int]] = []
    share_counts = share_counts and seeded
    counting: Optional[int] = None  # the slot whose updates count rows

    def count_update(slot: int, counted: str) -> List[str]:
        nonlocal counting
        if share_counts:
            if counting is not None:
                shared.append((slot, counting))
                return []
            counting = slot
        return [f"acc[{slot}] += {counted}"]

    for aggregate, operands in aggregates:
        kind = type(aggregate)
        atom, maybe = operands[0]
        slot = len(initial)
        here = f"acc[{slot}]"
        results.append(here)
        if kind not in _INLINE_AGGREGATES:
            if not own_methods:
                raise ExecutionError(
                    f"no column kernel for map-side aggregate {kind.__name__}"
                )
            name = scope.gen.bind("g", aggregate)
            initial.append(aggregate.create())
            slot_no_nulls.append(False)
            result_no_nulls.append(False)
            atoms = [atom for atom, _maybe in operands]
            folded = (f"merge({here}, {_tuple_src(atoms)})" if merge
                      else f"update({here}, {atom})")
            lines.append(f"{here} = {name}.{folded}")
            results[-1] = f"{name}.result({here})"
            continue
        update: List[str] = []
        result_no_nulls.append(
            kind is CountAggregate
            or not maybe and not (merge and kind is AvgAggregate)
        )
        if kind is CountAggregate:
            initial.append(0)
            slot_no_nulls.append(True)
            counted = atom if merge else "1"
            seeds.append(f"0 + {counted}")
            update += count_update(slot, counted)
        elif kind is SumAggregate:
            initial.append(None)
            slot_no_nulls.append(not maybe)
            seeds.append(atom)
            if seeded:
                update.append(f"{here} += {atom}")
            else:
                update.append(f"s{slot} = {here}")
                update.append(
                    f"{here} = {atom} if s{slot} is None else s{slot} + {atom}"
                )
        elif kind is AvgAggregate:
            initial.extend([0.0, 0])
            slot_no_nulls.extend([True, True])
            count = f"acc[{slot + 1}]"
            counted = operands[1][0] if merge else "1"
            seeds.extend([f"0.0 + {atom}", f"0 + {counted}"])
            update.append(f"{here} += {atom}")
            update += count_update(slot + 1, counted)
            results[-1] = f"{here} / {count} if {count} else None"
        else:
            initial.append(None)
            slot_no_nulls.append(not maybe)
            beats = "<" if kind is MinAggregate else ">"
            atom = scope.named(atom)  # compared, then stored
            seeds.append(atom)
            if seeded:
                update.append(f"if {atom} {beats} {here}:")
            else:
                update.append(f"s{slot} = {here}")
                update.append(f"if s{slot} is None or {atom} {beats} s{slot}:")
            update.append(f"    {here} = {atom}")
        if maybe:
            update = [f"if {atom} is not None:", *_indented(update)]
        lines += update
    return _Fold(initial, lines, results, seeds if seeded else None,
                 slot_no_nulls, result_no_nulls, shared)


def _collect(lines: List[str], value: str, condition: str = "") -> List[str]:
    """Kernel body returning ``[value for i in sel if condition]`` —
    literally that comprehension when no statement (*lines*) has to run
    per row, the explicit loop otherwise."""
    if not lines:
        keep = f" if {condition}" if condition else ""
        return [f"return [{value} for i in sel{keep}]"]
    append = [f"append({value})"]
    if condition:
        append = [f"if {condition}:", *_indented(append)]
    return ["out = []", "append = out.append", "for i in sel:",
            *_indented(lines + append), "return out"]


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


# Every ``codegen_*_kernel`` takes *no_nulls*: the input columns promised
# NULL-free (``ColumnBatch.no_nulls``).  The default — nothing known —
# guards every column reference and is always safe.

def codegen_filter_kernel(
    predicate: BoundExpression, no_nulls: Container[int] = frozenset(),
) -> Callable[[List[list], Sequence[int]], List[int]]:
    """``(cols, sel) -> new_sel``: positions where the predicate is TRUE
    (three-valued logic — NULL and FALSE rows are dropped alike).  A
    predicate that needs no statement is one list comprehension."""
    gen = _Codegen([predicate], no_nulls)
    scope = gen.scope()
    atom, _maybe = _emit(predicate, scope)
    test = atom if _yields_bool(predicate) else f"{atom} is True"
    body = _collect(scope.lines, "i", test)
    return gen.compile(
        ["def _filter_batch(cols, sel):", *_indented(gen.bindings() + body)],
        "_filter_batch",
    )


def codegen_project_kernel(
    expressions: List[BoundExpression], no_nulls: Container[int] = frozenset(),
) -> Callable[[List[list], Sequence[int]], List[list]]:
    """``(cols, sel) -> out_cols``: evaluate a projection list over the
    selected rows, producing dense output columns (none for an empty
    list — the zero-width batch keeps its row count).  The kernel's
    ``no_nulls`` attribute says, per output column, whether it is
    NULL-free whenever the promised inputs are."""
    gen = _Codegen(expressions, no_nulls)
    scope = gen.scope()
    atoms = [_emit(expression, scope) for expression in expressions]
    outs = [f"out{position}" for position in range(len(atoms))]
    body = [
        line for out in outs
        for line in (f"{out} = []", f"a{out} = {out}.append")
    ]
    if atoms:
        body += ["for i in sel:", *_indented(scope.lines)]
        body += [f"    a{out}({atom})" for out, (atom, _maybe) in zip(outs, atoms)]
    body.append(f"return [{', '.join(outs)}]")
    kernel = gen.compile(
        ["def _project_batch(cols, sel):", *_indented(gen.bindings() + body)],
        "_project_batch",
    )
    kernel.no_nulls = [not maybe for _atom, maybe in atoms]
    return kernel


def codegen_keys_kernel(
    expressions: List[BoundExpression], no_nulls: Container[int] = frozenset(),
) -> Callable[[List[list], Sequence[int]], list]:
    """``(cols, sel) -> keys``: one key tuple per selected row, with
    ``None`` standing for a key containing NULL (never matches an
    equi-join; the probe loop handles outer-join padding)."""
    gen = _Codegen(expressions, no_nulls)
    scope = gen.scope()
    atoms = [_emit(expression, scope) for expression in expressions]
    key = _tuple_src([atom for atom, _maybe in atoms])
    null_test = " or ".join(f"{atom} is None" for atom, maybe in atoms if maybe)
    if null_test:
        key = f"None if {null_test} else {key}"
    body = _collect(scope.lines, key)
    return gen.compile(
        ["def _keys_batch(cols, sel):", *_indented(gen.bindings() + body)],
        "_keys_batch",
    )


def codegen_group_kernel(
    key_expressions: List[BoundExpression],
    aggregates: List[Tuple[object, Optional[BoundExpression]]],
    max_groups: int,
    no_nulls: Container[int] = frozenset(),
) -> Tuple[Callable, list, bool, List[bool]]:
    """``(cols, sel, table, initial, flush) -> None``: the whole map-side
    GROUP BY inner loop — key build, hash probe, pressure flush and the
    fused accumulator updates — in one generated frame.  Returns
    ``(kernel, initial_slots, scalar_key, out_no_nulls)``; a group's
    slot list is exactly its concatenated partial tuples (see
    :func:`_emit_aggregate_updates`) and *out_no_nulls* says which of
    the flushed columns (keys, then slots) are NULL-free.  Single-key
    grouping probes the table with the bare value (``scalar_key`` True):
    no per-row 1-tuple allocation, and a string key's cached hash is
    reused — equality over scalars matches equality over their
    1-tuples, so the groups are unchanged.

    ``kernel.shared`` lists the ``(slot, source)`` pairs of count slots
    this variant leaves at their seed because *source* counts the same
    rows (every operand NULL-free, see :func:`_emit_aggregate_updates`);
    whoever owns the table copies each source over its slots before it
    flushes or hands the table to a variant that shares differently.
    """
    # COUNT(*) has no argument: it counts the sentinel True
    arguments = [
        argument if argument is not None else Const(True, DataType.BOOLEAN)
        for _aggregate, argument in aggregates
    ]
    gen = _Codegen(key_expressions + arguments, no_nulls)
    scope = gen.scope()
    keys = [_emit(expression, scope) for expression in key_expressions]
    key_atoms = [atom for atom, _maybe in keys]
    scalar_key = len(keys) == 1
    fold = _emit_aggregate_updates(
        [(aggregate, [_emit(argument, scope)])
         for (aggregate, _argument), argument in zip(aggregates, arguments)],
        scope, share_counts=True,
    )
    body = [
        *scope.lines,
        f"k = {key_atoms[0] if scalar_key else _tuple_src(key_atoms)}",
        "acc = table_get(k)",
        "if acc is None:",
        f"    if len(table) >= {int(max_groups)}:",
        "        flush()",
    ]
    if fold.seeds is None:
        body += ["    acc = initial[:]", "    table[k] = acc", *fold.updates]
    else:
        body.append(f"    table[k] = [{', '.join(fold.seeds)}]")
        if fold.updates:
            body += ["else:", *_indented(fold.updates)]
    kernel = gen.compile(
        ["def _group_batch(cols, sel, table, initial, flush):",
         *_indented(gen.bindings()),
         "    table_get = table.get",
         "    for i in sel:",
         *_indented(_indented(body))],
        "_group_batch",
    )
    kernel.shared = tuple(fold.shared)
    get_metrics().counter("exec.kernel.shared_slots").add(len(fold.shared))
    out_no_nulls = [not maybe for _atom, maybe in keys] + fold.slot_no_nulls
    return kernel, fold.initial, scalar_key, out_no_nulls


def codegen_reduce_aggregate_kernel(
    aggregates: List[object], partial_arities: Optional[List[int]],
    no_nulls: Container[int] = frozenset(),
) -> Tuple[Callable, list, List[bool]]:
    """``(order, ends, cols, initial) -> out_cols``: the reduce-side GROUP
    BY loop over value columns — the map-side group kernel's sibling,
    built from the same statements (:func:`_emit_aggregate_updates`).
    *order* is the sorted permutation, *ends* each group's end within
    it; one result per aggregate per group.  With *partial_arities* the
    columns are the concatenated map-side partial tuples (merge), with
    ``None`` one raw argument column per aggregate (update).  Returns
    ``(kernel, initial_slots, out_no_nulls)``.
    """
    arities = partial_arities or [1] * len(aggregates)
    starts = accumulate(arities, initial=0)  # each partial's first column
    columns = [
        [InputRef(start + part) for part in range(arity)]
        for start, arity in zip(starts, arities)
    ]
    gen = _Codegen([], no_nulls)
    scope = gen.scope()
    fold = _emit_aggregate_updates(
        [(aggregate, [_emit(column, scope) for column in partial])
         for aggregate, partial in zip(aggregates, columns)],
        scope, merge=partial_arities is not None, own_methods=True,
    )
    outs = [f"out{position}" for position in range(len(aggregates))]
    per_row = scope.lines + fold.updates
    if fold.seeds is None:
        group = ["acc = initial[:]", "for i in order[start:end]:",
                 *_indented(per_row or ["pass"])]
    else:  # the group's first pair seeds the slots, the rest update them
        group = ["i = order[start]", *scope.lines,
                 f"acc = [{', '.join(fold.seeds)}]"]
        if fold.updates:
            group += ["for i in order[start + 1:end]:", *_indented(per_row)]
    kernel = gen.compile(
        ["def _reduce_groups(order, ends, cols, initial):",
         *_indented(gen.bindings()),
         *[f"    {out} = []" for out in outs],
         "    start = 0",
         "    for end in ends:",
         *_indented(_indented(group)),
         "        start = end",
         *[f"        {out}.append({result})"
           for out, result in zip(outs, fold.results)],
         f"    return [{', '.join(outs)}]"],
        "_reduce_groups",
    )
    return kernel, fold.initial, fold.result_no_nulls


def stable_hash(fields: Tuple[object, ...]) -> int:
    """Deterministic cross-process hash of a key tuple (CRC32 of the wire
    encoding) — Python's builtin ``hash`` is salted per process, which
    would make the two engines partition differently."""
    return zlib.crc32(serialize_fields(fields)) & 0x7FFFFFFF


def require_boolean(expression: BoundExpression, context: str) -> BoundExpression:
    if expression.dtype is not DataType.BOOLEAN:
        raise SemanticError(f"{context} must be boolean, got {expression.dtype.value}")
    return expression
