"""Bound logical operator tree.

Every node's expressions are already *bound*: column names resolved to
positions in the child's row signature (``InputRef``).  A
:class:`RowSignature` describes each intermediate row shape, tracking the
source binding (table alias) of every field so qualified names resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import SemanticError
from repro.common.rows import Column, DataType, Schema
from repro.exec.expressions import BoundExpression
from repro.storage.metastore import TableDescriptor


@dataclass(frozen=True)
class FieldInfo:
    """One field of an intermediate row: where it came from and its type."""

    binding: Optional[str]  # table alias (lowercase) or None for derived
    name: str  # lowercase
    dtype: DataType


class RowSignature:
    """Ordered fields with alias-aware name resolution."""

    def __init__(self, fields: List[FieldInfo]):
        self.fields = list(fields)

    @classmethod
    def from_schema(cls, schema: Schema, binding: Optional[str]) -> "RowSignature":
        return cls(
            [
                FieldInfo(binding, column.name.lower(), column.dtype)
                for column in schema.columns
            ]
        )

    def concat(self, other: "RowSignature") -> "RowSignature":
        return RowSignature(self.fields + other.fields)

    def resolve(self, name: str, table: Optional[str] = None) -> Tuple[int, DataType]:
        """Resolve a (possibly qualified) column name to (index, type)."""
        name = name.lower()
        table = table.lower() if table else None
        matches = [
            (position, info)
            for position, info in enumerate(self.fields)
            if info.name == name and (table is None or info.binding == table)
        ]
        if not matches:
            qualified = f"{table}.{name}" if table else name
            raise SemanticError(f"column not found: {qualified}")
        if len(matches) > 1:
            qualified = f"{table}.{name}" if table else name
            raise SemanticError(f"ambiguous column: {qualified}")
        position, info = matches[0]
        return position, info.dtype

    def to_schema(self) -> Schema:
        """Flatten to a plain schema (deduplicating names positionally)."""
        taken = set()
        columns = []
        for info in self.fields:
            name = info.name
            if name in taken:
                suffix = 2
                while f"{name}_{suffix}" in taken:
                    suffix += 1
                name = f"{name}_{suffix}"
            taken.add(name)
            columns.append(Column(name, info.dtype))
        return Schema(columns)

    def __len__(self) -> int:
        return len(self.fields)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{info.binding + '.' if info.binding else ''}{info.name}:{info.dtype.value}"
            for info in self.fields
        )
        return f"RowSignature({inner})"


# ---------------------------------------------------------------------------
# logical nodes
# ---------------------------------------------------------------------------

class LogicalNode:
    """Base: every node exposes its output signature and children."""

    signature: RowSignature

    def children(self) -> List["LogicalNode"]:
        return []

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class Scan(LogicalNode):
    table: TableDescriptor
    binding: str
    signature: RowSignature = None

    def __post_init__(self):
        if self.signature is None:
            schema = getattr(self.table, "full_schema", self.table.schema)
            self.signature = RowSignature.from_schema(schema, self.binding)

    def describe(self) -> str:
        return f"Scan({self.table.name} as {self.binding})"


@dataclass
class Filter(LogicalNode):
    child: LogicalNode
    predicate: BoundExpression
    signature: RowSignature = None

    def __post_init__(self):
        if self.signature is None:
            self.signature = self.child.signature

    def children(self) -> List[LogicalNode]:
        return [self.child]


@dataclass
class Project(LogicalNode):
    child: LogicalNode
    expressions: List[BoundExpression]
    names: List[str]
    signature: RowSignature = None

    def __post_init__(self):
        if self.signature is None:
            self.signature = RowSignature(
                [
                    FieldInfo(None, name.lower(), expression.dtype)
                    for name, expression in zip(self.names, self.expressions)
                ]
            )

    def children(self) -> List[LogicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Project({', '.join(self.names)})"


@dataclass
class JoinNode(LogicalNode):
    left: LogicalNode
    right: LogicalNode
    join_type: str  # 'inner' | 'left'
    left_keys: List[BoundExpression] = field(default_factory=list)  # over left sig
    right_keys: List[BoundExpression] = field(default_factory=list)  # over right sig
    residual: Optional[BoundExpression] = None  # over concat signature
    signature: RowSignature = None

    def __post_init__(self):
        if self.signature is None:
            self.signature = self.left.signature.concat(self.right.signature)

    def children(self) -> List[LogicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        kind = "cross" if not self.left_keys else self.join_type
        return f"Join[{kind}]({len(self.left_keys)} keys)"


@dataclass
class AggregateCall:
    aggregate: object  # sql.functions.Aggregate
    argument: Optional[BoundExpression]  # None for COUNT(*)
    name: str
    dtype: DataType
    distinct: bool = False


@dataclass
class AggregateNode(LogicalNode):
    child: LogicalNode
    group_expressions: List[BoundExpression]
    group_names: List[str]
    calls: List[AggregateCall]
    signature: RowSignature = None

    def __post_init__(self):
        if self.signature is None:
            fields = [
                FieldInfo(None, name.lower(), expression.dtype)
                for name, expression in zip(self.group_names, self.group_expressions)
            ]
            fields += [FieldInfo(None, call.name.lower(), call.dtype) for call in self.calls]
            self.signature = RowSignature(fields)

    def children(self) -> List[LogicalNode]:
        return [self.child]

    @property
    def has_distinct(self) -> bool:
        return any(call.distinct for call in self.calls)

    def describe(self) -> str:
        aggs = ", ".join(call.name for call in self.calls)
        return f"Aggregate(groups={len(self.group_expressions)}, aggs=[{aggs}])"


@dataclass
class SortNode(LogicalNode):
    child: LogicalNode
    sort_expressions: List[BoundExpression]  # over child signature
    ascending: List[bool]
    signature: RowSignature = None

    def __post_init__(self):
        if self.signature is None:
            self.signature = self.child.signature

    def children(self) -> List[LogicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Sort({len(self.sort_expressions)} keys)"


@dataclass
class LimitNode(LogicalNode):
    child: LogicalNode
    limit: int
    signature: RowSignature = None

    def __post_init__(self):
        if self.signature is None:
            self.signature = self.child.signature

    def children(self) -> List[LogicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit({self.limit})"


@dataclass
class UnionNode(LogicalNode):
    """UNION ALL: concatenation of same-arity child streams."""

    inputs: List[LogicalNode] = field(default_factory=list)
    signature: RowSignature = None

    def __post_init__(self):
        if self.signature is None:
            self.signature = self.inputs[0].signature

    def children(self) -> List[LogicalNode]:
        return list(self.inputs)

    def describe(self) -> str:
        return f"UnionAll({len(self.inputs)} branches)"


@dataclass
class DistinctNode(LogicalNode):
    child: LogicalNode
    signature: RowSignature = None

    def __post_init__(self):
        if self.signature is None:
            self.signature = self.child.signature

    def children(self) -> List[LogicalNode]:
        return [self.child]


def explain_logical(node: LogicalNode, indent: int = 0) -> str:
    """ASCII rendering of a logical tree (EXPLAIN output, tests/docs)."""
    lines = ["  " * indent + node.describe()]
    for child in node.children():
        lines.append(explain_logical(child, indent + 1))
    return "\n".join(lines)
