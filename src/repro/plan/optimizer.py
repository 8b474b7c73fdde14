"""Logical optimizer passes.

Predicate pushdown happens during analysis (:mod:`repro.plan.analyzer`);
this module adds Hive's **ColumnPruner**: walking the bound logical tree
top-down with the set of required output positions, narrowing joins and
scans to just the columns the query touches.  Without it every
intermediate job would materialize full-width rows — exactly the
difference between a 39 GB and a 2 GB temp table for TPC-H Q13.
"""

from __future__ import annotations

import copy
from typing import Dict, Set, Tuple

from repro.common.errors import PlanError
from repro.exec.expressions import (
    BoundExpression,
    InputRef,
    referenced_columns,
    remap_input_refs,
)
from repro.plan.logical import (
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


def _remap_refs(expression: BoundExpression, mapping: Dict[int, int]) -> BoundExpression:
    """Copy *expression* with every InputRef index translated."""
    try:
        return remap_input_refs(expression, mapping.__getitem__)
    except KeyError as lost:
        raise PlanError(
            f"column pruner lost input position {lost.args[0]}"
        ) from None


def prune_columns(root: LogicalNode) -> LogicalNode:
    """Return an equivalent tree that only carries needed columns."""
    required = set(range(len(root.signature)))
    pruned, _mapping = _prune(root, required)
    return pruned


def _identity(width: int) -> Dict[int, int]:
    return {index: index for index in range(width)}


def _prune(node: LogicalNode, required: Set[int]) -> Tuple[LogicalNode, Dict[int, int]]:
    """Prune *node* so it produces (at least) the *required* positions.

    Returns the rewritten node and a mapping old-position -> new-position
    for every position in *required*.
    """
    if isinstance(node, Scan):
        width = len(node.signature)
        wanted = sorted(index for index in required if 0 <= index < width)
        if len(wanted) == width or not wanted:
            return node, _identity(width)
        fields = [node.signature.fields[index] for index in wanted]
        project = Project(
            child=node,
            expressions=[
                InputRef(index, node.signature.fields[index].dtype) for index in wanted
            ],
            names=[info.name for info in fields],
            signature=RowSignature(
                [FieldInfo(info.binding, info.name, info.dtype) for info in fields]
            ),
        )
        return project, {old: new for new, old in enumerate(wanted)}

    if isinstance(node, Filter):
        child_required = set(required) | referenced_columns(node.predicate)
        child, mapping = _prune(node.child, child_required)
        predicate = _remap_refs(node.predicate, mapping)
        return Filter(child, predicate, signature=child.signature), mapping

    if isinstance(node, Project):
        width = len(node.expressions)
        wanted = sorted(index for index in required if 0 <= index < width)
        if not wanted:
            wanted = list(range(width))
        kept_expressions = [node.expressions[index] for index in wanted]
        child_required = set(referenced_columns(*kept_expressions))
        if not child_required:
            child_required = {0} if len(node.child.signature) else set()
        child, mapping = _prune(node.child, child_required)
        rewritten = [_remap_refs(expression, mapping) for expression in kept_expressions]
        names = [node.names[index] for index in wanted]
        new_node = Project(child, rewritten, names)
        return new_node, {old: new for new, old in enumerate(wanted)}

    if isinstance(node, JoinNode):
        left_width = len(node.left.signature)
        residual_refs = (
            referenced_columns(node.residual) if node.residual is not None else set()
        )
        left_required = {index for index in required if index < left_width}
        left_required |= referenced_columns(*node.left_keys)
        left_required |= {index for index in residual_refs if index < left_width}
        right_required = {
            index - left_width for index in required if index >= left_width
        }
        right_required |= referenced_columns(*node.right_keys)
        right_required |= {
            index - left_width for index in residual_refs if index >= left_width
        }
        left, left_map = _prune(node.left, left_required)
        right, right_map = _prune(node.right, right_required)
        new_left_width = len(left.signature)
        left_keys = [_remap_refs(key, left_map) for key in node.left_keys]
        right_keys = [_remap_refs(key, right_map) for key in node.right_keys]
        concat_map: Dict[int, int] = {}
        for old, new in left_map.items():
            concat_map[old] = new
        for old, new in right_map.items():
            concat_map[old + left_width] = new + new_left_width
        residual = (
            _remap_refs(node.residual, concat_map) if node.residual is not None else None
        )
        new_node = JoinNode(
            left=left,
            right=right,
            join_type=node.join_type,
            left_keys=left_keys,
            right_keys=right_keys,
            residual=residual,
            signature=left.signature.concat(right.signature),
        )
        return new_node, concat_map

    if isinstance(node, AggregateNode):
        # output layout (groups then aggregates) is fixed; prune below
        child_required = set(referenced_columns(*node.group_expressions))
        for call in node.calls:
            if call.argument is not None:
                child_required |= referenced_columns(call.argument)
        if not child_required and len(node.child.signature):
            child_required = {0}
        child, mapping = _prune(node.child, child_required)
        group_expressions = [
            _remap_refs(expression, mapping) for expression in node.group_expressions
        ]
        calls = []
        for call in node.calls:
            new_call = copy.copy(call)
            if call.argument is not None:
                new_call.argument = _remap_refs(call.argument, mapping)
            calls.append(new_call)
        new_node = AggregateNode(
            child=child,
            group_expressions=group_expressions,
            group_names=list(node.group_names),
            calls=calls,
            signature=node.signature,
        )
        return new_node, _identity(len(node.signature))

    if isinstance(node, SortNode):
        child_required = set(required) | referenced_columns(*node.sort_expressions)
        child, mapping = _prune(node.child, child_required)
        sort_expressions = [
            _remap_refs(expression, mapping) for expression in node.sort_expressions
        ]
        new_node = SortNode(
            child, sort_expressions, list(node.ascending), signature=child.signature
        )
        return new_node, mapping

    if isinstance(node, LimitNode):
        child, mapping = _prune(node.child, required)
        return LimitNode(child, node.limit, signature=child.signature), mapping

    if isinstance(node, DistinctNode):
        # DISTINCT keys on the full row: every column stays required
        child, mapping = _prune(node.child, set(range(len(node.child.signature))))
        return DistinctNode(child, signature=child.signature), mapping

    if isinstance(node, UnionNode):
        # branch outputs must stay positionally aligned: keep full width
        inputs = []
        for child in node.inputs:
            pruned, _mapping = _prune(child, set(range(len(child.signature))))
            inputs.append(pruned)
        return UnionNode(inputs=inputs, signature=inputs[0].signature), _identity(
            len(node.signature)
        )

    raise PlanError(f"column pruner cannot handle {type(node).__name__}")
