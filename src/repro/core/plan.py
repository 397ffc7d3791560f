"""Plan DAG: validation, type propagation and consumer counts.

A plan is a DAG of sub-operators rooted at one operator. The evaluators
cut it into tree-shaped *pipelines* at materialization points: every
operator with several consumers (``consumer_counts``) is materialized
once, and inside a pipeline the sub-plan runs in the iterator model
(paper Section 3.2).
"""
from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.ops.base import SubOperator
from repro.core.ops.orchestration import ParameterLookup
from repro.core.types import TupleType


class Plan:
    """A DAG of sub-operators with a single root."""

    def __init__(self, root: SubOperator, name: str = "") -> None:
        self.root = root
        self.name = name
        self._ops = _topo(root)

    def operators(self) -> List[SubOperator]:
        """All operators of this plan (not nested plans), topological order."""
        return list(self._ops)

    def consumer_counts(self) -> Dict[SubOperator, int]:
        counts: Dict[SubOperator, int] = {op: 0 for op in self._ops}
        for op in self._ops:
            for u in op.upstreams:
                counts[u] += 1
        return counts

    def types(self, param_type: Optional[TupleType] = None) -> Dict[SubOperator, Optional[TupleType]]:
        """Static output type of every operator of this plan and of its
        nested plans; None where unknown. Each operator comes after its
        upstreams and its nested plan's operators, so the first None is an
        operator that cannot type its (typed) inputs."""
        types: Dict[SubOperator, Optional[TupleType]] = {}
        for op in self._ops:
            ins = [types[u] for u in op.upstreams]
            if isinstance(op, ParameterLookup):
                types[op] = op.declared_type or param_type
            elif hasattr(op, "nested_plan"):
                nested = op.nested_plan.types(ins[0])
                types.update(nested)
                types[op] = nested[op.nested_plan.root]
            else:
                types[op] = op.out_type(ins)
        return types

    def out_type(self, param_type: Optional[TupleType] = None) -> Optional[TupleType]:
        """Static type propagation; None where an operator's output type
        is unknown (the Spark lowering rejects such plans)."""
        return self.types(param_type)[self.root]

    def render(self) -> str:
        """Compact textual rendering of the DAG (for docs and debugging)."""
        ids = {op: i for i, op in enumerate(self._ops)}
        lines = []
        for op in self._ops:
            ups = ",".join(str(ids[u]) for u in op.upstreams)
            nested = ""
            if hasattr(op, "nested_plan"):
                nested = " {" + op.nested_plan.render().replace("\n", "; ") + "}"
            lines.append(f"#{ids[op]} {op.op_name}({ups}){nested}")
        return "\n".join(lines)


def _topo(root: SubOperator) -> List[SubOperator]:
    order: List[SubOperator] = []
    seen: set = set()
    stack_guard: set = set()

    def visit(op: SubOperator) -> None:
        if id(op) in seen:
            return
        if id(op) in stack_guard:
            raise ValueError("plan contains a cycle")
        stack_guard.add(id(op))
        for u in op.upstreams:
            visit(u)
        stack_guard.discard(id(op))
        seen.add(id(op))
        order.append(op)

    visit(root)
    return order
