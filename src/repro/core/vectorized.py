"""Vectorized batch evaluator — the JIT-compilation analogue.

Executes a sub-operator plan over batches (see ``repro.core.ops.base``): a
pandas DataFrame of data tuples, or a plain list of control-tuple dicts
(parameter tuples, nested-plan results, partition lists). Where the paper
lowers each pipeline to LLVM IR (removing per-tuple function calls from
inner loops), this evaluator removes the per-tuple Python dispatch by
running each operator's numpy/pandas kernel over whole batches. The small
remaining per-operator overhead vs the hand-fused monolithic kernels is the
"cost of modularity" the paper quantifies (12–28 %).

Network operators execute here against the MPI-style communicator in the
context; this is the evaluator the ThreadBackend runs on every rank, and
the one the Spark lowering embeds inside pandas UDFs for nested plans.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import pandas as pd

from repro.core.ops.base import Batch, ExecContext, SubOperator, concat_batches, tuples_of
from repro.core.plan import Plan


def iter_batches(
    plan: Plan, ctx: Optional[ExecContext] = None, params: Optional[dict] = None
) -> Iterator[Batch]:
    ctx = _prepare(ctx, params)
    consumers = plan.consumer_counts()
    cache: Dict[SubOperator, List[Batch]] = {}

    def stream(op: SubOperator) -> Iterator[Batch]:
        if consumers[op] > 1:
            if op not in cache:
                cache[op] = list(generate(op))
            return iter(cache[op])
        return generate(op)

    def generate(op: SubOperator) -> Iterator[Batch]:
        ups = [stream(u) for u in op.upstreams]
        gen = op.batches(ctx, ups)
        if ctx.profiler is not None:
            gen = ctx.profiler.wrap(op, gen)
        return gen

    return stream(plan.root)


def run_to_pdf(
    plan: Plan, ctx: Optional[ExecContext] = None, params: Optional[dict] = None
) -> pd.DataFrame:
    """Execute ``plan`` and concatenate all result batches."""
    return concat_batches(list(iter_batches(plan, ctx, params)))


def run_rows(
    plan: Plan, ctx: Optional[ExecContext] = None, params: Optional[dict] = None
) -> List[dict]:
    """Execute ``plan`` vectorized but return row dicts (nested-plan hook);
    control batches are returned as they are, without a frame round trip."""
    return [t for b in iter_batches(plan, ctx, params) for t in tuples_of(b)]


def _prepare(ctx: Optional[ExecContext], params: Optional[dict]) -> ExecContext:
    ctx = ctx or ExecContext()
    if params is not None:
        ctx = ctx.child(params)
    if ctx.run_nested_batches is None:
        ctx.run_nested_batches = lambda p, c: run_rows(p, c)
    return ctx
