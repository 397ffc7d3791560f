"""Shared test helpers for building small sub-operator plans."""
from __future__ import annotations

import uuid
from typing import List, Optional

import pandas as pd

from repro.core import Plan, RowVector
from repro.core.ops import ExecContext, ParameterLookup, Projection, RowScan
from repro.core import interp, vectorized


def source(field: str) -> RowScan:
    """Paper-idiomatic input reader: ParameterLookup -> Projection -> RowScan.

    The plan parameter tuple holds one RowVector per input relation under
    ``field``; this chain unnests it into a flat tuple stream.
    """
    return RowScan(Projection(ParameterLookup(), [field]), field)


def params_of(**frames: pd.DataFrame) -> dict:
    return {name: RowVector(pdf) for name, pdf in frames.items()}


def run_both(plan: Plan, params: Optional[dict] = None) -> tuple:
    """Run a plan through the row interpreter and the vectorized evaluator;
    returns (rows_interp, rows_vectorized) for agreement checks."""
    r = interp.run_rows(plan, params=params)
    v = vectorized.run_rows(plan, params=params)
    return r, v


def _norm(v):
    """Normalize for comparison: NaN -> None, numeric -> float."""
    if v is None:
        return None
    try:
        if pd.isna(v):
            return None
    except (TypeError, ValueError):
        pass
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return float(v)
    return v


def sort_rows(rows: List[dict]) -> List[dict]:
    rows = [{k: _norm(v) for k, v in t.items()} for t in rows]
    return sorted(rows, key=lambda t: tuple(repr(t[k]) for k in sorted(t)))


def assert_same_rows(a: List[dict], b: List[dict]) -> None:
    assert sort_rows(a) == sort_rows(b), f"\nA={sort_rows(a)[:5]}\nB={sort_rows(b)[:5]}"


def lower_counting_jobs(spark, plan: Plan, relations: dict):
    """Lower ``plan`` under its own Spark job group; returns the ``Lowered``
    handles and the number of Spark jobs lowering started."""
    from repro.core.lower import lower_distributed_plan

    sc = spark.sparkContext
    group = f"lowering-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "lower_distributed_plan")
    try:
        lowered = lower_distributed_plan(spark, plan, relations)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return lowered, len(sc.statusTracker().getJobIdsForGroup(group))
