"""The distributed GROUP BY as a sub-operator plan (paper Fig. 5).

Reuses the join's building blocks verbatim — histogram/exchange skeleton,
local partitioning, nested maps — and swaps the BuildProbe for a
ReduceByKey. Post-aggregation (another ReduceByKey) happens at every
nesting level and once more on the driver, exactly as in Section 4.3.
"""
from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np
import pandas as pd

from repro.core import Plan
from repro.core.ops import (
    MaterializeRowVector,
    MpiExecutor,
    NestedMap,
    ParameterLookup,
    ParametrizedMap,
    Projection,
    ReduceByKey,
    RowScan,
)
from repro.core.ops.base import SubOperator
from repro.core.types import INT64, TupleType
from repro.modular.common import JoinConfig, local_partition_side, network_partition, rank_input


def _decompress_map(cfg: JoinConfig, pl: ParameterLookup, data: SubOperator, value_field: str) -> SubOperator:
    """ParametrizedMap restoring <k, v> from the compressed word using the
    network partition id from the enclosing scope."""
    spec = cfg.spec(value_field)
    param = Projection(pl, ["net_pid"])

    def row_fn(t: dict, p: dict) -> dict:
        w = int(t[spec.out_field])
        k = ((w >> spec.p_bits) << spec.f_bits) | int(p["net_pid"])
        return {cfg.key: k, value_field: w & ((1 << spec.p_bits) - 1)}

    def batch_fn(pdf: pd.DataFrame, p: dict) -> pd.DataFrame:
        k, v = spec.decompress(pdf[spec.out_field].to_numpy(), int(p["net_pid"]))
        return pd.DataFrame({cfg.key: k, value_field: v})

    out_type = TupleType([(cfg.key, INT64), (value_field, INT64)])
    return ParametrizedMap(param, data, row_fn=row_fn, batch_fn=batch_fn, declared_type=out_type)


def groupby_inner2_plan(
    cfg: JoinConfig, value_field: str, row_fn, agg_spec: Optional[Dict[str, str]]
) -> Plan:
    """Innermost plan: per local partition, decompress and aggregate."""
    pl = ParameterLookup()
    data: SubOperator = RowScan(Projection(pl, ["loc_data"]), "loc_data")
    if cfg.compress:
        data = _decompress_map(cfg, pl, data, value_field)
    rk = ReduceByKey(data, keys=[cfg.key], row_fn=row_fn, agg_spec=agg_spec)
    return Plan(MaterializeRowVector(rk, field="agg"), name="groupby-inner2")


def groupby_inner1_plan(
    cfg: JoinConfig, value_field: str, row_fn, agg_spec: Optional[Dict[str, str]]
) -> Plan:
    """Per network partition: local partitioning, nested aggregation, and
    level post-aggregation."""
    pl = ParameterLookup()
    cp = local_partition_side(
        cfg, pl, value_field, "net_pid", "net_data", "loc_pid", "loc_data"
    )
    nm2 = NestedMap(cp, groupby_inner2_plan(cfg, value_field, row_fn, agg_spec))
    rs = RowScan(nm2, "agg")
    post = ReduceByKey(rs, keys=[cfg.key], row_fn=row_fn, agg_spec=agg_spec)
    return Plan(MaterializeRowVector(post, field="part_agg"), name="groupby-inner1")


def rank_groupby_plan(
    cfg: JoinConfig, field: str, value_field: str, row_fn, agg_spec: Optional[Dict[str, str]]
) -> Plan:
    data = rank_input(field)
    ex = network_partition(cfg, data, value_field, "net_pid", "net_data")
    nm1 = NestedMap(ex, groupby_inner1_plan(cfg, value_field, row_fn, agg_spec))
    rs = RowScan(nm1, "part_agg")
    post = ReduceByKey(rs, keys=[cfg.key], row_fn=row_fn, agg_spec=agg_spec)
    return Plan(MaterializeRowVector(post, field="rank_result"), name="groupby-rank")


def distributed_groupby_plan(
    cfg: JoinConfig,
    field: str = "T",
    value_field: str = "v",
    row_fn: Callable[[dict, dict], dict] = lambda a, b: {"v": a["v"] + b["v"]},
    agg_spec: Optional[Dict[str, str]] = None,
) -> Plan:
    """Full distributed GROUP BY: MpiExecutor over per-rank inputs, final
    driver-side post-aggregation of all worker results."""
    agg_spec = agg_spec if agg_spec is not None else {value_field: "sum"}
    me = MpiExecutor(
        rank_input("rank_inputs"), rank_groupby_plan(cfg, field, value_field, row_fn, agg_spec)
    )
    rs = RowScan(me, "rank_result")
    final = ReduceByKey(rs, keys=[cfg.key], row_fn=row_fn, agg_spec=agg_spec)
    return Plan(final, name="distributed-groupby")
