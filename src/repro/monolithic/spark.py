"""Monolithic distributed join lowered onto Spark — the Fig. 6b comparator.

Same Catalyst stage structure as the modular lowering (mapInPandas
pre-partitioning, shuffle on the radix pid, applyInPandas per partition)
but each stage is one hand-fused numpy kernel specialized to the 16-byte
<key, value> workload: no sub-operator dispatch, no generic evaluator.
Like the modular lowering it runs no histogram pass: Spark's shuffle sizes
its own partitions. The delta between this and the lowered modular
plan is the "cost of modularity" measured in the paper (12–28 %).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import radix
from repro.modular.common import JoinConfig
from repro.monolithic.join import _np_hash_join


def _pre_fn(cfg: JoinConfig, value_field: str):
    spec = cfg.spec(value_field)
    n = cfg.n_net

    def fn(iterator):
        for pdf in iterator:
            k = pdf["k"].to_numpy().astype(np.int64)
            v = pdf[value_field].to_numpy().astype(np.int64)
            pid = k % n
            if spec is not None:
                yield pd.DataFrame(
                    {"kv": spec.compress(k, v).astype(np.int64), "__pid": pid}
                )
            else:
                yield pd.DataFrame({"k": k, value_field: v, "__pid": pid})

    return fn


def _join_fn(cfg: JoinConfig):
    spec_r, spec_s = cfg.spec("vr"), cfg.spec("vs")
    n_loc, net_bits = cfg.n_loc, cfg.net_bits

    def split(pdf, spec, vf):
        if spec is not None:
            w = pdf["kv"].to_numpy().astype(np.uint64)
            k = (w >> np.uint64(spec.p_bits)).astype(np.int64)
            v = (w & np.uint64((1 << spec.p_bits) - 1)).astype(np.int64)
            loc = k & (n_loc - 1)
        else:
            k = pdf["k"].to_numpy().astype(np.int64)
            v = pdf[vf].to_numpy().astype(np.int64)
            loc = (k >> net_bits) & (n_loc - 1)
        return radix.scatter_arrays([k, v], loc, n_loc)

    def fn(key, lpdf, rpdf):
        pid = int(key[0])
        subs_r = split(lpdf, spec_r, "vr")
        subs_s = split(rpdf, spec_s, "vs")
        outs = []
        for i in range(n_loc):
            jk, jl, jr = _np_hash_join(subs_r[i][0], subs_r[i][1], subs_s[i][0], subs_s[i][1])
            if spec_r is not None:
                jk = (jk << net_bits) | pid  # recover dropped bits
            outs.append((jk, jl, jr))
        return pd.DataFrame(
            {
                "k": np.concatenate([o[0] for o in outs]),
                "vr": np.concatenate([o[1] for o in outs]),
                "vs": np.concatenate([o[2] for o in outs]),
            }
        )

    return fn


def run_monolithic_join_spark(
    spark: SparkSession, r: DataFrame, s: DataFrame, cfg: JoinConfig
) -> DataFrame:
    pre_schema = "kv long, __pid long" if cfg.compress else None
    pre_r = r.mapInPandas(_pre_fn(cfg, "vr"), schema=pre_schema or "k long, vr long, __pid long")
    pre_s = s.mapInPandas(_pre_fn(cfg, "vs"), schema=pre_schema or "k long, vs long, __pid long")
    return (
        pre_r.groupBy("__pid")
        .cogroup(pre_s.groupBy("__pid"))
        .applyInPandas(_join_fn(cfg), schema="k long, vr long, vs long")
    )
