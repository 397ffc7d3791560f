"""Presto stand-in: interpreted execution of the same query plans.

Presto in the paper is the generic engine that reads from many storage
layers and interprets its operators row by row. This stand-in preserves the
property the comparison measures — per-tuple interpretation overhead in
every inner loop — by executing the *identical* sub-operator plan through
the row-at-a-time Volcano interpreter (``engine='interpreted'``) inside the
same Spark stages the Modularis lowering uses. The gap to the vectorized
lowering is therefore exactly "generic interpreted engine vs compiled
sub-operator pipelines".
"""
from __future__ import annotations

from typing import Dict

from pyspark.sql import DataFrame, SparkSession

from repro.core.lower import run_distributed_on_spark
from repro.modular.common import JoinConfig
from repro.queries.tpch import TpchQuery


def run_presto_sim(
    spark: SparkSession,
    query: TpchQuery,
    tables: Dict[str, DataFrame],
    cfg: JoinConfig,
) -> DataFrame:
    """Execute a TPC-H query interpreted; ``tables`` maps synthetic table
    names (lineitem/orders/part) to DataFrames."""
    relations = {field: tables[name] for field, name in query.table_map.items()}
    return run_distributed_on_spark(spark, query.build_plan(cfg), relations, engine="interpreted")
