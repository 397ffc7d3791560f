"""Lowering of distributed sub-operator plans onto Spark (Catalyst) stages.

This is the "another platform" of the paper: the *same* plan object that
runs SPMD on the simulated MPI cluster is mapped onto Spark's physical
operators. Only the three platform-specific operators change meaning:

===================  =====================================================
sub-operator          Catalyst physical stage
===================  =====================================================
MpiExecutor           the Spark job itself (ranks = shuffle partitions)
LocalHistogram +
MpiHistogram          nothing: Spark's shuffle sizes its own partitions
MpiExchange           the shuffle exchange induced by ``groupBy('__pid')``
                      (pid column computed in the pre-exchange pipeline,
                      optionally compressed to one 64-bit word)
===================  =====================================================

Every Spark schema comes from the plan's static tuple types (``spark_schema``):
the rank inputs are typed from the input DataFrames' schemas and the types
propagate through the plan, so lowering is pure plan surgery that starts no
Spark job. An operator without a static output type is a ``TypeError``.

Everything else is platform-agnostic and reused verbatim:

* each *pre-exchange pipeline* (scan/filter/map/projection + pid +
  compression) is fused into one ``mapInPandas`` stage — one Catalyst
  ``MapInPandas`` node per pipeline, the analogue of one JIT-compiled
  pipeline;
* ``Zip`` + ``NestedMap`` over matching network partitions become
  ``cogroup().applyInPandas`` (two sides), ``groupBy().applyInPandas``
  (one side) or a tagged union (N-ary join sequences); the pandas UDF runs
  the *actual nested sub-operator plan* through the vectorized evaluator;
* post-aggregation ``ReduceByKey``/``Reduce`` with native hints lower to
  Catalyst aggregates; residual driver-side post-processing runs the
  operators' own kernels on the collected (small) result, exactly like the
  paper's driver.

``engine='interpreted'`` executes the same plan row-at-a-time through the
Volcano interpreter inside the same stages — the generic-interpreted-engine
baseline (the Presto stand-in).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import interp, vectorized
from repro.core.ops.base import ExecContext, SubOperator, concat_batches
from repro.core.ops.matscan import MaterializeRowVector, RowScan
from repro.core.ops.network import MpiExchange, MpiExecutor
from repro.core.ops.orchestration import NestedMap, ParameterLookup
from repro.core.ops.processing import ParametrizedMap, Projection, Reduce, ReduceByKey, Zip
from repro.core.plan import Plan
from repro.core.types import BOOL, DATE, FLOAT64, INT64, STR, RowVector, RowVectorType, TupleType

_NATIVE_AGGS = {"sum": F.sum, "min": F.min, "max": F.max, "count": F.count}
_SPARK_ATOMS = {
    INT64: T.LongType(), FLOAT64: T.DoubleType(), STR: T.StringType(),
    DATE: T.TimestampType(), BOOL: T.BooleanType(),
}


@dataclass
class Lowered:
    """Handles to the lowered Catalyst stages of one distributed plan."""

    spark: SparkSession
    #: one pre-exchange DataFrame per side, carrying ``__pid``
    pre: List[DataFrame]
    #: the NestedMap output (flattened inner results, post-shuffle)
    inner: DataFrame
    #: the schema of the plan's result
    schema: T.StructType
    #: post ops (rank- then driver-level) still to apply, application order
    post_ops: List[SubOperator] = field(default_factory=list)

    def result(self) -> DataFrame:
        """Apply the lowered post-aggregation chain and return the final
        DataFrame (Catalyst aggregates where hinted, driver kernels for the
        residual small post-processing)."""
        df = self.inner
        pending = list(self.post_ops)
        while pending:
            op = pending[0]
            lowered = _lower_post_native(df, op)
            if lowered is None:
                break
            df = lowered
            pending.pop(0)
        if pending:
            pdf = df.toPandas()
            for op in pending:
                pdf = _apply_chain([op], pdf, "vectorized")
            df = self.spark.createDataFrame(pdf.reindex(columns=self.schema.names), self.schema)
        return df


def lower_distributed_plan(
    spark: SparkSession,
    plan: Plan,
    relations: Dict[str, DataFrame],
    engine: str = "vectorized",
) -> Lowered:
    """Compile a canonical distributed plan (see ``repro.modular``) into
    Spark stages over the given input DataFrames."""
    if engine not in ("vectorized", "interpreted"):
        raise ValueError(f"unknown engine {engine!r}")
    me, driver_ops = _split_top(plan)
    nm1, exchanges, rank_ops = _split_rank(me.nested_plan)
    inner_plan = nm1.nested_plan
    inner_field = _root_field(inner_plan)

    chains = [_pre_chain(ex) for ex in exchanges]
    rank_fields = {}
    for _, rel_name in chains:
        if rel_name not in relations:
            raise KeyError(f"plan reads relation {rel_name!r}, not provided")
        rank_fields[rel_name] = RowVectorType(_tuple_type(relations[rel_name].schema))
    rank_type = TupleType(list(rank_fields.items()))
    types = plan.types(TupleType([("rank_inputs", RowVectorType(rank_type))]))
    untyped = next((op for op, t in types.items() if t is None), None)
    if untyped is not None:
        raise TypeError(
            f"{type(untyped).__name__} ({untyped.op_name}) in plan {plan.name!r} has no "
            "static output type; Spark lowering needs one (declared_type)"
        )

    pre_dfs: List[DataFrame] = []
    for ex, (pre_ops, rel_name) in zip(exchanges, chains):
        wire = spark_schema(types[ex].field_type(ex.data_field).tuple_type)
        fn = _make_pre_fn(pre_ops, ex, engine)
        pre_dfs.append(relations[rel_name].mapInPandas(fn, schema=wire.add("__pid", T.LongType())))

    schema = spark_schema(types[nm1].field_type(inner_field).tuple_type)
    inner_df = _lower_nested(spark, pre_dfs, exchanges, inner_plan, inner_field, schema, engine)

    return Lowered(
        spark=spark,
        pre=pre_dfs,
        inner=inner_df,
        schema=spark_schema(types[plan.root]),
        post_ops=rank_ops + driver_ops,
    )


def run_distributed_on_spark(
    spark: SparkSession,
    plan: Plan,
    relations: Dict[str, DataFrame],
    engine: str = "vectorized",
) -> DataFrame:
    """One-call convenience: lower and produce the final DataFrame."""
    return lower_distributed_plan(spark, plan, relations, engine).result()


# ---------------------------------------------------------------------------
# static types
# ---------------------------------------------------------------------------

def spark_schema(t: TupleType) -> T.StructType:
    """The Spark schema of a flat tuple type."""
    fields = []
    for name, item in t.fields:
        if item not in _SPARK_ATOMS:
            raise TypeError(f"field {name!r} of type {item!r} has no Spark column type")
        fields.append(T.StructField(name, _SPARK_ATOMS[item]))
    return T.StructType(fields)


def _tuple_type(schema: T.StructType) -> TupleType:
    """The tuple type of an input relation's Spark schema."""
    atoms = {spark_t: atom for atom, spark_t in _SPARK_ATOMS.items()}
    for f in schema.fields:
        if f.dataType not in atoms:
            raise TypeError(f"input column {f.name!r} of Spark type {f.dataType} has no atom")
    return TupleType([(f.name, atoms[f.dataType]) for f in schema.fields])


# ---------------------------------------------------------------------------
# plan surgery
# ---------------------------------------------------------------------------

def _split_top(plan: Plan) -> Tuple[MpiExecutor, List[SubOperator]]:
    """Walk from the root down to RowScan(MpiExecutor); the ops between are
    the driver post-processing chain (returned in application order)."""
    chain: List[SubOperator] = []
    op = plan.root
    while True:
        if isinstance(op, RowScan) and op.upstreams and isinstance(op.upstreams[0], MpiExecutor):
            return op.upstreams[0], list(reversed(chain))
        if not op.upstreams:
            raise ValueError("plan has no MpiExecutor — not a distributed plan")
        chain.append(op)
        op = _data_upstream(op)


def _split_rank(rank_plan: Plan) -> Tuple[NestedMap, List[MpiExchange], List[SubOperator]]:
    """Decompose the per-rank plan: MaterializeRowVector root, post chain,
    RowScan over the NestedMap, whose upstream is a Zip of exchanges (or a
    single exchange for GROUP BY)."""
    root = rank_plan.root
    if not isinstance(root, MaterializeRowVector):
        raise ValueError("rank plan must end in MaterializeRowVector")
    chain: List[SubOperator] = []
    op = root.upstreams[0]
    while not (isinstance(op, RowScan) and isinstance(op.upstreams[0], NestedMap)):
        chain.append(op)
        op = _data_upstream(op)
    nm1 = op.upstreams[0]
    up = nm1.upstreams[0]
    if isinstance(up, Zip):
        exchanges = list(up.upstreams)
    else:
        exchanges = [up]
    for ex in exchanges:
        if not isinstance(ex, MpiExchange):
            raise ValueError(f"NestedMap upstream {type(ex).__name__} is not MpiExchange")
    return nm1, exchanges, list(reversed(chain))


def _data_upstream(op: SubOperator) -> SubOperator:
    """The data-carrying upstream of a chain operator."""
    if isinstance(op, ParametrizedMap):
        return op.upstreams[1]
    if len(op.upstreams) != 1:
        raise ValueError(f"{type(op).__name__} is not a chain operator")
    return op.upstreams[0]


def _pre_chain(ex: MpiExchange) -> Tuple[List[SubOperator], str]:
    """Ops between the rank input scan and the exchange (application order)
    plus the input relation's field name."""
    chain: List[SubOperator] = []
    op = ex.upstreams[0]
    while not (
        isinstance(op, RowScan)
        and isinstance(op.upstreams[0], Projection)
        and isinstance(op.upstreams[0].upstreams[0], ParameterLookup)
    ):
        chain.append(op)
        op = _data_upstream(op)
    return list(reversed(chain)), op.field or op.upstreams[0].fields[0]


def _root_field(inner_plan: Plan) -> str:
    root = inner_plan.root
    if not isinstance(root, MaterializeRowVector):
        raise ValueError("nested plan must end in MaterializeRowVector")
    return root.field


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _apply_chain(ops: Sequence[SubOperator], pdf: pd.DataFrame, engine: str) -> pd.DataFrame:
    """Run a linear chain of single-input operators over one batch, either
    vectorized (batch kernels) or interpreted (row-at-a-time)."""
    ctx = ExecContext()
    if engine == "interpreted":
        rows: list = list(RowVector(pdf).iter_rows())
        for op in ops:
            rows = list(op.rows(ctx, [iter(rows)]))
        return pd.DataFrame(rows) if rows else pdf.iloc[:0]
    batches = [pdf]
    for op in ops:
        batches = list(op.batches(ctx, [iter(batches)]))
    return concat_batches(batches, columns=pdf.columns)


def _pid_and_compress(out: pd.DataFrame, ex: MpiExchange) -> pd.DataFrame:
    if ex.bucket_batch_fn is not None:
        pids = np.asarray(ex.bucket_batch_fn(out))
    else:
        pids = np.fromiter(
            (ex.bucket_fn(t) for t in RowVector(out).iter_rows()), dtype=np.int64, count=len(out)
        )
    if ex.compression is not None:
        out = ex.compression.compress_pdf(out)
        # Spark has no unsigned 64-bit type; reinterpret as signed on the wire.
        out = pd.DataFrame({ex.compression.out_field: out[ex.compression.out_field].astype(np.int64)})
    out = out.copy()
    out["__pid"] = pids.astype(np.int64)
    return out


def _make_pre_fn(pre_ops: Sequence[SubOperator], ex: MpiExchange, engine: str) -> Callable:
    def fn(iterator):
        for pdf in iterator:
            out = _apply_chain(pre_ops, pdf, engine)
            if len(out):
                yield _pid_and_compress(out, ex)

    return fn


def _decompress_wire(pdf: pd.DataFrame, ex: MpiExchange) -> pd.DataFrame:
    """Undo the signed-int reinterpretation done for the Spark wire."""
    if ex.compression is not None and len(pdf):
        pdf = pdf.copy()
        pdf[ex.compression.out_field] = pdf[ex.compression.out_field].astype(np.uint64)
    return pdf


def _run_inner(
    inner_plan: Plan,
    inner_field: str,
    pid: int,
    sides: Sequence[Tuple[MpiExchange, pd.DataFrame]],
    engine: str,
) -> pd.DataFrame:
    """Execute the nested plan for one network partition, exactly as
    NestedMap would, and return the flattened materialized result."""
    params: dict = {}
    for ex, pdf in sides:
        params[ex.pid_field] = pid
        params[ex.data_field] = RowVector(_decompress_wire(pdf, ex))
    runner = interp.run_rows if engine == "interpreted" else vectorized.run_rows
    out = runner(inner_plan, params=params)
    if len(out) != 1:
        raise RuntimeError(f"nested plan produced {len(out)} tuples, expected 1")
    return out[0][inner_field].df


def _lower_nested(
    spark: SparkSession,
    pre_dfs: List[DataFrame],
    exchanges: List[MpiExchange],
    inner_plan: Plan,
    inner_field: str,
    schema,
    engine: str,
) -> DataFrame:
    out_cols = [f.name for f in schema.fields]

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.reindex(columns=out_cols)

    if len(exchanges) == 1:
        ex = exchanges[0]

        def gfn(key, pdf):
            return finish(
                _run_inner(inner_plan, inner_field, int(key[0]),
                           [(ex, pdf.drop(columns="__pid"))], engine)
            )

        return pre_dfs[0].groupBy("__pid").applyInPandas(gfn, schema=schema)

    if len(exchanges) == 2:
        ex_l, ex_r = exchanges

        def jfn(key, lpdf, rpdf):
            return finish(
                _run_inner(
                    inner_plan, inner_field, int(key[0]),
                    [(ex_l, lpdf.drop(columns="__pid")), (ex_r, rpdf.drop(columns="__pid"))],
                    engine,
                )
            )

        return (
            pre_dfs[0].groupBy("__pid")
            .cogroup(pre_dfs[1].groupBy("__pid"))
            .applyInPandas(jfn, schema=schema)
        )

    # N-ary (optimized join sequences): tagged union of all sides.
    side_cols = [[c for c in df.columns if c != "__pid"] for df in pre_dfs]
    all_cols: List[str] = []
    for cols in side_cols:
        for c in cols:
            if c not in all_cols:
                all_cols.append(c)
    tagged = []
    for i, df in enumerate(pre_dfs):
        for c in all_cols:
            if c not in df.columns:
                df = df.withColumn(c, F.lit(None).cast("long"))
        tagged.append(df.select("__pid", F.lit(i).alias("__side"), *all_cols))
    union = tagged[0]
    for t in tagged[1:]:
        union = union.unionByName(t)

    def nfn(key, pdf):
        sides = []
        for i, ex in enumerate(exchanges):
            part = pdf[pdf["__side"] == i][side_cols[i]].reset_index(drop=True)
            sides.append((ex, part))
        return finish(_run_inner(inner_plan, inner_field, int(key[0]), sides, engine))

    return union.groupBy("__pid").applyInPandas(nfn, schema=schema)


# ---------------------------------------------------------------------------
# post-aggregation lowering
# ---------------------------------------------------------------------------

def _lower_post_native(df: DataFrame, op: SubOperator) -> Optional[DataFrame]:
    """Lower one post op to a native Catalyst node; None = not lowerable
    (the caller falls back to driver-side kernels)."""
    if isinstance(op, ReduceByKey) and op.agg_spec and all(a in _NATIVE_AGGS for a in op.agg_spec.values()):
        aggs = [_NATIVE_AGGS[a](c).alias(c) for c, a in op.agg_spec.items()]
        return df.groupBy(*op.keys).agg(*aggs)
    if isinstance(op, Reduce) and op.agg_spec and all(a in _NATIVE_AGGS for a in op.agg_spec.values()):
        aggs = [_NATIVE_AGGS[a](c).alias(c) for c, a in op.agg_spec.items()]
        return df.agg(*aggs)
    if isinstance(op, Projection):
        return df.select(*op.fields)
    return None
