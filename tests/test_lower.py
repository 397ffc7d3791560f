"""Tests of the Spark (Catalyst) lowering: the same plan objects that run
on the simulated MPI cluster execute as Spark stages, validated against the
DuckDB oracle and against the SimCluster execution. Lowering derives every
Spark schema from the plan's static types and starts no Spark job."""
import numpy as np
import pandas as pd
import pytest

from repro.core.lower import lower_distributed_plan, run_distributed_on_spark
from repro.core.ops import Filter, Map
from repro.modular.common import JoinConfig
from repro.modular.groupby import distributed_groupby_plan
from repro.modular.join import distributed_join_plan
from repro.modular.join_sequence import optimized_sequence_plan, relation_fields, value_fields
from repro.mpi.thread_backend import run_on_sim
from repro.oracle import assert_equivalent
from repro.queries import QUERIES
from repro.synth_data import dense_kv_pdf, lineitem_pdf, orders_pdf, part_pdf
from tests.helpers import lower_counting_jobs


N = 1 << 11


@pytest.fixture(scope="module")
def kv_frames():
    r = dense_kv_pdf(N, value_field="vr", seed=60)
    s = dense_kv_pdf(N, value_field="vs", multiplicity=2, seed=61)
    return r, s


class TestJoinLowering:
    def test_join_matches_duckdb(self, spark, kv_frames):
        r, s = kv_frames
        cfg = JoinConfig(n_net=4, loc_bits=2)
        plan = distributed_join_plan(cfg)
        out = run_distributed_on_spark(
            spark, plan, {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        )
        assert_equivalent(
            out, "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k", r=r, s=s
        )

    def test_compressed_join_matches_duckdb(self, spark, kv_frames):
        r, s = kv_frames
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)
        plan = distributed_join_plan(cfg)
        out = run_distributed_on_spark(
            spark, plan, {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        )
        assert_equivalent(
            out, "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k", r=r, s=s
        )

    def test_spark_and_sim_agree(self, spark, kv_frames):
        r, s = kv_frames
        cfg = JoinConfig(n_net=2, loc_bits=1)
        plan = distributed_join_plan(cfg)
        spark_out = run_distributed_on_spark(
            spark, plan, {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        ).toPandas()
        sim_out, _ = run_on_sim(plan, 2, {"R": r, "S": s})
        cols = ["k", "vr", "vs"]
        a = spark_out[cols].sort_values(cols).reset_index(drop=True).astype("int64")
        b = sim_out[cols].sort_values(cols).reset_index(drop=True).astype("int64")
        pd.testing.assert_frame_equal(a, b)

    def test_semi_join(self, spark, kv_frames):
        r, s = kv_frames
        r_half = r.iloc[: N // 2]
        cfg = JoinConfig(n_net=4, loc_bits=2)
        plan = distributed_join_plan(cfg, join_type="semi")
        out = run_distributed_on_spark(
            spark, plan,
            {"R": spark.createDataFrame(r_half), "S": spark.createDataFrame(s)},
        )
        assert_equivalent(
            out,
            "SELECT k, vs FROM s WHERE EXISTS (SELECT 1 FROM r WHERE r.k = s.k)",
            r=r_half, s=s,
        )

    def test_stage_handles_exposed(self, spark, kv_frames):
        r, s = kv_frames
        cfg = JoinConfig(n_net=4, loc_bits=2)
        lowered = lower_distributed_plan(
            spark, distributed_join_plan(cfg),
            {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)},
        )
        assert len(lowered.pre) == 2
        assert lowered.pre[0].columns == ["k", "vr", "__pid"]
        assert lowered.inner.columns == ["k", "vr", "vs"]

    def test_missing_relation_rejected(self, spark, kv_frames):
        r, _ = kv_frames
        cfg = JoinConfig(n_net=2, loc_bits=1)
        with pytest.raises(KeyError, match="'S'"):
            lower_distributed_plan(
                spark, distributed_join_plan(cfg), {"R": spark.createDataFrame(r)}
            )


class TestStaticSchemas:
    """Schemas come from the plan's types: no sample, no Spark job."""

    @staticmethod
    def _case(name):
        """(plan, input frames) of one lowering case."""
        if name.startswith("Q"):
            q = next(q for q in QUERIES if q.name == name)
            tables = {"lineitem": lineitem_pdf(sf=0.001), "orders": orders_pdf(sf=0.001),
                      "part": part_pdf(sf=0.001)}
            plan = q.build_plan(JoinConfig(n_net=4, loc_bits=2))
            return plan, {f: tables[t] for f, t in q.table_map.items()}
        kv = {"R": dense_kv_pdf(64, value_field="vr"), "S": dense_kv_pdf(64, value_field="vs")}
        if name == "compressed_join":
            return distributed_join_plan(JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)), kv
        if name == "groupby":
            return distributed_groupby_plan(JoinConfig(n_net=4, loc_bits=2)), {"T": dense_kv_pdf(64)}
        rels = {f: dense_kv_pdf(64, value_field=v) for f, v in zip(relation_fields(2), value_fields(2))}
        return optimized_sequence_plan(JoinConfig(n_net=4, loc_bits=1), 2), rels

    @pytest.mark.parametrize(
        "name", ["compressed_join", "groupby", "sequence3", "Q4", "Q12", "Q14", "Q19"]
    )
    def test_lowering_starts_no_spark_job(self, spark, name):
        plan, pdfs = self._case(name)
        relations = {f: spark.createDataFrame(pdf) for f, pdf in pdfs.items()}
        _, jobs = lower_counting_jobs(spark, plan, relations)
        assert jobs == 0

    def test_untyped_operator_rejected(self, spark, kv_frames):
        r, s = kv_frames
        plan = distributed_join_plan(
            JoinConfig(n_net=2, loc_bits=1),
            pre_scan=lambda f, op: Map(op, lambda pdf: pdf),
        )
        with pytest.raises(TypeError, match=r"Map \(MP\) in plan 'distributed-join'"):
            lower_distributed_plan(
                spark, plan, {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
            )


class TestEmptyInputs:
    def test_empty_relation(self, spark, kv_frames):
        r, s = kv_frames
        r_empty = r.iloc[:0]
        cfg = JoinConfig(n_net=4, loc_bits=2)
        out = run_distributed_on_spark(
            spark, distributed_join_plan(cfg),
            {"R": spark.createDataFrame(r_empty, "k long, vr long"), "S": spark.createDataFrame(s)},
        )
        assert_equivalent(
            out, "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k", r=r_empty, s=s
        )

    def test_filter_drops_every_row(self, spark, kv_frames):
        r, s = kv_frames

        def drop_s(field, op):
            if field != "S":
                return op
            return Filter(op, lambda pdf: np.zeros(len(pdf), dtype=bool))

        cfg = JoinConfig(n_net=4, loc_bits=2)
        out = run_distributed_on_spark(
            spark, distributed_join_plan(cfg, pre_scan=drop_s),
            {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)},
        )
        assert_equivalent(
            out, "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k WHERE false", r=r, s=s
        )


class TestGroupByLowering:
    def test_groupby_matches_duckdb(self, spark):
        t = dense_kv_pdf(N, multiplicity=4, seed=62)
        cfg = JoinConfig(n_net=4, loc_bits=2)
        out = run_distributed_on_spark(
            spark, distributed_groupby_plan(cfg), {"T": spark.createDataFrame(t)}
        )
        assert_equivalent(out, "SELECT k, SUM(v) AS v FROM t GROUP BY k", t=t)

    def test_compressed_groupby(self, spark):
        t = dense_kv_pdf(N, multiplicity=4, seed=63)
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)
        out = run_distributed_on_spark(
            spark, distributed_groupby_plan(cfg), {"T": spark.createDataFrame(t)}
        )
        assert_equivalent(out, "SELECT k, SUM(v) AS v FROM t GROUP BY k", t=t)


class TestSequenceLowering:
    def test_three_way_optimized_sequence(self, spark):
        cfg = JoinConfig(n_net=4, loc_bits=1)
        n_joins = 2
        rels_pdf = {
            f: dense_kv_pdf(512, value_field=v, seed=64 + i)
            for i, (f, v) in enumerate(zip(relation_fields(n_joins), value_fields(n_joins)))
        }
        rels = {k: spark.createDataFrame(v) for k, v in rels_pdf.items()}
        out = run_distributed_on_spark(spark, optimized_sequence_plan(cfg, n_joins), rels)
        assert_equivalent(
            out,
            "SELECT r0.k AS k, v0, v1, v2 FROM r0 JOIN r1 ON r0.k = r1.k "
            "JOIN r2 ON r0.k = r2.k",
            r0=rels_pdf["R0"], r1=rels_pdf["R1"], r2=rels_pdf["R2"],
        )


class TestInterpretedEngine:
    def test_interpreted_join_same_result(self, spark):
        r = dense_kv_pdf(256, value_field="vr", seed=66)
        s = dense_kv_pdf(256, value_field="vs", seed=67)
        cfg = JoinConfig(n_net=2, loc_bits=1)
        out = run_distributed_on_spark(
            spark, distributed_join_plan(cfg),
            {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)},
            engine="interpreted",
        )
        assert_equivalent(
            out, "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k", r=r, s=s
        )
