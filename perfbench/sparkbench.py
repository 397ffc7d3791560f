"""Spark workloads: distributed plans lowered by ``core.lower`` onto a
``local[4]`` session, against a baseline on the same cached inputs.

Untraced queries time three public calls: ``lower_distributed_plan``,
``Lowered.result()`` and the final action. A traced run also puts each call
in its own Spark job group, counts its jobs with ``statusTracker()``, and
afterwards reads the session's event log to sum task metrics per stage
class (see ``classify``).
"""
from __future__ import annotations

import inspect
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import pandas as pd
from pyspark import SparkContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.lower import lower_distributed_plan
from repro.modular.common import JoinConfig
from repro.modular.join import distributed_join_plan
from repro.monolithic.spark import run_monolithic_join_spark
from repro.oracle import _canon
from repro.queries import QUERIES
from repro.spark_session import get_session
from repro.synth_data import dense_kv_pdf, lineitem_pdf, orders_pdf, part_pdf

from clock import stamp
from common import Kind, input_seeds, join_checksum

DRIVER_MEMORY = "2g"
STAGE_CLASSES = ("probe", "pre", "nested", "post", "other")
_PYTHON_NESTED = {"FlatMapCoGroupsInPandas", "FlatMapGroupsInPandas"}
_LOWER_TAKES_INNER_SCHEMA = "inner_schema" in inspect.signature(lower_distributed_plan).parameters


def lower(spark: SparkSession, plan, relations: Dict[str, DataFrame], inner_schema: Optional[str] = None):
    """The one call site of ``lower_distributed_plan``. ``inner_schema`` is
    passed only while the function still accepts it, so deriving schemas
    from the plan's types needs no change here."""
    if inner_schema is not None and _LOWER_TAKES_INNER_SCHEMA:
        return lower_distributed_plan(spark, plan, relations, inner_schema=inner_schema)
    return lower_distributed_plan(spark, plan, relations)


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------

def start_session(work: Path, event_log: Optional[Path]) -> SparkSession:
    """``get_session``'s settings on ``local[4]`` with a pinned driver heap;
    every file Spark writes goes under ``work``."""
    conf = {
        "spark.local.dir": work / "spark-local",
        "spark.sql.warehouse.dir": work / "warehouse",
        "spark.ui.showConsoleProgress": "false",
    }
    if event_log is not None:
        event_log.mkdir(parents=True)
        conf.update({
            "spark.eventLog.enabled": "true",
            "spark.eventLog.dir": event_log.as_uri(),
            "spark.eventLog.compress": "false",
            "spark.eventLog.rolling.enabled": "false",
        })
    # spark.driver.memory is read at JVM launch, so it goes on the command line
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [f"--master {os.environ['SPARK_MASTER']} --driver-memory {DRIVER_MEMORY}"]
        + [f"--conf {k}={v}" for k, v in conf.items()]
        + ["pyspark-shell"]
    )
    return get_session("perfbench")


def stop_session(spark: SparkSession) -> None:
    """Stop Spark and wait until its JVM (and with it every Python worker)
    has exited. Safe to call twice."""
    gateway = SparkContext._gateway
    if gateway is None:
        return
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        proc.wait(timeout=120)


def session_conf(spark: SparkSession) -> Dict[str, str]:
    sc = spark.sparkContext
    return {
        "version": spark.version,
        "master": sc.master,
        "default_parallelism": str(sc.defaultParallelism),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "aqe": spark.conf.get("spark.sql.adaptive.enabled"),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
    }


# ---------------------------------------------------------------------------
# tracing: job groups and the event log
# ---------------------------------------------------------------------------

def traced_call(sc: SparkContext, group: str, fn: Callable[[], object]) -> Tuple[object, float, int]:
    """Run ``fn`` in its own job group; return its result, wall seconds and
    the number of Spark jobs it started."""
    sc.setJobGroup(group, group)
    t0 = perf_counter()
    out = fn()
    secs = perf_counter() - t0
    sc.setJobGroup("idle", "idle")
    return out, secs, len(sc.statusTracker().getJobIdsForGroup(group))


def classify(rdd_infos: List[dict]) -> str:
    """Stage class from the physical-operator scopes of a stage's RDDs:
    the nested-plan UDF, the pre-exchange ``mapInPandas``, the schema-sample
    probes (``CollectLimit``), Catalyst stages reading a shuffle (post
    aggregation), and everything else."""
    scopes = {json.loads(r["Scope"])["name"] for r in rdd_infos if r.get("Scope")}
    if scopes & _PYTHON_NESTED:
        return "nested"
    if "MapInPandas" in scopes:
        return "pre"
    if "CollectLimit" in scopes:
        return "probe"
    if any(r.get("Name") == "ShuffledRowRDD" for r in rdd_infos):
        return "post"
    return "other"


def stage_layers(event_log: Path, n_queries: int) -> List[dict]:
    """Per traced query (job groups ``q<i>.*``): task metrics summed per
    stage class, plus GC time and the numbers of jobs and stages."""
    (log,) = [p for p in event_log.iterdir() if p.is_file() and not p.name.startswith(".")]
    stage_query: Dict[int, int] = {}
    stage_class: Dict[int, str] = {}
    task: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    jobs: Dict[int, int] = defaultdict(int)
    with open(log) as f:
        for line in f:
            e = json.loads(line)
            ev = e["Event"]
            if ev == "SparkListenerJobStart":
                group = (e.get("Properties") or {}).get("spark.jobGroup.id") or ""
                if group.startswith("q") and "." in group:
                    q = int(group[1:].split(".")[0])
                    jobs[q] += 1
                    for sid in e["Stage IDs"]:
                        stage_query[sid] = q
            elif ev == "SparkListenerStageCompleted":
                info = e["Stage Info"]
                stage_class[info["Stage ID"]] = classify(info["RDD Info"])
            elif ev == "SparkListenerTaskEnd":
                m = e.get("Task Metrics") or {}
                t = task[e["Stage ID"]]
                t["tasks"] += 1
                t["run_ms"] += m.get("Executor Run Time", 0)
                t["gc_ms"] += m.get("JVM GC Time", 0)
                read = m.get("Shuffle Read Metrics", {})
                t["fetch_wait_ms"] += read.get("Fetch Wait Time", 0)
                t["read_bytes"] += read.get("Remote Bytes Read", 0) + read.get("Local Bytes Read", 0)
                t["write_bytes"] += m.get("Shuffle Write Metrics", {}).get("Shuffle Bytes Written", 0)

    out = []
    for q in range(n_queries):
        layers: Dict[str, float] = {"spark.jobs": jobs[q], "spark.stages": 0, "spark.gc_s": 0.0}
        for cls in STAGE_CLASSES:
            layers[f"stage.{cls}.task_s"] = 0.0
            layers[f"stage.{cls}.tasks"] = 0
        layers["stage.pre.shuffle_write_bytes"] = 0
        layers["stage.nested.shuffle_read_bytes"] = 0
        layers["stage.nested.fetch_wait_s"] = 0.0
        for sid, cls in stage_class.items():
            if stage_query.get(sid) != q:
                continue
            t = task[sid]
            layers["spark.stages"] += 1
            layers["spark.gc_s"] += t["gc_ms"] / 1e3
            layers[f"stage.{cls}.task_s"] += t["run_ms"] / 1e3
            layers[f"stage.{cls}.tasks"] += int(t["tasks"])
            if cls == "pre":
                layers["stage.pre.shuffle_write_bytes"] += int(t["write_bytes"])
            if cls == "nested":
                layers["stage.nested.shuffle_read_bytes"] += int(t["read_bytes"])
                layers["stage.nested.fetch_wait_s"] += t["fetch_wait_ms"] / 1e3
        out.append(layers)
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class SparkWorkload:
    """Session life cycle and the traced query shared by both workloads.

    Subclasses set ``rows`` (input rows per query) and ``warmups`` and
    provide ``_next_modular()`` returning ``(name, plan, relations,
    inner_schema, finish)`` where ``finish(df)`` is the final action,
    ``_baseline()`` and ``_check((name, result))``."""

    def __init__(self, spark: SparkSession, event_log: Optional[Path]) -> None:
        self.spark = spark
        self.event_log = event_log
        self.n_traced = 0

    def spark_conf(self) -> Dict[str, str]:
        return session_conf(self.spark)

    def kinds(self) -> Tuple[Kind, Kind]:
        return (
            Kind("modular", self._modular, self._check, self.rows),
            Kind("baseline", self._baseline, self._check, self.rows),
        )

    def _modular(self):
        name, plan, relations, inner_schema, finish = self._next_modular()
        start = stamp()
        low = lower(self.spark, plan, relations, inner_schema)
        lowered = stamp()
        result = finish(low.result())
        return start, lowered, stamp(), (name, result)

    def traced(self) -> Tuple[str, dict, bool]:
        name, plan, relations, inner_schema, finish = self._next_modular()
        q = self.n_traced
        self.n_traced += 1
        sc = self.spark.sparkContext
        start = stamp()
        low, plan_s, plan_jobs = traced_call(
            sc, f"q{q}.plan", lambda: lower(self.spark, plan, relations, inner_schema)
        )
        df, result_s, result_jobs = traced_call(sc, f"q{q}.result", low.result)
        result, action_s, action_jobs = traced_call(sc, f"q{q}.action", lambda: finish(df))
        end = stamp()
        query_s = end[0] - start[0]
        layers = {
            "traced.query_s": query_s,
            "traced.query_cpu_s": end[1] - start[1],
            "traced.unattributed_s": query_s - plan_s - result_s - action_s,
            "lower.plan_s": plan_s,
            "lower.plan_jobs": plan_jobs,
            "lower.result_s": result_s,
            "lower.result_jobs": result_jobs,
            "exec.action_s": action_s,
            "exec.action_jobs": action_jobs,
        }
        return name, layers, self._check((name, result))

    def finish_trace(self, per_query: List[dict]) -> None:
        """Stop the session (which flushes the event log) and add the stage
        metrics of every traced query to its layer values."""
        stop_session(self.spark)
        for layers, stages in zip(per_query, stage_layers(self.event_log, self.n_traced)):
            if layers is not None:
                layers.update(stages)


class SparkJoin(SparkWorkload):
    """Fig. 6b: the compressed radix join lowered to Spark against the
    hand-fused monolithic join on the same cached frames."""

    def __init__(self, spark: SparkSession, event_log: Optional[Path], seed: int, n_rows: int) -> None:
        super().__init__(spark, event_log)
        r_seed, s_seed = input_seeds(seed, 2)
        r = dense_kv_pdf(n_rows, value_field="vr", seed=r_seed)
        s = dense_kv_pdf(n_rows, value_field="vs", seed=s_seed)
        self.expected = join_checksum(r, s)
        self.r_df = self.spark.createDataFrame(r).cache()
        self.s_df = self.spark.createDataFrame(s).cache()
        self.r_df.count(), self.s_df.count()
        self.cfg = JoinConfig(n_net=8, loc_bits=3, compress=True, p_bits=27)
        self.plan = distributed_join_plan(self.cfg)
        self.rows = 2 * n_rows
        # after one round the JVM is still compiling: the first timed query
        # would be the slowest
        self.warmups = 2

    @staticmethod
    def _checksum(df: DataFrame) -> Tuple[int, int, int, int]:
        """The final action: one aggregate that consumes every column."""
        row = df.agg(F.count(F.lit(1)), F.sum("k"), F.sum("vr"), F.sum("vs")).collect()[0]
        return tuple(int(v or 0) for v in row)

    def _next_modular(self):
        return "join", self.plan, {"R": self.r_df, "S": self.s_df}, None, self._checksum

    def _baseline(self):
        start = stamp()
        result = self._checksum(run_monolithic_join_spark(self.spark, self.r_df, self.s_df, self.cfg))
        return start, start, stamp(), ("join", result)

    def _check(self, result) -> bool:
        return result[1] == self.expected


class SparkTpch(SparkWorkload):
    """Fig. 9: Q4, Q12, Q14, Q19 in a fixed rotation, against native Spark
    SQL over the same cached tables, each result checked against DuckDB."""

    def __init__(self, spark: SparkSession, event_log: Optional[Path], seed: int, sf: float) -> None:
        import duckdb

        super().__init__(spark, event_log)
        li_seed, o_seed, p_seed = input_seeds(seed, 3)
        pdfs = {
            "lineitem": lineitem_pdf(sf=sf, seed=li_seed),
            "orders": orders_pdf(sf=sf, seed=o_seed),
            "part": part_pdf(sf=sf, seed=p_seed),
        }
        con = duckdb.connect()
        try:
            for name, pdf in pdfs.items():
                con.register(name, pdf)
            self.expected = {q.name: _canon(con.execute(q.sql).fetchdf()) for q in QUERIES}
        finally:
            con.close()
        self.tables = {name: self.spark.createDataFrame(pdf).cache() for name, pdf in pdfs.items()}
        for name, df in self.tables.items():
            df.count()
            df.createOrReplaceTempView(name)
        self.cfg = JoinConfig(n_net=8, loc_bits=3)
        self.plans = {q.name: q.build_plan(self.cfg) for q in QUERIES}
        # a rotation reads each query's tables once: report the mean per query
        self.rows = sum(
            len(pdfs[t]) for q in QUERIES for t in set(q.table_map.values())
        ) // len(QUERIES)
        self._turn = {"modular": 0, "baseline": 0}
        self.warmups = len(QUERIES)

    def _rotate(self, kind: str):
        q = QUERIES[self._turn[kind] % len(QUERIES)]
        self._turn[kind] += 1
        return q

    def _next_modular(self):
        q = self._rotate("modular")
        relations = {f: self.tables[t] for f, t in q.table_map.items()}
        return q.name, self.plans[q.name], relations, q.inner_schema, lambda df: df.toPandas()

    def _baseline(self):
        q = self._rotate("baseline")
        start = stamp()
        result = self.spark.sql(q.sql).toPandas()
        return start, start, stamp(), (q.name, result)

    def _check(self, result) -> bool:
        name, pdf = result
        expected = self.expected[name]
        if sorted(pdf.columns) != list(expected.columns):
            return False
        try:
            pd.testing.assert_frame_equal(_canon(pdf), expected, check_dtype=False)
        except AssertionError:
            return False
        return True


def make(
    name: str, spark: SparkSession, event_log: Optional[Path], seed: int, tiny: bool
) -> SparkWorkload:
    if name == "join_spark":
        return SparkJoin(spark, event_log, seed, 1 << (10 if tiny else 18))
    if name == "tpch_spark":
        return SparkTpch(spark, event_log, seed, 0.002 if tiny else 0.05)
    raise KeyError(name)
