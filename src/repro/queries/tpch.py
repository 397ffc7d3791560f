"""TPC-H Queries 4, 12, 14 and 19 as Modularis sub-operator plans.

The paper picks these four because they share one pattern: a single join of
two pre-filtered tables followed by projection and post-aggregation of the
join result. Each query here carries

* ``sql`` — the query text, executed verbatim by the DuckDB oracle and by
  the MemSQL stand-in (Spark SQL);
* ``build_plan(cfg)`` — the sub-operator plan: per-side filter/projection
  pipelines (``pre_scan``), the generic distributed join of Fig. 3, and the
  query's post-aggregation inserted at every nesting level via the
  ``probe_post``/``pair_post``/``rank_post``/``driver_post`` hooks;
* ``table_map`` — which input relation feeds which plan field.

Every ``Map`` declares its output type, so the plans type statically and
the Spark lowering derives every schema from them.

Predicate constants are the official TPC-H ones, evaluated over the
synthetic TPC-H-lite generators of ``repro.synth_data`` (substitution
documented in DESIGN.md).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np
import pandas as pd

from repro.core import Plan
from repro.core.ops import Filter, Map, Reduce, ReduceByKey
from repro.core.ops.base import SubOperator
from repro.core.types import FLOAT64, INT64, STR, Atom, TupleType
from repro.modular.common import JoinConfig
from repro.modular.join import distributed_join_plan


@dataclass(frozen=True)
class TpchQuery:
    name: str
    sql: str
    #: plan input field -> synthetic table name (lineitem/orders/part)
    table_map: Dict[str, str]
    build_plan: Callable[[JoinConfig], Plan]
    #: the nested-plan output schema (Spark DDL). ``repro`` no longer reads
    #: it — the lowering derives the schema from the plan's types; a test
    #: checks the two agree, and benchmark tooling may still pass it.
    inner_schema: str


def _map(up: SubOperator, batch_fn, **out_fields: Atom) -> Map:
    """Map with a vectorized kernel, a derived row fallback and the output
    type given as keyword atoms, in output column order."""

    def row_fn(t):
        out = batch_fn(pd.DataFrame([t]))
        return {c: out[c].iloc[0] for c in out.columns}

    return Map(up, row_fn=row_fn, batch_fn=batch_fn, declared_type=TupleType(list(out_fields.items())))


def _filter(up: SubOperator, batch_pred) -> Filter:
    return Filter(
        up,
        row_pred=lambda t: bool(batch_pred(pd.DataFrame([t]))[0]),
        batch_pred=batch_pred,
    )


def _revenue(pdf: pd.DataFrame) -> np.ndarray:
    return (pdf["l_extendedprice"] * (1.0 - pdf["l_discount"])).to_numpy()


# ---------------------------------------------------------------------------
# Q4 — order priority checking (EXISTS semi-join)
# ---------------------------------------------------------------------------

Q4_SQL = """
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '1993-07-01' AND o_orderdate < TIMESTAMP '1993-10-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
GROUP BY o_orderpriority
""".strip()


def q4_plan(cfg: JoinConfig) -> Plan:
    def pre_scan(field: str, op: SubOperator) -> SubOperator:
        if field == "L":  # build side: matching lineitem order keys
            op = _filter(op, lambda pdf: (pdf["l_commitdate"] < pdf["l_receiptdate"]).to_numpy())
            return _map(op, lambda pdf: pd.DataFrame({"k": pdf["l_orderkey"]}), k=INT64)
        op = _filter(
            op,
            lambda pdf: (
                (pdf["o_orderdate"] >= pd.Timestamp("1993-07-01"))
                & (pdf["o_orderdate"] < pd.Timestamp("1993-10-01"))
            ).to_numpy(),
        )
        return _map(
            op, lambda pdf: pd.DataFrame({"k": pdf["o_orderkey"], "o_orderpriority": pdf["o_orderpriority"]}),
            k=INT64, o_orderpriority=STR,
        )

    def count_rows(op: SubOperator) -> SubOperator:
        counted = _map(
            op,
            lambda pdf: pd.DataFrame(
                {"o_orderpriority": pdf["o_orderpriority"],
                 "order_count": np.ones(len(pdf), dtype=np.int64)}
            ),
            o_orderpriority=STR, order_count=INT64,
        )
        return _rk(counted)

    def _rk(op: SubOperator) -> ReduceByKey:
        return ReduceByKey(
            op, keys=["o_orderpriority"],
            row_fn=lambda a, b: {"order_count": a["order_count"] + b["order_count"]},
            agg_spec={"order_count": "sum"},
        )

    return distributed_join_plan(
        cfg, fields=("L", "O"), value_fields=("_", "_"), join_type="semi",
        pre_scan=pre_scan, probe_post=count_rows,
        pair_post=_rk, rank_post=_rk, driver_post=_rk,
    )


# ---------------------------------------------------------------------------
# Q12 — shipping modes and order priority
# ---------------------------------------------------------------------------

Q12_SQL = """
SELECT l_shipmode,
       SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS high_line_count,
       SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS low_line_count
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
WHERE l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate
  AND l_shipdate < l_commitdate
  AND l_receiptdate >= TIMESTAMP '1994-01-01' AND l_receiptdate < TIMESTAMP '1995-01-01'
GROUP BY l_shipmode
""".strip()


def q12_plan(cfg: JoinConfig) -> Plan:
    def pre_scan(field: str, op: SubOperator) -> SubOperator:
        if field == "O":  # build side
            return _map(
                op, lambda pdf: pd.DataFrame({"k": pdf["o_orderkey"], "o_orderpriority": pdf["o_orderpriority"]}),
                k=INT64, o_orderpriority=STR,
            )
        op = _filter(
            op,
            lambda pdf: (
                pdf["l_shipmode"].isin(["MAIL", "SHIP"])
                & (pdf["l_commitdate"] < pdf["l_receiptdate"])
                & (pdf["l_shipdate"] < pdf["l_commitdate"])
                & (pdf["l_receiptdate"] >= pd.Timestamp("1994-01-01"))
                & (pdf["l_receiptdate"] < pd.Timestamp("1995-01-01"))
            ).to_numpy(),
        )
        return _map(
            op, lambda pdf: pd.DataFrame({"k": pdf["l_orderkey"], "l_shipmode": pdf["l_shipmode"]}),
            k=INT64, l_shipmode=STR,
        )

    def classify(op: SubOperator) -> SubOperator:
        def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
            high = pdf["o_orderpriority"].isin(["1-URGENT", "2-HIGH"]).to_numpy()
            return pd.DataFrame(
                {
                    "l_shipmode": pdf["l_shipmode"],
                    "high_line_count": high.astype(np.int64),
                    "low_line_count": (~high).astype(np.int64),
                }
            )

        return _rk(
            _map(op, kernel, l_shipmode=STR, high_line_count=INT64, low_line_count=INT64)
        )

    def _rk(op: SubOperator) -> ReduceByKey:
        return ReduceByKey(
            op, keys=["l_shipmode"],
            row_fn=lambda a, b: {
                "high_line_count": a["high_line_count"] + b["high_line_count"],
                "low_line_count": a["low_line_count"] + b["low_line_count"],
            },
            agg_spec={"high_line_count": "sum", "low_line_count": "sum"},
        )

    return distributed_join_plan(
        cfg, fields=("O", "L"), value_fields=("_", "_"),
        pre_scan=pre_scan, probe_post=classify,
        pair_post=_rk, rank_post=_rk, driver_post=_rk,
    )


# ---------------------------------------------------------------------------
# Q14 — promotion effect
# ---------------------------------------------------------------------------

Q14_SQL = """
SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                         THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
       / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= TIMESTAMP '1995-09-01' AND l_shipdate < TIMESTAMP '1995-10-01'
""".strip()


def _sum2(cols: Sequence[str]) -> Reduce:
    def make(op: SubOperator) -> Reduce:
        return Reduce(
            op,
            row_fn=lambda a, b: {c: a[c] + b[c] for c in cols},
            batch_fn=lambda pdf: {c: float(pdf[c].sum()) for c in cols},
            agg_spec={c: "sum" for c in cols},
        )

    return make


def q14_plan(cfg: JoinConfig) -> Plan:
    def pre_scan(field: str, op: SubOperator) -> SubOperator:
        if field == "P":  # build side
            return _map(
                op, lambda pdf: pd.DataFrame({"k": pdf["p_partkey"], "p_type": pdf["p_type"]}),
                k=INT64, p_type=STR,
            )
        op = _filter(
            op,
            lambda pdf: (
                (pdf["l_shipdate"] >= pd.Timestamp("1995-09-01"))
                & (pdf["l_shipdate"] < pd.Timestamp("1995-10-01"))
            ).to_numpy(),
        )
        return _map(
            op, lambda pdf: pd.DataFrame({"k": pdf["l_partkey"], "rev": _revenue(pdf)}),
            k=INT64, rev=FLOAT64,
        )

    def split_revenue(op: SubOperator) -> SubOperator:
        def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
            promo = pdf["p_type"].str.startswith("PROMO").to_numpy()
            rev = pdf["rev"].to_numpy()
            return pd.DataFrame({"promo_rev": np.where(promo, rev, 0.0), "total_rev": rev})

        return _sum2(["promo_rev", "total_rev"])(
            _map(op, kernel, promo_rev=FLOAT64, total_rev=FLOAT64)
        )

    def ratio(op: SubOperator) -> SubOperator:
        summed = _sum2(["promo_rev", "total_rev"])(op)
        return _map(
            summed,
            lambda pdf: pd.DataFrame(
                {"promo_revenue": 100.0 * pdf["promo_rev"] / pdf["total_rev"]}
            ),
            promo_revenue=FLOAT64,
        )

    return distributed_join_plan(
        cfg, fields=("P", "L"), value_fields=("_", "_"),
        pre_scan=pre_scan, probe_post=split_revenue,
        pair_post=_sum2(["promo_rev", "total_rev"]),
        rank_post=_sum2(["promo_rev", "total_rev"]),
        driver_post=ratio,
    )


# ---------------------------------------------------------------------------
# Q19 — discounted revenue (disjunctive cross-table predicate)
# ---------------------------------------------------------------------------

Q19_SQL = """
SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#12'
       AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
       AND l_quantity >= 1 AND l_quantity <= 11 AND p_size BETWEEN 1 AND 5
       AND l_shipmode IN ('AIR', 'REG AIR')
       AND l_shipinstruct = 'DELIVER IN PERSON')
   OR (p_brand = 'Brand#23'
       AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
       AND l_quantity >= 10 AND l_quantity <= 20 AND p_size BETWEEN 1 AND 10
       AND l_shipmode IN ('AIR', 'REG AIR')
       AND l_shipinstruct = 'DELIVER IN PERSON')
   OR (p_brand = 'Brand#34'
       AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
       AND l_quantity >= 20 AND l_quantity <= 30 AND p_size BETWEEN 1 AND 15
       AND l_shipmode IN ('AIR', 'REG AIR')
       AND l_shipinstruct = 'DELIVER IN PERSON')
""".strip()

_Q19_BRANCHES = (
    ("Brand#12", ["SM CASE", "SM BOX", "SM PACK", "SM PKG"], 1, 11, 5),
    ("Brand#23", ["MED BAG", "MED BOX", "MED PKG", "MED PACK"], 10, 20, 10),
    ("Brand#34", ["LG CASE", "LG BOX", "LG PACK", "LG PKG"], 20, 30, 15),
)


def _q19_joined_pred(pdf: pd.DataFrame) -> np.ndarray:
    mask = np.zeros(len(pdf), dtype=bool)
    for brand, containers, qlo, qhi, smax in _Q19_BRANCHES:
        mask |= (
            (pdf["p_brand"] == brand)
            & pdf["p_container"].isin(containers)
            & (pdf["l_quantity"] >= qlo)
            & (pdf["l_quantity"] <= qhi)
            & (pdf["p_size"] >= 1)
            & (pdf["p_size"] <= smax)
        ).to_numpy()
    return mask


def q19_plan(cfg: JoinConfig) -> Plan:
    def pre_scan(field: str, op: SubOperator) -> SubOperator:
        if field == "P":  # build side, pre-filtered to the brand superset
            op = _filter(
                op,
                lambda pdf: (
                    pdf["p_brand"].isin([b for b, *_ in _Q19_BRANCHES])
                    & (pdf["p_size"] >= 1) & (pdf["p_size"] <= 15)
                ).to_numpy(),
            )
            return _map(
                op,
                lambda pdf: pd.DataFrame(
                    {"k": pdf["p_partkey"], "p_brand": pdf["p_brand"],
                     "p_container": pdf["p_container"], "p_size": pdf["p_size"]}
                ),
                k=INT64, p_brand=STR, p_container=STR, p_size=INT64,
            )
        op = _filter(
            op,
            lambda pdf: (
                pdf["l_shipmode"].isin(["AIR", "REG AIR"])
                & (pdf["l_shipinstruct"] == "DELIVER IN PERSON")
            ).to_numpy(),
        )
        return _map(
            op,
            lambda pdf: pd.DataFrame(
                {"k": pdf["l_partkey"], "l_quantity": pdf["l_quantity"], "rev": _revenue(pdf)}
            ),
            k=INT64, l_quantity=FLOAT64, rev=FLOAT64,
        )

    def residual(op: SubOperator) -> SubOperator:
        filtered = _filter(op, _q19_joined_pred)
        projected = _map(filtered, lambda pdf: pd.DataFrame({"revenue": pdf["rev"]}), revenue=FLOAT64)
        return _sum1(projected)

    def _sum1(op: SubOperator) -> Reduce:
        return Reduce(
            op,
            row_fn=lambda a, b: {"revenue": a["revenue"] + b["revenue"]},
            batch_fn=lambda pdf: {"revenue": float(pdf["revenue"].sum())},
            agg_spec={"revenue": "sum"},
        )

    return distributed_join_plan(
        cfg, fields=("P", "L"), value_fields=("_", "_"),
        pre_scan=pre_scan, probe_post=residual,
        pair_post=_sum1, rank_post=_sum1, driver_post=_sum1,
    )


QUERIES: Tuple[TpchQuery, ...] = (
    TpchQuery(
        name="Q4", sql=Q4_SQL,
        table_map={"L": "lineitem", "O": "orders"},
        build_plan=q4_plan,
        inner_schema="o_orderpriority string, order_count long",
    ),
    TpchQuery(
        name="Q12", sql=Q12_SQL,
        table_map={"O": "orders", "L": "lineitem"},
        build_plan=q12_plan,
        inner_schema="l_shipmode string, high_line_count long, low_line_count long",
    ),
    TpchQuery(
        name="Q14", sql=Q14_SQL,
        table_map={"P": "part", "L": "lineitem"},
        build_plan=q14_plan,
        inner_schema="promo_rev double, total_rev double",
    ),
    TpchQuery(
        name="Q19", sql=Q19_SQL,
        table_map={"P": "part", "L": "lineitem"},
        build_plan=q19_plan,
        inner_schema="revenue double",
    ),
)
