"""Unit tests for data-processing sub-operators: the row-at-a-time reference
path and the vectorized batch path must agree on every operator."""
import numpy as np
import pandas as pd
import pytest

from repro.core import Plan
from repro.core.ops import (
    BuildProbe,
    CartesianProduct,
    Filter,
    LocalHistogram,
    Map,
    ParametrizedMap,
    Projection,
    Reduce,
    ReduceByKey,
    Zip,
)
from repro.oracle import assert_equivalent
from tests.helpers import assert_same_rows, params_of, run_both, source


KV = pd.DataFrame({"k": [1, 2, 3, 2, 1], "v": [10, 20, 30, 40, 50]})


def run_plan(root, **frames):
    r, v = run_both(Plan(root), params=params_of(**frames))
    assert_same_rows(r, v)
    return sorted(r, key=lambda t: tuple(repr(t[c]) for c in sorted(t)))


class TestMap:
    def test_row_and_batch_agree(self):
        root = Map(source("t"), lambda pdf: pd.DataFrame({"k": pdf["k"], "v2": pdf["v"] * 2}))
        rows = run_plan(root, t=KV)
        assert {"k": 1, "v2": 20} in rows
        assert len(rows) == 5


class TestParametrizedMap:
    def test_parameter_passed_to_every_call(self):
        from repro.core.ops import ParameterLookup

        param = Map(ParameterLookup(), lambda pdf: pd.DataFrame({"shift": [100] * len(pdf)}))
        root = ParametrizedMap(
            param,
            source("t"),
            lambda pdf, p: pd.DataFrame({"k": pdf["k"] + p["shift"], "v": pdf["v"]}),
        )
        rows = run_plan(root, t=KV)
        assert sorted(r["k"] for r in rows) == [101, 101, 102, 102, 103]

    def test_multiple_parameter_tuples_is_error(self):
        root = ParametrizedMap(source("t"), source("t"), lambda pdf, p: pdf)
        from repro.core import interp

        with pytest.raises(RuntimeError, match="exactly one parameter"):
            interp.run_rows(Plan(root), params=params_of(t=KV))


class TestProjection:
    def test_keeps_subset_unmodified(self):
        rows = run_plan(Projection(source("t"), ["v"]), t=KV)
        assert rows == [{"v": x} for x in [10, 20, 30, 40, 50]]

    def test_missing_field_raises(self):
        from repro.core import interp

        with pytest.raises(KeyError):
            interp.run_rows(Plan(Projection(source("t"), ["nope"])), params=params_of(t=KV))


class TestCartesianProduct:
    def test_all_combinations(self):
        left = pd.DataFrame({"a": [1, 2]})
        right = pd.DataFrame({"b": [10, 20, 30]})
        rows = run_plan(CartesianProduct(source("l"), source("r")), l=left, r=right)
        assert len(rows) == 6
        assert {"a": 2, "b": 30} in rows

    def test_overlapping_names_rejected(self):
        from repro.core import vectorized

        left = pd.DataFrame({"a": [1]})
        with pytest.raises(RuntimeError, match="overlap"):
            vectorized.run_rows(
                Plan(CartesianProduct(source("l"), source("r"))),
                params=params_of(l=left, r=left),
            )


class TestFilter:
    def test_predicate(self):
        root = Filter(source("t"), lambda pdf: (pdf["v"] > 25).to_numpy())
        rows = run_plan(root, t=KV)
        assert sorted(r["v"] for r in rows) == [30, 40, 50]


class TestReduce:
    def test_fold_all(self):
        root = Reduce(
            Projection(source("t"), ["v"]),
            row_fn=lambda a, b: {"v": a["v"] + b["v"]},
            agg_spec={"v": "sum"},
        )
        rows = run_plan(root, t=KV)
        assert rows == [{"v": 150}]

    def test_empty_input_yields_nothing(self):
        root = Reduce(Projection(source("t"), ["v"]), row_fn=lambda a, b: a)
        rows = run_plan(root, t=KV.iloc[:0])
        assert rows == []


class TestReduceByKey:
    def test_combines_per_key_and_restores_key(self):
        root = ReduceByKey(
            source("t"), keys=["k"],
            row_fn=lambda a, b: {"v": a["v"] + b["v"]},
            agg_spec={"v": "sum"},
        )
        rows = run_plan(root, t=KV)
        assert rows == [{"k": 1, "v": 60}, {"k": 2, "v": 60}, {"k": 3, "v": 30}]

    def test_without_agg_spec_uses_fold(self):
        root = ReduceByKey(source("t"), keys=["k"],
                           row_fn=lambda a, b: {"v": max(a["v"], b["v"])})
        rows = run_plan(root, t=KV)
        assert rows == [{"k": 1, "v": 50}, {"k": 2, "v": 40}, {"k": 3, "v": 30}]

    def test_output_type_matches_input_order(self):
        df = pd.DataFrame({"v": [1, 2], "k": [7, 7]})
        root = ReduceByKey(source("t"), keys=["k"],
                           row_fn=lambda a, b: {"v": a["v"] + b["v"]},
                           agg_spec={"v": "sum"})
        from repro.core import vectorized

        pdf = vectorized.run_to_pdf(Plan(root), params=params_of(t=df))
        assert list(pdf.columns) == ["v", "k"]

    def test_multi_key(self):
        df = pd.DataFrame({"a": [1, 1, 2], "b": ["x", "x", "y"], "v": [1, 2, 3]})
        root = ReduceByKey(source("t"), keys=["a", "b"],
                           row_fn=lambda x, y: {"v": x["v"] + y["v"]},
                           agg_spec={"v": "sum"})
        rows = run_plan(root, t=df)
        assert rows == [{"a": 1, "b": "x", "v": 3}, {"a": 2, "b": "y", "v": 3}]


class TestZip:
    def test_positional_union(self):
        a = pd.DataFrame({"x": [1, 2]})
        b = pd.DataFrame({"y": [10, 20]})
        rows = run_plan(Zip([source("a"), source("b")]), a=a, b=b)
        assert rows == [{"x": 1, "y": 10}, {"x": 2, "y": 20}]

    def test_length_mismatch_raises(self):
        from repro.core import interp, vectorized

        a = pd.DataFrame({"x": [1, 2]})
        b = pd.DataFrame({"y": [10]})
        for ev in (interp, vectorized):
            with pytest.raises(RuntimeError, match="different numbers"):
                ev.run_rows(Plan(Zip([source("a"), source("b")])), params=params_of(a=a, b=b))

    def test_three_upstreams(self):
        a = pd.DataFrame({"x": [1]})
        b = pd.DataFrame({"y": [2]})
        c = pd.DataFrame({"z": [3]})
        rows = run_plan(Zip([source("a"), source("b"), source("c")]), a=a, b=b, c=c)
        assert rows == [{"x": 1, "y": 2, "z": 3}]


class TestLocalHistogram:
    def test_dense_ordered_counts(self):
        root = LocalHistogram(
            source("t"), n_buckets=4,
            bucket_fn=lambda pdf: (pdf["k"] % 4).to_numpy(),
        )
        rows = run_plan(root, t=KV)
        assert [r["bucket_id"] for r in rows] == [0, 1, 2, 3]
        assert [r["count"] for r in rows] == [0, 2, 2, 1]

    def test_out_of_range_bucket_raises(self):
        from repro.core import interp

        root = LocalHistogram(source("t"), n_buckets=2, bucket_fn=lambda pdf: pdf["k"].to_numpy())
        with pytest.raises(RuntimeError, match="out of range"):
            interp.run_rows(Plan(root), params=params_of(t=KV))

    def test_empty_input_gives_zero_counts(self):
        root = LocalHistogram(
            source("t"), n_buckets=3, bucket_fn=lambda pdf: np.zeros(len(pdf), dtype=np.int64)
        )
        rows = run_plan(root, t=KV.iloc[:0])
        assert [r["count"] for r in rows] == [0, 0, 0]


class TestBuildProbe:
    L = pd.DataFrame({"k": [1, 2, 2], "lv": [100, 200, 201]})
    R = pd.DataFrame({"k": [2, 3, 1], "rv": [7, 8, 9]})

    def test_inner_join(self):
        rows = run_plan(BuildProbe(source("l"), source("r"), keys=["k"]), l=self.L, r=self.R)
        assert rows == [
            {"k": 1, "lv": 100, "rv": 9},
            {"k": 2, "lv": 200, "rv": 7},
            {"k": 2, "lv": 201, "rv": 7},
        ]

    def test_semi_join_returns_probe_tuples(self):
        rows = run_plan(
            BuildProbe(source("l"), source("r"), keys=["k"], join_type="semi"),
            l=self.L, r=self.R,
        )
        assert rows == [{"k": 1, "rv": 9}, {"k": 2, "rv": 7}]

    def test_anti_join(self):
        rows = run_plan(
            BuildProbe(source("l"), source("r"), keys=["k"], join_type="anti"),
            l=self.L, r=self.R,
        )
        assert rows == [{"k": 3, "rv": 8}]

    def test_outer_join_pads_unmatched_probe(self):
        rows = run_plan(
            BuildProbe(source("l"), source("r"), keys=["k"], join_type="outer"),
            l=self.L, r=self.R,
        )
        assert len(rows) == 4
        unmatched = [r for r in rows if r["k"] == 3]
        assert len(unmatched) == 1
        assert unmatched[0]["rv"] == 8
        assert unmatched[0]["lv"] is None or pd.isna(unmatched[0]["lv"])

    def test_field_overlap_rejected(self):
        from repro.core import vectorized

        with pytest.raises(RuntimeError, match="overlap"):
            vectorized.run_rows(
                Plan(BuildProbe(source("l"), source("r"), keys=["k"])),
                params=params_of(l=self.L, r=self.L),
            )

    def test_unsupported_join_type(self):
        with pytest.raises(ValueError):
            BuildProbe(source("l"), source("r"), keys=["k"], join_type="full")

    def test_multi_key_join(self):
        l = pd.DataFrame({"a": [1, 1], "b": [1, 2], "lv": [10, 20]})
        r = pd.DataFrame({"a": [1, 1], "b": [2, 3], "rv": [5, 6]})
        rows = run_plan(BuildProbe(source("l"), source("r"), keys=["a", "b"]), l=l, r=r)
        assert rows == [{"a": 1, "b": 2, "lv": 20, "rv": 5}]

    NULL_SQL = {
        "inner": "SELECT l.k, lv, rv FROM l JOIN r ON l.k = r.k",
        "semi": "SELECT * FROM r WHERE EXISTS (SELECT 1 FROM l WHERE l.k = r.k)",
        "anti": "SELECT * FROM r WHERE NOT EXISTS (SELECT 1 FROM l WHERE l.k = r.k)",
        "outer": "SELECT r.k, lv, rv FROM l RIGHT JOIN r ON l.k = r.k",
    }

    @pytest.mark.parametrize("join_type", sorted(NULL_SQL))
    def test_null_keys_match_nothing(self, join_type):
        l = pd.DataFrame({"k": ["a", None, "b"], "lv": [1, 2, 3]})
        r = pd.DataFrame({"k": ["a", None, "c"], "rv": [10, 20, 30]})
        plan = Plan(BuildProbe(source("l"), source("r"), keys=["k"], join_type=join_type))
        for rows in run_both(plan, params=params_of(l=l, r=r)):
            assert_equivalent(pd.DataFrame(rows), self.NULL_SQL[join_type], l=l, r=r)
