"""Unit tests for RowScan, MaterializeRowVector, LocalPartitioning."""
import numpy as np
import pandas as pd
import pytest

from repro.core import Plan, RowVector
from repro.core import interp, vectorized
from repro.core.ops import (
    CartesianProduct,
    LocalHistogram,
    LocalPartitioning,
    MaterializeRowVector,
    NestedMap,
    ParameterLookup,
    Projection,
    RowScan,
    Zip,
)
from tests.helpers import assert_same_rows, params_of, run_both, source


KV = pd.DataFrame({"k": [0, 1, 2, 3, 4, 5, 6, 7], "v": [1] * 8})


class TestRowScan:
    def test_explicit_field(self):
        rv = RowVector(pd.DataFrame({"a": [1, 2]}))
        frame = pd.DataFrame({"x": [9], "d": pd.Series([rv], dtype=object)})
        root = RowScan(Projection(ParameterLookup(), ["d"]), "d")
        r, v = run_both(Plan(root), params=params_of(t=frame) | {"d": rv, "x": 9})
        # plan params here directly carry the collection
        assert_same_rows(r, v)
        assert_same_rows(r, [{"a": 1}, {"a": 2}])

    def test_single_field_inference(self):
        rv = RowVector(pd.DataFrame({"a": [5]}))
        root = RowScan(Projection(ParameterLookup(), ["d"]))
        rows = interp.run_rows(Plan(root), params={"d": rv})
        assert rows == [{"a": 5}]

    def test_multi_field_without_explicit_field_raises(self):
        rv = RowVector(pd.DataFrame({"a": [5]}))
        root = RowScan(ParameterLookup())
        with pytest.raises(RuntimeError, match="single-field"):
            interp.run_rows(Plan(root), params={"d": rv, "e": rv})

    def test_non_collection_field_raises(self):
        root = RowScan(ParameterLookup(), "d")
        with pytest.raises(RuntimeError, match="does not hold a RowVector"):
            interp.run_rows(Plan(root), params={"d": 42})


def lp_plan(n=4, **fields):
    data = source("t")
    hist = LocalHistogram(
        source("t"), n_buckets=n,
        bucket_fn=lambda pdf: (pdf["k"] % n).to_numpy(),
    )
    return LocalPartitioning(
        data, hist, n_partitions=n,
        bucket_fn=lambda pdf: (pdf["k"] % n).to_numpy(),
        **fields,
    )


class TestLocalPartitioning:
    def test_partitions_are_dense_and_ordered(self):
        rows = interp.run_rows(Plan(lp_plan()), params=params_of(t=KV))
        assert [r["partition_id"] for r in rows] == [0, 1, 2, 3]
        for r in rows:
            ks = [t["k"] for t in r["partition_data"].iter_rows()]
            assert all(k % 4 == r["partition_id"] for k in ks)
            assert len(ks) == 2

    def test_row_and_batch_agree_on_contents(self):
        r = interp.run_rows(Plan(lp_plan()), params=params_of(t=KV))
        v = vectorized.run_rows(Plan(lp_plan()), params=params_of(t=KV))
        for a, b in zip(r, v):
            assert a["partition_id"] == b["partition_id"]
            assert sorted(t["k"] for t in a["partition_data"].iter_rows()) == sorted(
                t["k"] for t in b["partition_data"].iter_rows()
            )

    def test_histogram_size_mismatch_raises(self):
        data = source("t")
        hist = LocalHistogram(
            source("t"), n_buckets=2, bucket_fn=lambda pdf: (pdf["k"] % 2).to_numpy()
        )
        lp = LocalPartitioning(
            data, hist, n_partitions=4, bucket_fn=lambda pdf: (pdf["k"] % 4).to_numpy()
        )
        with pytest.raises(RuntimeError, match="histogram has 2 buckets"):
            interp.run_rows(Plan(lp), params=params_of(t=KV))

    def test_wrong_histogram_counts_raise(self):
        data = source("t")
        # histogram claims everything is in bucket 0
        hist = LocalHistogram(
            source("t"), n_buckets=4, bucket_fn=lambda pdf: np.zeros(len(pdf), dtype=np.int64)
        )
        lp = LocalPartitioning(
            data, hist, n_partitions=4, bucket_fn=lambda pdf: (pdf["k"] % 4).to_numpy()
        )
        with pytest.raises(RuntimeError, match="histogram says"):
            interp.run_rows(Plan(lp), params=params_of(t=KV))

    def test_empty_partitions_preserved(self):
        df = pd.DataFrame({"k": [0, 0], "v": [1, 2]})
        rows = vectorized.run_rows(Plan(lp_plan()), params=params_of(t=df))
        assert len(rows) == 4
        assert len(rows[0]["partition_data"]) == 2
        assert all(len(rows[p]["partition_data"]) == 0 for p in (1, 2, 3))


def count_partition_plan():
    """Nested plan over one <partition_id, partition_data> tuple: tag the
    partition's tuple count with its id."""
    pl = ParameterLookup()
    data = RowScan(Projection(pl, ["partition_data"]), "partition_data")
    count = LocalHistogram(
        data, n_buckets=1, bucket_fn=lambda pdf: np.zeros(len(pdf), dtype=np.int64),
    )
    return Plan(MaterializeRowVector(
        CartesianProduct(Projection(pl, ["partition_id"]), count), field="out"
    ))


class TestControlTuples:
    """Both evaluators agree on the control-level shapes: partition lists,
    parameter tuples and nested-plan results."""

    def test_empty_partitions_feed_nested_map(self):
        df = pd.DataFrame({"k": [0, 0, 2], "v": [1, 2, 3]})
        root = RowScan(NestedMap(lp_plan(), count_partition_plan()), "out")
        r, v = run_both(Plan(root), params=params_of(t=df))
        assert_same_rows(r, v)
        assert sorted((t["partition_id"], t["count"]) for t in r) == [(0, 2), (1, 0), (2, 1), (3, 0)]

    def test_nested_map_over_empty_upstream(self):
        frame = pd.DataFrame({"partition_id": pd.Series([], dtype="int64"),
                              "partition_data": pd.Series([], dtype=object)})
        plan = Plan(RowScan(NestedMap(source("parts"), count_partition_plan()), "out"))
        assert run_both(plan, params=params_of(parts=frame)) == ([], [])

    def test_zip_and_cartesian_product_over_control_tuples(self):
        def tagged(sfx):
            lp = lp_plan(pid_field=f"pid_{sfx}", data_field=f"data_{sfx}")
            return CartesianProduct(Projection(ParameterLookup(), [f"tag_{sfx}"]), lp)

        root = Projection(Zip([tagged("a"), tagged("b")]), ["tag_a", "pid_a", "tag_b", "pid_b"])
        params = params_of(t=KV) | {"tag_a": "x", "tag_b": "y"}
        r, v = run_both(Plan(root), params=params)
        assert r == v
        assert r == [{"tag_a": "x", "pid_a": p, "tag_b": "y", "pid_b": p} for p in range(4)]

    def test_partition_ids_are_python_ints(self):
        rows = vectorized.run_rows(Plan(lp_plan()), params=params_of(t=KV))
        assert [type(t["partition_id"]) for t in rows] == [int] * 4
