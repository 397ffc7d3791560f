"""Unit tests for the plan DAG: topology, typing, rendering."""
import numpy as np
import pytest

from repro.core import Plan
from repro.core.types import FLOAT64, INT64, RowVectorType, TupleType
from repro.core.ops import (
    BuildProbe,
    Filter,
    LocalHistogram,
    MaterializeRowVector,
    NestedMap,
    ParameterLookup,
    Projection,
    ReduceByKey,
    RowScan,
    Zip,
)
from tests.helpers import source


def kv_type():
    return TupleType([("k", INT64), ("v", INT64)])


class TestTopology:
    def test_operators_topological(self):
        s = source("t")
        f = Filter(s, lambda pdf: np.ones(len(pdf), dtype=bool))
        plan = Plan(f)
        ops = plan.operators()
        assert ops.index(s) < ops.index(f)
        assert len(ops) == 4  # PL, PR, RS, FL

    def test_shared_upstream_counted_once(self):
        s = source("t")
        h = LocalHistogram(s, 2, bucket_fn=lambda pdf: (pdf["k"] % 2).to_numpy())
        z = Zip([h, LocalHistogram(s, 2, bucket_fn=lambda pdf: np.zeros(len(pdf), dtype=np.int64))])
        # Zip would fail at runtime on field overlap; topology only here.
        plan = Plan(z)
        assert plan.operators().count(s) == 1

    def test_cycle_detection(self):
        s = source("t")
        f = Filter(s, lambda pdf: np.ones(len(pdf), dtype=bool))
        s.upstreams.append(f)  # introduce a cycle
        with pytest.raises(ValueError, match="cycle"):
            Plan(f)


class TestTyping:
    def test_projection_type(self):
        pl = ParameterLookup(declared_type=kv_type())
        plan = Plan(Projection(pl, ["v"]))
        assert plan.out_type() == TupleType([("v", INT64)])

    def test_param_type_flows_through(self):
        plan = Plan(Projection(ParameterLookup(), ["k"]))
        assert plan.out_type(param_type=kv_type()) == TupleType([("k", INT64)])

    def test_rowscan_unnests_collection_type(self):
        inner = kv_type()
        outer = TupleType([("data", RowVectorType(inner))])
        pl = ParameterLookup(declared_type=outer)
        plan = Plan(RowScan(Projection(pl, ["data"]), "data"))
        assert plan.out_type() == inner

    def test_materialize_wraps_type(self):
        pl = ParameterLookup(declared_type=kv_type())
        plan = Plan(MaterializeRowVector(pl, field="d"))
        assert plan.out_type() == TupleType([("d", RowVectorType(kv_type()))])

    def test_buildprobe_type_order(self):
        lt = TupleType([("k", INT64), ("lv", FLOAT64)])
        rt = TupleType([("k", INT64), ("rv", INT64)])
        bp = BuildProbe(ParameterLookup(declared_type=lt), ParameterLookup(declared_type=rt), keys=["k"])
        assert Plan(bp).out_type().names == ("k", "lv", "rv")

    def test_unknown_propagates_as_none(self):
        from repro.core.ops import Map

        m = Map(ParameterLookup(declared_type=kv_type()), lambda pdf: pdf)
        assert Plan(Filter(m, lambda pdf: np.ones(len(pdf), dtype=bool))).out_type() is None

    def test_types_cover_nested_plans(self):
        inner = Plan(MaterializeRowVector(Projection(ParameterLookup(), ["k"]), field="d"))
        nm = NestedMap(ParameterLookup(declared_type=kv_type()), inner)
        types = Plan(nm).types()
        wrapped = TupleType([("d", RowVectorType(TupleType([("k", INT64)])))])
        assert types[inner.root] == types[nm] == wrapped
        assert list(types).index(inner.root) < list(types).index(nm)

    def test_reduce_by_key_preserves_type(self):
        pl = ParameterLookup(declared_type=kv_type())
        rk = ReduceByKey(pl, keys=["k"], row_fn=lambda a, b: a)
        assert Plan(rk).out_type() == kv_type()


class TestRender:
    def test_render_mentions_all_ops(self):
        plan = Plan(Filter(source("t"), lambda pdf: np.ones(len(pdf), dtype=bool)))
        text = plan.render()
        for name in ("PL", "PR", "RS", "FL"):
            assert name in text
