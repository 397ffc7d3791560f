"""Sub-operator base class and execution context.

Sub-operators follow the Volcano iterator model extended with nested
collections (paper Section 3.2). Two data paths exist:

* ``rows(ctx, ups)``  — row-at-a-time: iterators of ``dict`` tuples. This is
  the reference semantics and the engine of the interpreted (Presto-like)
  baseline.
* ``batches(ctx, ups)`` — vectorized: iterators of *batches*. This is the
  reproduction's analogue of the paper's JIT-compiled pipelines: the
  per-tuple interpretation overhead disappears from inner loops.

An operator that takes user code (``Map``, ``ParametrizedMap``, ``Filter``,
``LocalHistogram``, ``LocalPartitioning``, ``MpiExchange``) takes exactly
one kernel, written over a DataFrame. The batch path runs it over whole
batches; the row path calls the same kernel on a one-row frame
(``on_one_row``), so each operator's per-tuple logic is written once.

A batch is one of two kinds. Data tuples travel as a pandas DataFrame, so
kernels run over whole columns. Control-level tuples — the few tuples that
carry a nested ``RowVector`` or a partition id (parameter tuples, nested-plan
results, partition lists) — travel as a plain ``list`` of the same ``dict``
tuples the row path uses, because building a one-row object-dtype frame
per nested invocation costs far more than the work it orchestrates. Every
``batches()`` accepts either kind: ``tuples_of`` and ``frame_of`` convert
at the boundary, and ``concat_batches`` takes both.

Operators are composed into a DAG via their ``upstreams`` list; the
evaluators in ``repro.core.interp`` / ``repro.core.vectorized`` drive the
iteration and handle multi-consumer materialization (pipeline cutting).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, List, Optional, Sequence, Union

import numpy as np
import pandas as pd

from repro.core.types import RowVector, TupleType

#: a data batch (DataFrame) or a control batch (list of tuple dicts)
Batch = Union[pd.DataFrame, List[dict]]


@dataclass
class ExecContext:
    """Per-execution state threaded through operator iterators.

    ``params`` backs ``ParameterLookup`` inside nested plans; ``comm`` is the
    MPI-style communicator required by network operators (None for local
    plans); ``run_nested_*`` are evaluator callbacks so orchestration
    operators can execute nested plans without importing the evaluator
    (avoids a circular dependency and lets each evaluator nest itself).
    """

    params: Optional[dict] = None
    comm: Any = None
    profiler: Any = None
    run_nested_rows: Optional[Callable] = None
    run_nested_batches: Optional[Callable] = None
    extra: dict = field(default_factory=dict)

    def child(self, params: dict) -> "ExecContext":
        return replace(self, params=params)

    def with_comm(self, comm: Any) -> "ExecContext":
        return replace(self, comm=comm)


class SubOperator:
    """Base class: an iterator node in a sub-operator DAG."""

    #: short name used in plan rendering and Table 1 (SLOC) accounting
    op_name: str = "??"
    #: evaluation phase this operator is attributed to in breakdowns
    phase: str = "other"

    def __init__(self, upstreams: Sequence["SubOperator"] = ()) -> None:
        self.upstreams: List[SubOperator] = list(upstreams)

    # -- static typing -----------------------------------------------------
    def out_type(self, in_types: Sequence[Optional[TupleType]]) -> Optional[TupleType]:
        """Output tuple type given upstream types; None = unknown/dynamic."""
        return None

    # -- execution ---------------------------------------------------------
    def rows(self, ctx: ExecContext, ups: Sequence[Iterator[dict]]) -> Iterator[dict]:
        raise NotImplementedError(
            f"{type(self).__name__} has no row-at-a-time implementation"
        )

    def batches(self, ctx: ExecContext, ups: Sequence[Iterator[Batch]]) -> Iterator[Batch]:
        raise NotImplementedError(
            f"{type(self).__name__} has no vectorized implementation"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}"


def tuples_of(batch: Batch) -> List[dict]:
    """The tuples of a batch of either kind, as row dicts (a control batch
    is returned as is; callers must not mutate it)."""
    if isinstance(batch, list):
        return batch
    return list(RowVector(batch).iter_rows())


def frame_of(batch: Batch) -> pd.DataFrame:
    """A batch of either kind as a DataFrame, for kernels over columns."""
    if isinstance(batch, list):
        return pd.DataFrame(batch)
    return batch


def on_one_row(kernel: Callable, t: dict, *args: Any) -> Any:
    """The row path of a batch kernel: call it on a one-row frame of tuple
    ``t`` (plus ``args``). A frame result comes back as its tuples, an array
    result (a mask or bucket ids) as its one element."""
    out = kernel(pd.DataFrame([t]), *args)
    if isinstance(out, pd.DataFrame):
        return tuples_of(out)
    return np.asarray(out)[0]


def concat_batches(batches: Sequence[Batch], columns: Optional[Sequence[str]] = None) -> pd.DataFrame:
    """Concatenate batches of either kind into one frame; an empty stream
    yields an empty typed frame. A lone non-empty frame is returned without
    a copy when its index is already canonical (operators never mutate
    their input frames)."""
    mats = [frame_of(b) for b in batches if len(b)]
    if len(mats) == 1:
        return RowVector(mats[0]).df
    if mats:
        return pd.concat(mats, ignore_index=True)
    for b in batches:
        if isinstance(b, pd.DataFrame):
            return b.iloc[:0]
    return pd.DataFrame(columns=list(columns or []))
