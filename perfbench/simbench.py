"""Simulator workloads: the Fig. 6a join plan on ``SimCluster`` rank threads
against the monolithic radix join on the same inputs.

No Spark and no lowering here, so ``modularity_cost`` is simply the ratio of
the two query times.
"""
from __future__ import annotations

import threading
from collections import Counter, defaultdict
from typing import Dict, Tuple

from repro.core import vectorized
from repro.core.ops.base import ExecContext
from repro.core.profiling import Profiler
from repro.modular.common import JoinConfig
from repro.modular.join import distributed_join_plan
from repro.monolithic import run_monolithic_join
from repro.mpi.thread_backend import make_rank_inputs, run_on_sim
from repro.synth_data import dense_kv_pdf

from clock import stamp
from common import DeterminismError, Kind, frame_checksum, input_seeds, join_checksum

RANKS = 4
SIM_COUNTERS = {
    "sim.bytes_put": "bytes_put",
    "sim.puts": "puts",
    "sim.windows": "windows_created",
    "sim.collectives": "collectives",
    "sim.barriers": "barriers",
}


class OpProfiler(Profiler):
    """Exclusive time keyed by (operator class, thread) instead of by phase,
    plus the number of times each operator class is invoked."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: Counter = Counter()
        self.phase_of: Dict[str, str] = {}

    def wrap(self, op, gen):
        name = type(op).__name__
        with self._lock:
            self.calls[name] += 1
            self.phase_of[name] = getattr(op, "phase", "other")

        def inner():
            while True:
                self.push((name, threading.get_ident()))
                try:
                    item = next(gen)
                except StopIteration:
                    self.pop()
                    return
                self.pop()
                yield item

        return inner()


class SimJoin:
    """``run_on_sim`` of the compressed radix join on 4 rank threads."""

    def __init__(self, seed: int, n_rows: int, loc_bits: int) -> None:
        r_seed, s_seed = input_seeds(seed, 2)
        self.r = dense_kv_pdf(n_rows, value_field="vr", seed=r_seed)
        self.s = dense_kv_pdf(n_rows, value_field="vs", seed=s_seed)
        self.cfg = JoinConfig(n_net=RANKS, loc_bits=loc_bits, compress=True, p_bits=27)
        self.plan = distributed_join_plan(self.cfg)
        self.expected = join_checksum(self.r, self.s)
        self.rows = 2 * n_rows
        self.warmups = 1
        #: network counters of the first query; later ones must repeat them
        self.net_counts = None

    def spark_conf(self):
        return None

    def kinds(self) -> Tuple[Kind, Kind]:
        return (
            Kind("modular", self._modular, self._check_modular, self.rows),
            Kind("baseline", self._baseline, self._check, self.rows),
        )

    def _modular(self):
        start = stamp()
        out, info = run_on_sim(self.plan, RANKS, {"R": self.r, "S": self.s})
        return start, start, stamp(), (out, (info["bytes_put"], info["puts"]))

    def _check_modular(self, result) -> bool:
        out, counts = result
        if self.net_counts is None:
            self.net_counts = counts
        elif counts != self.net_counts:
            raise DeterminismError(f"(bytes_put, puts) {counts} != {self.net_counts}")
        return self._check(out)

    def _baseline(self):
        start = stamp()
        out, _ = run_monolithic_join(RANKS, self.r, self.s, self.cfg)
        return start, start, stamp(), out

    def _check(self, out) -> bool:
        return frame_checksum(out) == self.expected

    def traced(self) -> Tuple[str, dict, bool]:
        """One query through the calls ``run_on_sim`` makes, with an
        ``OpProfiler`` in the context; returns its per-layer values."""
        prof = OpProfiler()
        ctx = ExecContext(profiler=prof)
        start = stamp()
        params = make_rank_inputs(RANKS, R=self.r, S=self.s)
        out = vectorized.run_to_pdf(self.plan, ctx, params=params)
        end = stamp()
        query_s = end[0] - start[0]

        driver = threading.get_ident()
        op_s: Dict[str, float] = defaultdict(float)
        rank_s: Dict[int, float] = defaultdict(float)
        phase_s: Dict[str, float] = defaultdict(float)
        driver_s = 0.0
        for (name, thread), secs in prof.breakdown().items():
            op_s[name] += secs
            if thread == driver:
                driver_s += secs
            else:
                rank_s[thread] += secs
                phase_s[prof.phase_of[name]] += secs / RANKS
        stats = ctx.extra["last_cluster"].stats
        layers = {
            "traced.query_s": query_s,
            "traced.query_cpu_s": end[1] - start[1],
            "traced.unattributed_s": query_s - driver_s,
            "sim.rank_self_s.max": max(rank_s.values()),
            "sim.rank_self_s.mean": sum(rank_s.values()) / RANKS,
        }
        for name, attr in SIM_COUNTERS.items():
            layers[name] = sum(getattr(st, attr) for st in stats)
        for name, secs in op_s.items():
            layers[f"op.{name}.self_s"] = secs
            layers[f"op.{name}.calls"] = prof.calls[name]
        for phase, secs in phase_s.items():
            layers[f"phase.{phase}.self_s"] = secs
        return "join", layers, self._check(out)

    def finish_trace(self, per_query) -> None:
        pass


def make(name: str, seed: int, tiny: bool) -> SimJoin:
    if name == "join_sim":
        return SimJoin(seed, 1 << (12 if tiny else 21), loc_bits=4)
    if name == "join_sim_fine":
        return SimJoin(seed, 1 << (12 if tiny else 17), loc_bits=6)
    raise KeyError(name)
