"""Pieces shared by the Spark and simulator workloads: the closed loop,
sample statistics, the join checksum gate and the environment record."""
from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd

from clock import Stamp

#: root of the checkout the benchmark runs in (parent of ``perfbench/``)
ROOT = Path(__file__).resolve().parent.parent

#: a query returns its start, the end of its lowering (its start when it
#: lowers nothing), its end, and its result
Query = Callable[[], Tuple[Stamp, Stamp, Stamp, object]]


def input_seeds(seed: int, n: int) -> List[int]:
    """``n`` independent generator seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# ---------------------------------------------------------------------------
# join correctness gate
# ---------------------------------------------------------------------------

def join_checksum(r: pd.DataFrame, s: pd.DataFrame) -> Tuple[int, int, int, int]:
    """Expected (count, sum k, sum vr, sum vs) of the equi-join of two
    relations with unique keys, from the inputs alone."""
    for rel in (r, s):
        if not rel["k"].is_unique:
            raise ValueError("the join checksum assumes unique keys per side")
    in_s = np.isin(r["k"].to_numpy(), s["k"].to_numpy())
    in_r = np.isin(s["k"].to_numpy(), r["k"].to_numpy())
    return (
        int(in_s.sum()),
        int(r["k"].to_numpy()[in_s].sum()),
        int(r["vr"].to_numpy()[in_s].sum()),
        int(s["vs"].to_numpy()[in_r].sum()),
    )


def frame_checksum(out: pd.DataFrame) -> Tuple[int, int, int, int]:
    """(count, sum k, sum vr, sum vs) of a join result frame."""
    return (
        len(out),
        int(out["k"].to_numpy(dtype=np.int64).sum()),
        int(out["vr"].to_numpy(dtype=np.int64).sum()),
        int(out["vs"].to_numpy(dtype=np.int64).sum()),
    )


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

class DeterminismError(RuntimeError):
    """A count that must repeat exactly for one seed did not; this ends the
    run instead of counting as one failed query."""


@dataclass
class Kind:
    """One query kind of a workload: how to run it and how to gate it."""

    name: str
    run: Query
    check: Callable[[object], bool]
    #: input rows one query consumes
    rows: int
    #: wall and machine CPU seconds of each query that passed its gate,
    #: whole and without its lowering
    seconds: List[float] = field(default_factory=list)
    seconds_excl_lowering: List[float] = field(default_factory=list)
    cpu: List[float] = field(default_factory=list)
    cpu_excl_lowering: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def once(self) -> bool:
        """Run, time and gate one query; the gate runs outside the timing.
        A query that raises or returns a wrong result counts as failed."""
        self.attempted += 1
        try:
            start, lowered, end, result = self.run()
            ok = self.check(result)
        except DeterminismError:
            raise
        except Exception:  # one failed query must not end the run
            traceback.print_exc()
            self.failed += 1
            return False
        if not ok:
            print(f"wrong result from {self.name}", file=sys.stderr)
            self.failed += 1
            return False
        self.seconds.append(end[0] - start[0])
        self.seconds_excl_lowering.append(end[0] - lowered[0])
        self.cpu.append(end[1] - start[1])
        self.cpu_excl_lowering.append(end[1] - lowered[1])
        return True


def closed_loop(modular: Kind, baseline: Kind, seconds: float) -> None:
    """One client, one query at a time, no think time, for ``seconds``.

    Each round runs one Modularis query, then baseline queries until they
    have taken a third of that query's time (at least one). A baseline far
    faster than the plan thus gets many samples for its median without
    taking the run's time from the plan."""
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        modular.once()
        share = (perf_counter() - t0) / 3
        t0 = perf_counter()
        while True:
            baseline.once()
            if perf_counter() - t0 >= share or perf_counter() >= deadline:
                break
        if perf_counter() >= deadline:
            return


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def summary(samples: Sequence[float]) -> dict:
    """Median, sample count and the highest of p90/p99/p99.9 that has at
    least ten samples beyond it (None when the sample is too small)."""
    out: dict = {"n": len(samples), "median": statistics.median(samples) if samples else None}
    tail = None
    for p in (90.0, 99.0, 99.9):
        if len(samples) * (1 - p / 100) >= 10:
            tail = (p, float(np.percentile(samples, p)))
    out["tail"] = None if tail is None else {"percentile": tail[0], "value": tail[1]}
    out["raw"] = list(samples)
    return out


def median_of(samples: Sequence[float]) -> float:
    if not samples:
        raise RuntimeError("no successful query to take a median of")
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def cpu_times() -> Tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def steal_share(start: Tuple[int, int], end: Tuple[int, int]) -> Optional[float]:
    total = end[1] - start[1]
    return (end[0] - start[0]) / total if total > 0 else None


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None where it is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def mem_total_kb() -> Optional[int]:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    return None


def environment(spark_conf: Optional[Dict[str, str]]) -> dict:
    import duckdb
    import pyarrow
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "mem_total_kb": mem_total_kb(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "pandas": pd.__version__,
        "numpy": np.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
        "spark": spark_conf,
        "git_commit": git_commit(),
    }
