"""Closed-loop benchmark of the Modularis reproduction.

    python3 perfbench/run.py --workload join_sim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --tiny --seconds 1

Run from the root of a checkout. One client runs one query at a time with no
think time: the Modularis plan and its baseline alternate on the same inputs,
each query gated outside its timing. With ``--trace 0`` the run reports the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it runs
only the Modularis query, traced, and reports the per-layer metrics. The last
line of standard output is the result; the line before it holds the detail
(raw samples, environment, per-query layer values). ``--all`` runs every
workload in both modes, prints each metric with its unit and checks each
result line against ``BENCHMARK.json``; with ``--tiny`` it is the smoke
test.
"""
import time

from clock import stamp

#: wall and machine CPU clocks when the process started
START = stamp()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPARK_WORKLOADS = ("join_spark", "tpch_spark")
SIM_WORKLOADS = ("join_sim", "join_sim_fine")
#: per-layer counts that must repeat exactly across traced queries of one kind
DETERMINISTIC = ("lower.plan_jobs", "lower.result_jobs", "sim.bytes_put", "sim.puts")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def pin_environment(work: Path) -> None:
    """Replace whatever the program would read from the caller's
    environment, so every run sees the same settings."""
    for key in list(os.environ):
        if key.startswith("REPRO_") or key in (
            "SPARK_SHUFFLE_PARTITIONS", "SPARK_DRIVER_MEM", "PYSPARK_SUBMIT_ARGS",
            "PYSPARK_DRIVER_PYTHON",
        ):
            del os.environ[key]
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ.update({
        "SPARK_MASTER": "local[4]",
        "SPARK_LOCAL_DIRS": str(work / "spark-local"),
        # Python workers import the program from the checkout
        "PYTHONPATH": str(ROOT / "src"),
        "PYSPARK_PYTHON": sys.executable,
        "TMPDIR": str(tmp),
        "JAVA_TOOL_OPTIONS": f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}",
    })
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def traced_run(wl, seconds: float):
    """Traced Modularis queries for ``seconds``; per-layer values are the
    median over the queries that passed the gate."""
    from common import DeterminismError

    per_query, groups = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        attempted += 1
        try:
            group, layers, ok = wl.traced()
        except Exception:  # one failed query must not end the run
            traceback.print_exc()
            failed += 1
            per_query.append(None)
            groups.append(None)
            continue
        failed += not ok
        per_query.append(layers if ok else None)
        groups.append(group)
    wl.finish_trace(per_query)

    good = [(g, q) for g, q in zip(groups, per_query) if q is not None]
    if not good:
        raise RuntimeError("no traced query passed the gate")
    values = {}
    for key in {k for _, q in good for k in q}:
        if key in DETERMINISTIC or (key.startswith("op.") and key.endswith(".calls")):
            seen = {}
            for g, q in good:
                if seen.setdefault(g, q.get(key)) != q.get(key):
                    raise DeterminismError(f"{key} of {g} changed: {seen[g]} then {q.get(key)}")
        vals = [q.get(key, 0) for _, q in good]
        # counts stay whole numbers
        counts = all(isinstance(v, int) for v in vals)
        values[key] = statistics.median_low(vals) if counts else statistics.median(vals)
    return values, attempted, failed, {"per_query": [q for _, q in good]}


def untraced_run(kinds, seconds: float):
    """The closed loop. The gated query metrics compare the machine CPU
    seconds of the two kinds taken in the same minutes; absolute wall and
    CPU times, and the wall-time ratios, are in the detail (README.md says
    why)."""
    from common import closed_loop, median_of, peak_rss_mb, summary

    mod, base = kinds
    closed_loop(mod, base, seconds)
    if not (mod.cpu and base.cpu):
        raise RuntimeError("no successful query to take a CPU cost of")
    # machine CPU clocks tick every 10 ms: costs are totals over the run
    # divided by the query count, not medians of quantised samples
    query_cpu = sum(mod.cpu) / len(mod.cpu)
    baseline_cpu = sum(base.cpu) / len(base.cpu)
    if baseline_cpu <= 0:
        raise RuntimeError("the baseline queries used no measurable CPU time")
    values = {
        "query_cpu_vs_baseline": query_cpu / baseline_cpu,
        "modularity_cost": sum(mod.cpu_excl_lowering) / len(mod.cpu) / baseline_cpu,
        "peak_rss_mb": peak_rss_mb(),
        "query_s": median_of(mod.seconds),
        "baseline_query_s": median_of(base.seconds),
        "rows_per_s": mod.rows * len(mod.seconds) / sum(mod.seconds),
        "query_cpu_s": query_cpu,
        "baseline_cpu_s": baseline_cpu,
        "query_vs_baseline_wall": median_of(mod.seconds) / median_of(base.seconds),
        "modularity_cost_wall": median_of(mod.seconds_excl_lowering) / median_of(base.seconds),
    }
    detail = {
        "samples_s": {
            "modular": summary(mod.seconds),
            "modular_excl_lowering": summary(mod.seconds_excl_lowering),
            "baseline": summary(base.seconds),
        },
        "samples_cpu_s": {
            "modular": summary(mod.cpu),
            "modular_excl_lowering": summary(mod.cpu_excl_lowering),
            "baseline": summary(base.cpu),
        },
    }
    return values, mod.attempted + base.attempted, mod.failed + base.failed, detail


def since_start() -> dict:
    now = stamp()
    return {"wall_s": now[0] - START[0], "cpu_s": now[1] - START[1]}


def run(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    pin_environment(work)
    from common import cpu_times, environment, steal_share

    cpu_start = cpu_times()
    #: wall and machine CPU seconds from process start to the end of each
    #: set-up step
    setup_parts = {}
    spark = sparkbench = None
    try:
        if args.workload in SPARK_WORKLOADS:
            import sparkbench

            event_log = work / "eventlog" if args.trace else None
            spark = sparkbench.start_session(work, event_log)
            setup_parts["session"] = since_start()
            wl = sparkbench.make(args.workload, spark, event_log, args.seed, args.tiny)
        else:
            import simbench

            wl = simbench.make(args.workload, args.seed, args.tiny)
        setup_parts["inputs"] = since_start()
        spark_conf = wl.spark_conf()
        # warm-up: every query kind of the workload, gated; a failure here
        # ends the run
        kinds = wl.kinds()
        for kind in kinds[:1] if args.trace else kinds:
            for _ in range(wl.warmups):
                if not kind.once():
                    raise RuntimeError(f"warm-up {kind.name} query failed")
        setup_parts["warm_up"] = since_start()
        # set-up is reported in machine CPU seconds: on a shared host its wall
        # time moves with the neighbours' load far more (see README.md)
        setup_s = setup_parts["warm_up"]["cpu_s"]
        if args.trace:
            values, attempted, failed, detail = traced_run(wl, args.seconds)
            metrics = spec["per_layer"]
        else:
            values, attempted, failed, detail = untraced_run(wl.kinds(), args.seconds)
            values["setup_s"] = setup_s
            metrics = spec["end_to_end"]
    finally:
        try:
            if spark is not None:
                sparkbench.stop_session(spark)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:  # another run is using it
                pass

    listed = {m["name"] for m in metrics}
    if not args.trace:
        missing = listed - set(values)
        if missing:
            raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "setup_s": setup_s, "setup_parts": setup_parts,
        "unlisted": {k: v for k, v in values.items() if k not in listed},
        "environment": environment(spark_conf),
        "cpu_steal_share": steal_share(cpu_start, cpu_times()),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a layer this workload does not run reads 0
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in metrics},
    }))
    return 0


def all_workloads(tiny: bool, seconds: float) -> int:
    """Every workload, untraced and traced, each in its own process: print
    every metric by name and unit, and check that each run passed its gate
    and reported exactly the metrics of ``BENCHMARK.json``."""
    spec = load_spec()
    listed = [w["name"] for w in spec["workloads"]]
    workloads = listed + [w for w in SPARK_WORKLOADS + SIM_WORKLOADS if w not in listed]
    problems, nonzero = [], set()
    for workload in workloads:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + ["--tiny"] * tiny, cwd=ROOT, capture_output=True, text=True)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                print(f"    {name} = {m['value']} {m['unit']}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: gate failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in metrics}:
                problems.append(f"{where}: metrics or units differ from BENCHMARK.json")
            nonzero |= {name for name, m in result["metrics"].items() if m["value"]}
    for m in spec["per_layer"]:
        if m["name"] not in nonzero:
            print(f"note: per-layer metric {m['name']} read 0 on every workload")
    for p in problems:
        print(f"PROBLEM {p}")
    print("all: ok" if not problems else f"all: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=SPARK_WORKLOADS + SIM_WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (smoke test)")
    ap.add_argument("--all", action="store_true", help="run and check every workload in both modes")
    args = ap.parse_args()
    if args.all:
        return all_workloads(args.tiny, args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
