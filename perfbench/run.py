"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 7 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation: it
runs repetitions, in turn over the run's scenarios, for about
``--seconds``.  ``--trace 1`` sets up with the layer boundaries
instrumented, runs each scenario once untraced and once traced, and
reports the per-layer metrics plus the tracing overhead (traced minus
untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  A full record (environment, checks,
every repetition, spans) is written to ``.perfbench/`` under the root.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODELS = ("RF", "K-Means", "CNN")
STAGES = ("build", "capture-train", "train-models", "capture-detect", "detect")
#: Times the workload is constructed; setup_s counts the median.
SETUPS = 3

#: Per-layer metric -> unit.  ``*_s`` names are span self times, except
#: ``pipeline.stage_s.*``: a stage is the outermost boundary of the paper
#: run, so its inclusive time is reported.
PER_LAYER = {
    "testbed.build_s": "s",
    "botnet.infect_s": "s",
    "botnet.bots": "count",
    "sim.capture_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.sim_s_per_host_s": "s/s",
    "capture.records": "count",
    "capture.malicious": "count",
    "capture.to_batch_s": "s",
    "capture.to_csv_s": "s",
    "features.transform_s": "s",
    "features.transform_calls": "count",
    "features.transform_window_s": "s",
    "features.from_records_s": "s",
    "features.aggregate_s": "s",
    **{f"ml.fit_s.{m}": "s" for m in MODELS},
    **{f"ml.predict_s.{m}": "s" for m in MODELS},
    "ml.rf_nodes": "count",
    **{f"ml.model_size_kb.{m}": "KB" for m in MODELS},
    **{f"ids.replay_s.{m}": "s" for m in MODELS},
    "ids.windows": "count",
    **{f"ids.cpu_pct.{m}": "%" for m in MODELS},
    "ids.classifier_errors": "count",
    "ids.records_dropped_late": "count",
    "ids.window_p50_ms": "ms",
    "ids.window_p95_ms": "ms",
    "ids.window_samples": "count",
    "ids.detect_acc_pct": "%",
    **{f"pipeline.stage_s.{s}": "s" for s in STAGES},
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.calls": "count",
    "trace.overhead_est_s": "s",
    "trace.coverage_pct": "%",
}


def single_thread_blas() -> int:
    """Run BLAS on the calling thread only; return the thread count (1).

    A BLAS worker thread on a shared host waits on whichever CPU a
    neighbour holds, so its timings measure the host.  Must run before
    numpy is imported: the BLAS library reads these variables once, when
    it loads.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git ("unknown" if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(blas_threads: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def set_up(cls, seed: int, work_dir: Path):
    """Construct the workload :data:`SETUPS` times; return the last and the median time."""
    times = []
    for _ in range(SETUPS):
        gc.collect()
        started = time.perf_counter()
        workload = cls(seed, work_dir)
        times.append(time.perf_counter() - started)
    return workload, statistics.median(times)


def run_rep(workload, cpus: list[int], turn: int):
    """Repetition ``turn``: scenario ``turn`` mod the scenarios, garbage collected first.

    Repetitions take turns on the CPUs this process may use, so that a
    scenario's repetitions run on each CPU in turn: on a shared host one
    CPU can run slow for a minute while another runs at full speed.
    """
    os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
    gc.collect()
    try:
        return workload.rep(turn % len(workload.scenarios))
    finally:
        os.sched_setaffinity(0, cpus)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def wall_s(reps: list) -> float:
    """Seconds of one repetition: each scenario's median, averaged over the scenarios."""
    by_scenario: dict[int, list[float]] = {}
    for rep in reps:
        by_scenario.setdefault(rep.scenario, []).append(rep.wall_s)
    return statistics.fmean(statistics.median(times) for times in by_scenario.values())


def end_to_end(reps: list, setup_s: float) -> dict:
    return {
        "wall_s": metric(wall_s(reps), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def window_ms(samples: list[float], q: int) -> float:
    """The q-th percentile of verdict intervals, in ms (0 without samples)."""
    if len(samples) < 2:
        return 0.0
    return 1000.0 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def mean_accuracy(rep) -> float:
    """Mean real-time Table I accuracy (%) over the models (0 without detection)."""
    table1 = rep.outputs.get("table1")
    return statistics.fmean(table1.values()) if table1 else 0.0


def report_metrics(reps: list) -> dict:
    """Metrics printed above the result line only.

    ``pkts_per_s`` (the median of records captured per second) follows
    ``wall_s`` and each seed's record count, so it adds no gate of its
    own; ``min_wall_s`` and ``max_wall_s`` show how far the host moved
    the repetitions.
    """
    extra = {
        "pkts_per_s": metric(statistics.median(r.work / r.wall_s for r in reps), "packets/s"),
        "min_wall_s": metric(min(r.wall_s for r in reps), "s"),
        "max_wall_s": metric(max(r.wall_s for r in reps), "s"),
    }
    if "table1" in reps[0].outputs:
        extra["detect_acc_pct"] = metric(mean_accuracy(reps[0]), "%")
    return extra


def per_layer(tracer, shares: dict, timed_calls: int, untraced: list, traced: list) -> dict:
    """Per-layer metrics of a traced run (set-up spans included)."""
    from tracer import wrapper_cost_s

    spans, counts = tracer.self_s, tracer.counts
    capture_s = spans.get("sim.capture_s", 0.0)
    window = tracer.samples.get("ids.window_s", [])
    untraced_s = sum(r.wall_s for r in untraced)
    traced_s = sum(r.wall_s for r in traced)
    values: dict[str, float] = {name: spans.get(name, 0.0) for name in PER_LAYER}
    values.update({name: float(counts[name]) for name in PER_LAYER if name in counts})
    values.update(
        {
            "features.transform_calls": float(tracer.calls["features.transform_s"]),
            "sim.events_per_s": counts["sim.events"] / capture_s if capture_s else 0.0,
            "sim.sim_s_per_host_s": counts["sim.simulated_s"] / capture_s if capture_s else 0.0,
            "ids.window_p50_ms": window_ms(window, 50),
            "ids.window_p95_ms": window_ms(window, 95),
            "ids.window_samples": float(len(window)),
            "ids.detect_acc_pct": mean_accuracy(traced[0]),
            "trace.untraced_wall_s": untraced_s,
            "trace.traced_wall_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.calls": float(timed_calls),
            "trace.overhead_est_s": timed_calls * wrapper_cost_s(),
            "trace.coverage_pct": sum(shares.values()),
        }
    )
    for stage in STAGES:
        values[f"pipeline.stage_s.{stage}"] = tracer.total_s.get(f"pipeline.stage_s.{stage}", 0.0)
    for name, size in traced[0].outputs.get("model_size_kb", {}).items():
        values[f"ml.model_size_kb.{name}"] = size
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


def check_rep(workload, rep, label: str, first: dict, checks: dict) -> None:
    """Add the repetition's checks, and whether it repeats its scenario's first results."""
    name = f"{label} (scenario {rep.scenario})"
    checks.update({f"{name}: {k}": v for k, v in workload.check(rep).items()})
    if rep.scenario in first:
        checks[f"{name} repeats its first results"] = (
            workload.identity(rep) == workload.identity(first[rep.scenario])
        )
    else:
        first[rep.scenario] = rep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = single_thread_blas()
    sys.path.insert(0, str(ROOT / "src"))

    from tracer import Tracer, instrumented
    from workloads import WORKLOADS, scenario_seeds

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    env = environment(blas_threads)
    cls = WORKLOADS[args.workload]
    cpus = sorted(os.sched_getaffinity(0))
    checks: dict[str, bool] = {}
    first: dict[int, object] = {}
    if args.trace:
        tracer = Tracer()
        with instrumented(tracer):
            workload = cls(args.seed, work_dir)
        setup_self = dict(tracer.self_s)
        setup_calls = tracer.calls.total()
        setup_s = time.perf_counter() - PROCESS_START
        turns = range(len(workload.scenarios))
        untraced = [run_rep(workload, cpus, turn) for turn in turns]
        for rep in untraced:
            check_rep(workload, rep, "untraced", first, checks)
        with instrumented(tracer):
            traced = [run_rep(workload, cpus, turn) for turn in turns]
        for rep in traced:
            check_rep(workload, rep, "traced", first, checks)
        reps = untraced + traced
        # Each span's share of the traced repetitions' wall time: its self
        # time in the timed part, i.e. without the set-up's spans.
        traced_s = sum(r.wall_s for r in traced)
        shares = {
            name: 100.0 * (spent - setup_self.get(name, 0.0)) / traced_s
            for name, spent in tracer.self_s.items()
        }
        timed_calls = tracer.calls.total() - setup_calls
        metrics = per_layer(tracer, shares, timed_calls, untraced, traced)
    else:
        tracer = None
        shares = {}
        # Imports run once per process; the workload's own set-up is
        # repeated and its median counted, so one slow pass does not
        # decide setup_s.
        imports_s = time.perf_counter() - PROCESS_START
        workload, construct_s = set_up(cls, args.seed, work_dir)
        setup_s = imports_s + construct_s
        reps = []
        spent: list[float] = []
        started = time.perf_counter()
        # Whole repetitions only, each scenario at least once: start
        # another while it is expected to end within --seconds, judged by
        # the median repetition (with its checks) so far.
        while len(reps) < len(workload.scenarios) or (
            time.perf_counter() - started + statistics.median(spent) <= args.seconds
        ):
            rep_started = time.perf_counter()
            rep = run_rep(workload, cpus, len(reps))
            check_rep(workload, rep, f"rep {len(reps)}", first, checks)
            spent.append(time.perf_counter() - rep_started)
            reps.append(rep)
        metrics = end_to_end(reps, setup_s)

    failed = sum(not ok for ok in checks.values())
    extra = report_metrics(reps)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "setup_s": setup_s,
        "scenario_seeds": scenario_seeds(args.seed),
        "reps": [{"scenario": r.scenario, "wall_s": r.wall_s, "work": r.work} for r in reps],
        "checks": checks,
        "metrics": metrics,
        "extra": extra,
        "share_of_wall_pct": shares,
        "trace_spans": tracer.to_json() if tracer is not None else None,
    }
    out = work_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, m in {**metrics, **extra}.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    for name, share in sorted(shares.items(), key=lambda item: -item[1]):
        if share >= 0.01:
            print(f"share of traced wall time {name:32s} {share:6.2f} %")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(checks),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
