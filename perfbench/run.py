"""Pipeline benchmark for dreamrand.

    python3 perfbench/run.py --workload dodge-step --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. One process runs the pipeline of
``pipeline.py`` in a closed loop, rep after rep with the same seeded inputs,
until ``--seconds`` have passed (at least MIN_REPS reps), and checks every
rep's outputs. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: set-up time, the throughput of
each stage (median over reps) and peak RSS. ``--trace 1`` alternates plain
and traced reps and reports the per-layer metrics from the traced ones, plus
the tracing overhead against the plain ones; it also writes the spans of its
last traced rep to ``.perfbench/spans-<workload>.jsonl``.

The exit code is 0 only when every check passed and no attempt failed.
Self-tests, on tiny versions of the workloads: ``python3 -m pytest -q perfbench``.
``baseline.json`` holds the first baseline, its seeds and the held-out seeds.
"""
import bootstrap  # noqa: F401  (pins BLAS and selects the checkout's src/ before numpy loads)

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import pipeline

MIN_REPS = 3
SETUP_PROBES = 7
OUT_DIR = bootstrap.ROOT / ".perfbench"

# End-to-end throughput metric -> the stage whose work and seconds it divides.
THROUGHPUTS = {
    "collect_env_steps_per_s": "collect",
    "train_transitions_per_s": "train",
    "eval_loss_transitions_per_s": "eval_loss",
    "dream_lane_steps_per_s": "cma",
    "real_env_steps_per_s": "real_eval",
}
END_TO_END = {"setup_s": "s", **{name: "1/s" for name in THROUGHPUTS}, "peak_rss_mb": "MB"}

# Spans reported as call count and microseconds per call.
PER_CALL_SPANS = (
    "lstm.sample_mask_set.dream",
    "lstm.sample_mask_set.training",
    "world_model.sample_transition_raw",
    "world_model.heads_raw.dream",
    "numerics.rng_stream.controller",
    "controller.CmaEs.ask",
    "controller.CmaEs.tell",
    "training.AdamOptimizer.step",
    "envs.step.collect",
    "envs.step.real",
    "lstm.lstm_step",
)
# Spans reported as microseconds per unit of work (window-steps).
PER_WORK_SPANS = (
    "lstm.lstm_forward",
    "lstm.lstm_backward",
    "world_model.transition_loss_batch",
)
PER_LAYER = {
    "dream.rollout_batch.calls": "count",
    "dream.rollout_batch.us_per_lane_step": "us",
    "dream.rollout_batch.self_us_per_lane_step": "us",
    "dream.lane_steps": "count",
    "dream.lane_occupancy": "ratio",
    "dream.episode_len_mean": "steps",
    "dream.truncated_frac": "ratio",
    "dream.masks_per_lane_step": "count",
    **{f"{span}.{stat}": unit for span in PER_CALL_SPANS for stat, unit in (("calls", "count"), ("us_per_call", "us"))},
    **{f"{span}.us_per_window_step": "us" for span in PER_WORK_SPANS},
    "training.terminal_coverage": "ratio",
    "storage.roundtrip_s": "s",
    "storage.bytes": "bytes",
    **{f"stage.{stage}_s": "s" for stage in (*pipeline.STAGES, "pipeline")},
    "trace.overhead_frac": "ratio",
}


def blas_threads():
    """(library path, thread count) of the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return os.path.basename(path), fn()
    return (os.path.basename(libs[0]) if libs else None), None


def reference_loop_s(iterations=3_000_000):
    """Wall time of a fixed pure-Python loop: host speed, next to the metrics."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i
    return time.perf_counter() - start


def machine_record():
    lib, threads = blas_threads()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": lib,
        "blas_threads": threads,
        "reference_loop_3M_s": reference_loop_s(),
    }


def setup_seconds(workload, seed):
    """Process start to ready for the first stage, for SETUP_PROBES fresh
    interpreters: each imports the package and prepares the workload."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        out = subprocess.run(
            [sys.executable, probe, workload, str(seed)], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(out.stdout.split()[-1]) - spawned)
    return times


def end_to_end_metrics(reps, setup_times):
    metrics = {"setup_s": statistics.median(setup_times)}
    for name, stage in THROUGHPUTS.items():
        metrics[name] = statistics.median(r.work[stage] / r.seconds[stage] for r in reps)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer_metrics(plain, traced, summaries):
    spans = {}
    for summary in summaries:
        for name, agg in summary.items():
            total = spans.setdefault(name, dict.fromkeys(agg, 0))
            for key, value in agg.items():
                total[key] += value
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}

    def per(value, count):
        return value / count if count else 0.0

    # Every rep of a seed does the same work, so counts are reported per rep.
    n_reps = len(traced)
    metrics = {}
    rollout = spans.get("dream.rollout_batch", empty)
    metrics["dream.rollout_batch.calls"] = rollout["calls"] // n_reps
    metrics["dream.rollout_batch.us_per_lane_step"] = per(rollout["total_s"] * 1e6, rollout["work"])
    metrics["dream.rollout_batch.self_us_per_lane_step"] = per(rollout["self_s"] * 1e6, rollout["work"])
    dream = [rep.probe.dream for rep in traced]
    lane_steps = sum(d.lane_steps for d in dream)
    lanes = sum(d.lanes for d in dream)
    metrics["dream.lane_steps"] = lane_steps // n_reps
    metrics["dream.lane_occupancy"] = per(lane_steps, sum(d.lane_slots for d in dream))
    metrics["dream.episode_len_mean"] = per(lane_steps, lanes)
    metrics["dream.truncated_frac"] = per(sum(d.truncated for d in dream), lanes)
    metrics["dream.masks_per_lane_step"] = per(sum(d.masks for d in dream), lane_steps)
    for name in PER_CALL_SPANS:
        agg = spans.get(name, empty)
        metrics[f"{name}.calls"] = agg["calls"] // n_reps
        metrics[f"{name}.us_per_call"] = per(agg["total_s"] * 1e6, agg["calls"])
    for name in PER_WORK_SPANS:
        agg = spans.get(name, empty)
        metrics[f"{name}.us_per_window_step"] = per(agg["total_s"] * 1e6, agg["work"])
    metrics["training.terminal_coverage"] = traced[0].terminal_coverage
    metrics["storage.roundtrip_s"] = statistics.median(r.seconds["io"] for r in plain)
    metrics["storage.bytes"] = traced[0].storage_bytes
    for stage in pipeline.STAGES:
        metrics[f"stage.{stage}_s"] = statistics.median(r.seconds[stage] for r in plain)
    plain_s = statistics.median(r.pipeline_s for r in plain)
    metrics["stage.pipeline_s"] = plain_s
    metrics["trace.overhead_frac"] = statistics.median(r.pipeline_s for r in traced) / plain_s - 1.0
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    trace = bool(args.trace)
    setup = pipeline.prepare(args.workload, args.seed)
    machine = machine_record()
    setup_times = [] if trace else setup_seconds(args.workload, args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    plain, traced, summaries = [], [], []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        start = time.perf_counter()
        while True:
            plain.append(pipeline.run_rep(setup, workdir))
            if trace:
                rep = pipeline.run_rep(setup, workdir, trace=True)
                summaries.append(rep.probe.summarize())
                if traced:
                    traced[-1].probe.spans.clear()  # only the last rep's spans are written out
                traced.append(rep)
            reps = plain + traced
            if not all(r.ok for r in reps):
                break
            if len(plain) >= MIN_REPS and time.perf_counter() - start >= args.seconds:
                break

    for rep in reps:
        if rep.error:
            print(rep.error, file=sys.stderr, end="")
        failed_checks = sorted(name for name, ok in rep.checks.items() if not ok)
        if failed_checks:
            print(f"perfbench: failed checks: {', '.join(failed_checks)}", file=sys.stderr)
    digests = sorted({r.digest for r in reps})
    stable = len(digests) == 1
    if not stable:
        print(f"perfbench: reps of one seed gave {len(digests)} different result digests", file=sys.stderr)
    correct = stable and all(r.ok for r in reps)

    metrics = {}
    if correct:
        if trace:
            metrics = per_layer_metrics(plain, traced, summaries)
            traced[-1].probe.write_spans(OUT_DIR / f"spans-{args.workload}.jsonl")
        else:
            metrics = end_to_end_metrics(plain, setup_times)
    units = PER_LAYER if trace else END_TO_END

    print(json.dumps({"machine": machine}))
    per_rep = {stage: [r.work[stage] / r.seconds[stage] for r in plain if stage in r.work] for stage in THROUGHPUTS.values()}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "reps": len(plain), "digest": digests,
        "work_per_rep": plain[0].work, "throughput_per_rep": per_rep, "setup_s_samples": setup_times,
    }))
    for name, value in metrics.items():
        print(f"{name:<52} {value:>16.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
