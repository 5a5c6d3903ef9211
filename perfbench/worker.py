"""Run one workload in this process and print its result as one JSON line.

run.py starts this script in a fresh process per workload, with lglab's
``src`` on PYTHONPATH and the BLAS/OpenMP thread counts pinned to 1.
``--setup-only`` measures set-up (import, weights, warm-up) and stops.
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from statistics import median

from layers import combine, level_percentiles, pass_metrics, patches
from stats import (PROBE_REF_S, TooFewSamples, machine_record, speed_probe,
                   tail_percentile)
from tracer import Patched, Tracer


def _run_job(job):
    """Time one job (wall and CPU), keeping the CLI's output out of ours."""
    sink = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            value = job.run()
        error = None
    except Exception as exc:  # a job that raises counts as failed
        value, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, time.process_time() - c0, value, error


def run_passes(wl, seconds: float, trace: bool):
    """Passes while the next one is expected to end within `seconds`.

    At least one pass runs; with trace, every other pass runs wrapped and
    at least one of each kind runs.
    """
    passes, jobs = [], []
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        tracer = Tracer() if traced else None
        done = []
        with Patched(tracer, patches()) if traced else nullcontext():
            work = wl.jobs(k)  # inside, so jobs bind the wrapped functions
            c0, w0 = time.process_time(), time.perf_counter()
            probes = [speed_probe()]
            for job in work:
                if tracer is not None:
                    tracer.job = f"{k}:{job.label}"
                done.append((job, *_run_job(job)))
                probes.append(speed_probe())
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
        for slot, (job, dt, dcpu, value, error) in enumerate(done):
            scale = 2.0 * PROBE_REF_S / (probes[slot] + probes[slot + 1])
            if error is None:
                try:
                    error = job.check(value)
                except Exception as exc:  # a check that raises fails its job
                    error = f"check raised {type(exc).__name__}: {exc}"
            jobs.append({"pass": k, "slot": slot, "label": job.label,
                         "wall": dt, "cpu": dcpu, "scale": scale,
                         "reason": error})
        passes.append({"wall": wall, "cpu": cpu, "traced": traced,
                       "spans": tracer.spans if tracer else None})
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + wall > seconds and (not trace or k >= 2):
            return passes, jobs


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_time(jobs, passes, key: str, scaled: bool) -> float:
    """Mean time of one pass: the jobs' summed times over the pass count.

    With scaled, each job's time is first multiplied by its speed-probe
    scale (see stats.speed_probe), from the probes on either side of it.
    On a shared 2-core VM the mean of the scaled passes spread less
    between runs than their median.
    """
    total = sum(j[key] * (j["scale"] if scaled else 1.0) for j in jobs)
    return total / len(passes)


def end_to_end(passes, jobs) -> tuple[dict, dict]:
    walls = [j["wall"] for j in jobs]
    failed = sum(1 for j in jobs if j["reason"] is not None)
    metrics = {
        "pass_s": pass_time(jobs, passes, "wall", scaled=True),
        "pass_cpu_s": pass_time(jobs, passes, "cpu", scaled=True),
        "ok_ratio": (len(jobs) - failed) / len(jobs),
    }
    extra = {"query_n": len(walls), "passes_n": len(passes),
             "query_p50_s": median(walls),
             "pass_raw_s": pass_time(jobs, passes, "wall", scaled=False),
             "pass_median_s": median([p["wall"] for p in passes])}
    try:
        extra["query_p90_s"] = tail_percentile(walls, 90.0)
    except TooFewSamples as exc:
        extra["query_p90_refused"] = str(exc)
    return metrics, extra


def per_layer(passes, wl) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"]]
    metrics = combine([pass_metrics(p["spans"]) for p in traced])
    pooled = [s for p in traced for s in p["spans"]]
    extra = {"refused": []}
    for name, value in level_percentiles(pooled).items():
        if value is None:
            extra["refused"].append(name)
        metrics[name] = 0.0 if value is None else value
    metrics["stacker.bv_energy.s"] = wl.bv_energy_s
    metrics["trace.overhead_ratio"] = (
        median([p["wall"] for p in traced])
        / median([p["wall"] for p in passes if not p["traced"]]))
    extra["traced_passes_n"] = len(traced)
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", default=".")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import workloads  # imports lglab, numpy and scipy: part of set-up

    wl = workloads.make(args.workload, args.seed, args.outdir)
    wl.warm_up()
    setup_raw_s = time.perf_counter() - t0
    # the probe needs numpy, so it runs once set-up has imported it
    setup_s = setup_raw_s * PROBE_REF_S / speed_probe()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    passes, jobs = run_passes(wl, args.seconds, bool(args.trace))
    peak = _peak_rss_mb()
    for label, reason in wl.final_checks().items():
        for j in jobs:
            if j["label"] == label and j["reason"] is None:
                j["reason"] = reason
    if args.trace:
        metrics, extra = per_layer(passes, wl)
    else:
        metrics, extra = end_to_end(passes, jobs)
        metrics["peak_rss_mb"] = peak

    print(json.dumps({
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "metrics": metrics,
        "extra": extra,
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if j["reason"] is not None),
        "passes": [{k: p[k] for k in ("wall", "cpu", "traced")}
                   for p in passes],
        "jobs": jobs,
        "machine": machine_record(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
