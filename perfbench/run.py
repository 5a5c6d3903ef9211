#!/usr/bin/env python3
"""lglab benchmark: run workloads, check their outputs, report metrics.

    python3 perfbench/run.py --workload figure --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload in turn.  Each workload runs in a
fresh single-threaded worker process (worker.py) with BLAS and OpenMP
pinned to one thread.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  Each metric is
printed by name with its unit and sample count; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Results and the machine record are written to
``.bench_results/`` beside BENCHMARK.json; CLI artifacts go to a
temporary directory under ``.bench_tmp/`` that is removed afterwards.
The exit code is 0 only if every output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figure", "fine_grid", "verify", "geodesic")
SETUP_PROBES = 2          # extra set-up samples, beside the worker's own
TIME_BUDGET_S = 170.0     # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "pass_s": "s", "pass_cpu_s": "s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class WorkerError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env.pop("LGL_OUT", None)  # it would override the temporary --outdir
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p)
    return env


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded the {TIME_BUDGET_S:g} s budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 scratch: Path, deadline: float) -> dict:
    env = _child_env()
    outdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        result = _worker(["--workload", name, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace),
                          "--outdir", str(outdir)], env, deadline)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    samples = [{k: result[k] for k in ("setup_s", "setup_raw_s")}]
    if not trace:
        # probes run after the worker, which alone pays for a cold .pyc cache
        samples += [_worker(["--workload", name, "--setup-only"], env,
                            deadline) for _ in range(SETUP_PROBES)]
        result["metrics"]["setup_s"] = statistics.median(
            s["setup_s"] for s in samples)
        result["extra"]["setup_raw_s"] = statistics.median(
            s["setup_raw_s"] for s in samples)
    result["setup_samples"] = samples
    return result


def report(name: str, seed: int, trace: int, result: dict) -> dict:
    units = METRICS if trace else END_TO_END
    extra = result["extra"]
    counts = {"setup_s": len(result["setup_samples"]), "peak_rss_mb": 1,
              "pass_s": extra.get("passes_n"),
              "pass_cpu_s": extra.get("passes_n"),
              "ok_ratio": result["attempted"]}
    for metric, unit in units.items():
        value = result["metrics"][metric]
        n = counts.get(metric, extra.get("traced_passes_n"))
        note = " (refused: too few samples)" \
            if metric in extra.get("refused", ()) else ""
        print(f"{name} {metric} = {value:.6g} {unit} (n={n}){note}")
    if not trace:
        print(f"{name} unscaled: setup_s = {extra['setup_raw_s']:.6g} s, "
              f"pass_s = {extra['pass_raw_s']:.6g} s, median pass wall = "
              f"{extra['pass_median_s']:.6g} s (n={extra['passes_n']})")
        print(f"{name} query_p50_s = {extra['query_p50_s']:.6g} s "
              f"(n={extra['query_n']})")
        if "query_p90_s" in extra:
            print(f"{name} query_p90_s = {extra['query_p90_s']:.6g} s "
                  f"(n={extra['query_n']})")
        else:
            print(f"{name} query_p90_s refused: {extra['query_p90_refused']}")
        print(f"{name} fail_ratio = "
              f"{result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']} jobs)")
    for job in result["jobs"]:
        if job["reason"] is not None:
            print(f"{name} FAILED pass {job['pass']} {job['label']}: "
                  f"{job['reason']}")
    machine = result["machine"]
    print(f"{name} machine: nproc={machine['nproc']} "
          f"cpu={machine['cpu_model']!r} python={machine['python']} "
          f"numpy={machine['numpy']} scipy={machine['scipy']} "
          f"calibration_s={machine['calibration_s']:.4f}")

    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed,
                                "trace": trace, **result}, indent=1) + "\n")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result["metrics"][m], "unit": u}
                    for m, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "lglab" / "__init__.py").is_file():
        print(f"error: no lglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    ok = True
    try:
        for name in names:
            deadline = time.monotonic() + TIME_BUDGET_S
            try:
                result = run_workload(name, args.seed, args.seconds,
                                      args.trace, scratch, deadline)
            except WorkerError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            line = report(name, args.seed, args.trace, result)
            ok = ok and line["correct"]
            print(json.dumps(line), flush=True)
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
