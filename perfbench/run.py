"""Benchmark launcher for bayeshield.

    python3 perfbench/run.py --workload moons-2k-l2 --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 28

With ``--trace 0`` it reports the end-to-end metrics of one workload;
with ``--trace 1`` the per-layer metrics of a separate traced run. Set-up
time is sampled in SETUP_SAMPLES fresh worker processes, the last of
which also runs the timed cycles. The last line of output is one JSON
object with the keys correct, attempted, failed and metrics. The
launcher itself needs only the standard library; it exits non-zero,
printing no result, when the package source or a worker fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150

UNITS = {
    "setup_s": "s",
    "estimate_s": "s",
    "perturb_s": "s",
    "peak_rss_mb": "MiB",
    "bayes_error_after": "ratio",
    "success_rate": "ratio",
}


class BenchError(RuntimeError):
    """A worker failed or the package source is missing."""


def tail_percentile(samples: list):
    """Highest of p90, p99, p99.9 with at least ten samples beyond it,
    as (percentile, nearest-rank value), or None with too few samples."""
    for p in (99.9, 99.0, 90.0):
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            return p, sorted(samples)[math.ceil(len(samples) * p / 100.0) - 1]
    return None


def spawn_worker(name: str, seed: int, seconds: float, trace: int, workdir: Path,
                 setup_only: bool) -> dict:
    """Run one worker process and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--spawned-at", repr(time.perf_counter())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker for {name} exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker for {name} exited {proc.returncode}:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Summary of one workload: correct, attempted, failed, metrics, extras."""
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        if trace:
            result = spawn_worker(name, seed, seconds, 1, workdir / "run", False)
            metrics, samples = result["layers"], {}
        else:
            setups = [spawn_worker(name, seed, seconds, 0, workdir / f"probe{i}", True)["setup_s"]
                      for i in range(SETUP_SAMPLES - 1)]
            result = spawn_worker(name, seed, seconds, 0, workdir / "run", False)
            setups.append(result["setup_s"])
            samples = result["samples"]
            success = (result["attempted"] - result["failed"]) / result["attempted"]
            values = {
                "setup_s": statistics.median(setups),
                "estimate_s": statistics.median(samples["estimate"]),
                "perturb_s": statistics.median(samples["perturb"]),
                "peak_rss_mb": result["peak_rss_mb"],
                "bayes_error_after": result["bayes_error_after"],
                "success_rate": success,
            }
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
            samples = {"setup_s": setups, "estimate_s": samples["estimate"],
                       "perturb_s": samples["perturb"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK.rmdir()
    return {
        "correct": result["failed"] == 0 and result["bayes_error_after"] is not None,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "samples": samples,
        "result": result,
    }


# ---------------------------------------------------------------- report

def cache_sizes() -> str:
    """L2 and L3 sizes as the kernel reports them, read only."""
    sizes = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes.append(f"L{level}={size}")
    return " ".join(sizes) or "unknown"


def git_commit() -> str:
    """HEAD of the checkout; git is kept from searching the directories
    above it, so a checkout that is not a repository reads "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_environment(summary: dict, seed: int, names: list) -> None:
    env = summary["result"]["env"]
    print(f"env python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']}")
    print(f"env blas_config={env['blas_config']}")
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "n/a"
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}"
                       for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    print(f"env cpu_count={os.cpu_count()} affinity={affinity} {threads}")
    arrays = " ".join(f"{n}:{WORKLOADS[n].dense_bytes}" for n in names)
    print(f"env cache {cache_sizes()} dense_nxn_bytes {arrays}")
    print(f"env commit={git_commit()} seed={seed}")


def print_table(name: str, summary: dict) -> None:
    print(f"workload {name}: attempted={summary['attempted']} failed={summary['failed']} "
          f"error_rate={summary['failed'] / summary['attempted']!r}")
    for message in summary["result"].get("failures", []):
        print(f"  FAILED {message}")
    for absent in summary["result"].get("absent", []):
        print(f"  absent {absent} (reported as 0)")
    for metric, entry in summary["metrics"].items():
        samples = summary["samples"].get(metric, [])
        extra = ""
        if samples:
            tail = tail_percentile(samples)
            extra = f"  samples={len(samples)} range={min(samples):.4g}..{max(samples):.4g}  " + (
                f"p{tail[0]:g}={tail[1]!r}" if tail else "tail=n/a (p90 needs >=100 samples)")
        print(f"  {metric:<46} {entry['value']!r:>24} {entry['unit']:<6}{extra}")
    calls = summary["metrics"].get("perturb.objective_and_gradient.s_per_call")
    if calls:
        print("  objective_and_gradient per call, ROADMAP re-anchor reference: "
              "2.0 s at n=4000 d=2; 3.3 s at n=2000 d=64 K=10; scaled by n^2 to "
              "this benchmark's sizes: 0.5 s at n=2000 d=2; 0.83 s at n=1000 d=64 K=10")
    digests = summary["result"].get("digests", {})
    for op, digest in digests.items():
        print(f"  sha256 {op} {digest}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bayeshield" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    try:
        for name in names:
            summaries[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_environment(summaries[names[0]], args.seed, names)
    for name, summary in summaries.items():
        print_table(name, summary)
    if len(names) == 1:
        metrics = summaries[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, s in summaries.items() for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
