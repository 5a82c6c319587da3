"""Benchmark entry point: run one workload and print its metrics.

    python3 -m perfbench.run --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a monofix source checkout; the program is imported from
`src/`.  Each workload runs in fresh Python processes with a fixed number of
BLAS threads.  With --trace 0 the run sets up SETUP_SAMPLES times
(all but the last process stop after set-up) and reports the median
`setup_s` with the end-to-end metrics of the last process.  With --trace 1
one process runs half the time untraced and half traced, and reports the
per-layer metrics of the traced half.  The last line of standard output is
the JSON result; the line before it gives the environment, sample counts and
any failures.  Result files and traced spans are left in `.perfbench/`.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import metrics, ops

# BLAS threads per workload, capped at the CPU count.  fredholm-1601 is
# dense BLAS work on 1601 x 1601 matrices and uses two cores.  The others get
# one: on the 101-node grids of cli-mix a second OpenBLAS thread makes each
# solve several times slower, and audit-trials does no BLAS work.
BLAS_THREADS = {"fredholm-1601": 2, "cli-mix": 1, "audit-trials": 1}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc raises its mmap threshold after a large block is freed, so later
# 20 MB matrices may land on the heap and stay resident.  Fixing the
# threshold returns every large array to the system when it is freed, so
# `peak_rss_mb` follows the arrays alive at once, not allocator history.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
# Set-ups per run, whose median is `setup_s`.  A cli-mix or audit-trials
# set-up takes about 0.3 s, mostly interpreter start and imports, and single
# samples range over a factor of two, so those runs take more of them.
SETUP_SAMPLES = {"fredholm-1601": 5, "cli-mix": 15, "audit-trials": 15}
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env(root: Path, workload: str) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    threads = min(BLAS_THREADS[workload], os.cpu_count() or 1)
    env.update({name: str(threads) for name in BLAS_ENV})
    env.update(MALLOC_ENV)
    return env


def run_child(root: Path, env: dict, extra: list[str], deadline: float) -> dict:
    """Run one workload process; returns the JSON object of its last line."""
    command = [sys.executable, "-m", "perfbench.workload", *extra, "--launched-at", repr(time.monotonic())]
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process did not finish within {TIME_LIMIT_S:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.run", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "monofix" / "__init__.py").is_file():
        print("perfbench: src/monofix not found; run from the root of a monofix checkout", file=sys.stderr)
        return 2
    results = root / ".perfbench"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = results / f"scratch-{name}-{os.getpid()}"
    results.mkdir(exist_ok=True)
    env = child_env(root, args.workload)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        setups = []
        for i in range(SETUP_SAMPLES[args.workload] - 1 if not args.trace else 0):
            sample = run_child(root, env, common + ["--scratch", str(scratch / f"setup{i}"), "--setup-only"], deadline)
            setups.append(sample["setup_s"])
        extra = ["--scratch", str(scratch / "run"), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(results / f"{name}-spans.json")]
        child = run_child(root, env, common + extra, deadline)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(child["setup_s"])

    if args.trace:
        reported = child.pop("per_layer")
    else:
        latency = child["latency"]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": child["ops_per_s"],
            "latency_p50_s": latency["p50_s"],
            "latency_p90_s": latency["p90_s"],
            "peak_rss_mb": child["peak_rss_mb"],
        }
        reported = {k: {"value": values[k], "unit": unit} for k, unit in metrics.END_TO_END.items()}
    info = {"workload": args.workload, "trace": args.trace, "setup_samples_s": setups, **child}
    (results / f"{name}.json").write_text(json.dumps({**info, "metrics": reported}, indent=1) + "\n")
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": child["failed"] == 0,
                "attempted": child["attempted"],
                "failed": child["failed"],
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
