"""Time every reference key of one workload in-process, over a fixed op sequence.

    python3 tools/op_times.py --workload cli-mix --passes 20 [--root DIR] [--out FILE]

One pass runs each op of `perfbench.ops.every_op(workload)` once, in that
order.  The ops run in one child process started the way the benchmark starts
its workload processes (`perfbench.run.child_env`, taken from DIR's own
`perfbench`: the workload's BLAS thread count, the malloc setting and
`DIR/src` on the path), from the checkout at --root, the current directory by
default.  Like `perfbench.workload`, each op writes to its own directory,
whose files are emptied, not deleted, before the op runs, and the CLI's
status lines go to /dev/null.

A first pass is untimed; it warms the process and checks every outcome
against `perfbench/reference.json`.  Then --passes timed passes give each
key's median and quartiles of wall time, raw and uncalibrated.  A last pass
runs under `perfbench.tracing.Tracer` and gives each key's traced calls per
layer function and work counts.  Because the op sequence is fixed, two
checkouts' counts compare op by op, where the traced means of a time-bounded
run depend on how many ops of each kind the run fitted.

The JSON written to --out, or printed, maps each key to
{"median_s", "q1_s", "q3_s", "counts"} under "ops".  Under "kinds" it maps
each op kind, a key's first two words (`fw-weak omega_counterexample{128}`),
to the mean of its keys' medians; "rotation_s" is their sum, the time of one
op of every kind.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

PASSES = 20  # timed passes, unless --passes says otherwise
# prints `perfbench.run.child_env(root, workload)` as computed by root's own perfbench
CHILD_ENV = (
    "import json, sys; from pathlib import Path; from perfbench.run import child_env; "
    "print(json.dumps(child_env(Path(sys.argv[1]), sys.argv[2])))"
)


def time_ops(workload: str, passes: int, scratch: Path) -> dict:
    """The per-key times and counts of one workload; runs in the child."""
    from perfbench import ops, tracing, workload as harness

    reference = json.loads(harness.REFERENCE.read_text())
    configs = ops.write_inputs(workload, 0, scratch / "inputs")
    sequence = ops.every_op(workload, configs)
    outs = [scratch / str(i) for i in range(len(sequence))]
    tracer = tracing.Tracer()

    def run_pass(check: bool = False) -> list[float]:
        """One pass; each op's wall time."""
        times = []
        for i, (op, out) in enumerate(zip(sequence, outs)):
            if out.is_dir():
                for path in out.iterdir():
                    os.truncate(path, 0)
            tracer.request = i
            t0 = time.perf_counter()
            result = ops.execute(op, out)
            times.append(time.perf_counter() - t0)
            failure = harness.check(harness.Record(op, 0.0, result, None, out), reference) if check else None
            if failure is not None:
                raise SystemExit(f"op_times: {failure}")
        return times

    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        run_pass(check=True)
        timed = list(zip(*(run_pass() for _ in range(passes))))
        tracer.install()
        try:
            run_pass()
        finally:
            tracer.uninstall()
    grouped = tracing.per_request(tracer.spans, tracer.counts)
    result = {}
    for i, op in enumerate(sequence):
        q1, _, q3 = statistics.quantiles(timed[i], n=4) if passes > 1 else timed[i] * 3
        result[op.key] = {
            "median_s": statistics.median(timed[i]),
            "q1_s": q1,
            "q3_s": q3,
            "counts": dict(sorted(grouped[i].items())),
        }
    return result


def op_times(root: Path, workload: str, passes: int = PASSES) -> dict:
    """Run the child for the checkout at `root`; returns its per-key results."""
    env = json.loads(subprocess.run(
        [sys.executable, "-c", CHILD_ENV, str(root), workload],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout)
    with tempfile.TemporaryDirectory(prefix="op-times-") as scratch:
        argv = [sys.executable, __file__, "--workload", workload, "--passes", str(passes)]
        argv += ["--root", str(root), "--child", scratch]
        out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"op_times: {root}: {workload}: {out.stderr.strip()[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def kinds(ops: dict) -> dict:
    """Each op kind's mean median time, from `op_times`' per-key results."""
    medians: dict[str, list[float]] = {}
    for key, found in ops.items():
        medians.setdefault(" ".join(key.split()[:2]), []).append(found["median_s"])
    return {kind: statistics.fmean(values) for kind, values in medians.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--passes", type=int, default=PASSES)
    parser.add_argument("--root", type=Path, default=Path.cwd())
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--child", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    root = args.root.resolve()
    if args.child is not None:
        sys.path.insert(0, str(root))
        print(json.dumps(time_ops(args.workload, args.passes, args.child)))
        return 0
    found = op_times(root, args.workload, args.passes)
    table = kinds(found)
    text = json.dumps(
        {"workload": args.workload, "passes": args.passes, "ops": found, "kinds": table,
         "rotation_s": sum(table.values())},
        indent=1,
    )
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
