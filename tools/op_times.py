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

`Server` runs the same child on request instead: after the checked pass, it
times one op at a time as its owner asks, so that two checkouts' children can
take turns op by op (`tools/bench_pairs.py`).
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


class Session:
    """One workload's fixed op sequence, ready to run in this process."""

    def __init__(self, workload: str, scratch: Path) -> None:
        from perfbench import ops, tracing, workload as harness

        self.ops, self.harness, self.tracing = ops, harness, tracing
        self.reference = json.loads(harness.REFERENCE.read_text())
        configs = ops.write_inputs(workload, 0, scratch / "inputs")
        self.sequence = ops.every_op(workload, configs)
        self.outs = [scratch / str(i) for i in range(len(self.sequence))]

    def run(self, i: int, check: bool = False) -> float:
        """Op i once; its wall time.  With `check`, its outcome must be the
        reference's."""
        op, out = self.sequence[i], self.outs[i]
        if out.is_dir():
            for path in out.iterdir():
                os.truncate(path, 0)
        t0 = time.perf_counter()
        result = self.ops.execute(op, out)
        elapsed = time.perf_counter() - t0
        if check:
            failure = self.harness.check(self.harness.Record(op, 0.0, result, None, out), self.reference)
            if failure is not None:
                raise SystemExit(f"op_times: {failure}")
        return elapsed

    def run_pass(self, check: bool = False) -> list[float]:
        return [self.run(i, check) for i in range(len(self.sequence))]

    def traced_counts(self) -> list[dict]:
        """Each op's traced calls per layer function and work counts, over
        one pass."""
        tracer = self.tracing.Tracer()
        tracer.install()
        try:
            for i in range(len(self.sequence)):
                tracer.request = i
                self.run(i)
        finally:
            tracer.uninstall()
        grouped = self.tracing.per_request(tracer.spans, tracer.counts)
        return [dict(sorted(grouped[i].items())) for i in range(len(self.sequence))]


def time_ops(workload: str, passes: int, scratch: Path) -> dict:
    """The per-key times and counts of one workload; runs in the child."""
    session = Session(workload, scratch)
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        session.run_pass(check=True)
        timed = list(zip(*(session.run_pass() for _ in range(passes))))
        counts = session.traced_counts()
    return {
        op.key: summary(timed[i], counts[i]) for i, op in enumerate(session.sequence)
    }


def summary(times: list[float], counts: dict) -> dict:
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median_s": statistics.median(times), "q1_s": q1, "q3_s": q3, "counts": counts}


def serve(workload: str, scratch: Path) -> None:
    """Answer requests from stdin, one JSON line each on stdout; runs in the
    child.  First, after the checked pass, the list of keys; then `run I`
    gives op I's wall time, and `trace` each op's counts."""
    reply = sys.stdout
    session = Session(workload, scratch)
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        session.run_pass(check=True)
        print(json.dumps([op.key for op in session.sequence]), file=reply, flush=True)
        for line in sys.stdin:
            request = line.split()
            answer = session.run(int(request[1])) if request[0] == "run" else session.traced_counts()
            print(json.dumps(answer), file=reply, flush=True)


def child_command(root: Path, workload: str) -> tuple[list[str], dict]:
    """The argv and environment of a child for the checkout at `root`, less
    its mode arguments."""
    env = json.loads(subprocess.run(
        [sys.executable, "-c", CHILD_ENV, str(root), workload],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout)
    return [sys.executable, __file__, "--workload", workload, "--root", str(root)], env


def op_times(root: Path, workload: str, passes: int = PASSES) -> dict:
    """Run the child for the checkout at `root`; returns its per-key results."""
    argv, env = child_command(root, workload)
    with tempfile.TemporaryDirectory(prefix="op-times-") as scratch:
        argv += ["--passes", str(passes), "--child", scratch]
        out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"op_times: {root}: {workload}: {out.stderr.strip()[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class Server:
    """A child for the checkout at `root` that times one op per request;
    `keys` lists the ops, in order.  Use it as a context manager."""

    def __init__(self, root: Path, workload: str) -> None:
        argv, env = child_command(root, workload)
        self._scratch = tempfile.TemporaryDirectory(prefix="op-times-")
        self._proc = subprocess.Popen(
            argv + ["--serve", self._scratch.name], cwd=root, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.root = root
        self.keys = self._read()

    def _read(self):
        line = self._proc.stdout.readline()
        if not line:
            raise SystemExit(f"op_times: {self.root}: {self._proc.stderr.read().strip()[-2000:]}")
        return json.loads(line)

    def _ask(self, request: str):
        self._proc.stdin.write(request + "\n")
        self._proc.stdin.flush()
        return self._read()

    def run(self, i: int) -> float:
        return self._ask(f"run {i}")

    def traced_counts(self) -> list[dict]:
        return self._ask("trace")

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._scratch.cleanup()


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
    parser.add_argument("--serve", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    root = args.root.resolve()
    if args.child is not None or args.serve is not None:
        sys.path.insert(0, str(root))
        if args.serve is not None:
            serve(args.workload, args.serve)
        else:
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
