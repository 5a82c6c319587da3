"""Record the reference outcome of every op the workloads can issue.

    python3 -m perfbench.record_reference

Run from the root of a monofix checkout at the commit whose outcomes are the
reference; writes perfbench/reference.json.  Each workload is recorded in its
own process with the BLAS thread count its benchmark runs use, because the
bytes of a dense solve depend on how BLAS splits its sums.  Each
solve-fredholm config is solved under two config seeds, and the recording
stops if the outcomes differ, because the reference key leaves that seed out.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from .ops import WORKLOADS, every_op, execute, outcome, write_inputs
from .run import child_env
from .workload import REFERENCE


def record(workload: str, scratch: Path) -> dict:
    reference: dict = {}
    runs = [write_inputs(workload, seed, scratch / str(seed)) for seed in (1, 2)]
    for index, op in enumerate(every_op(workload, runs[0])):
        found = []
        for seed, configs in enumerate(runs if op.key.startswith("solve-fredholm") else runs[:1]):
            op_now = every_op(workload, configs)[index]
            out = scratch / f"{index}-{seed}"
            with contextlib.redirect_stdout(io.StringIO()):
                found.append(json.loads(json.dumps(outcome(op_now, out, execute(op_now, out)))))
        if any(f != found[0] for f in found):
            raise SystemExit(f"{op.key}: outcome depends on the config seed: {found}")
        reference[op.key] = found[0]
    return reference


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench.record_reference")
    parser.add_argument("--workload", choices=WORKLOADS, help="record one workload and print it")
    args = parser.parse_args()
    root = Path.cwd()
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        if args.workload:
            print(json.dumps(record(args.workload, Path(scratch))))
            return 0
        reference: dict = {}
        for workload in WORKLOADS:
            command = [sys.executable, "-m", "perfbench.record_reference", "--workload", workload]
            done = subprocess.run(command, cwd=root, env=child_env(root, workload), stdout=subprocess.PIPE, text=True, check=True)
            reference.update(json.loads(done.stdout.splitlines()[-1]))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{len(reference)} reference outcomes written to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
