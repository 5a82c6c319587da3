"""One workload process: set up, run a closed loop of ops, check every outcome.

Started by `perfbench.run`, never by hand.  It writes one JSON object as the
last line of its standard output; the CLI's own status lines go to
/dev/null.  The single client issues its next op only after the previous one
returned.  Set-up ends, and `setup_s` is taken, after the import, the input
files and one untimed warm-up op.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from . import calibrate, metrics, ops, stats, tracing

REFERENCE = Path(__file__).with_name("reference.json")
ORACLE_TOLERANCE = 1e-4
MAX_REPORTED_FAILURES = 5


class Record(NamedTuple):
    op: ops.Op
    latency_s: float
    result: object
    error: Optional[str]
    out: Path  # reused by every op with the same key
    started: float = 0.0  # perf_counter() when the op was issued
    failure: Optional[str] = None  # what `check` found, right after the op
    artifact_bytes: int = 0  # size of the files the op wrote


def run_phase(
    stream: Iterator[ops.Op],
    seconds: float,
    out_root: Path,
    reference: dict,
    tracer: Optional[tracing.Tracer] = None,
    calibrator: Optional[calibrate.Calibrator] = None,
):
    """Issue ops until `seconds` have passed; returns the records and the wall time.

    Each op is checked against the reference as soon as it returns, outside
    its latency.  Ops with the same key write to the same directory, whose
    files are emptied, not deleted, before the next such op: on a shared
    disk, creating a directory and three files took 0.3 ms in one minute and
    1.3 ms in another, which would swamp the 2 ms ops.  An emptied file that
    an op fails to rewrite no longer matches its reference hash.  With a
    calibrator, its kernel runs between ops when due and once after the last
    op, also outside every op's latency.
    """
    records: list[Record] = []
    directories: dict[str, Path] = {}
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        op = next(stream)
        out = directories.setdefault(op.key, out_root / str(len(directories)))
        if out.is_dir():
            for path in out.iterdir():
                os.truncate(path, 0)
        if tracer is not None:
            tracer.request = len(records)
        if calibrator is not None:
            calibrator.maybe_run()
        t0 = time.perf_counter()
        try:
            result, error = ops.execute(op, out), None
        except (Exception, SystemExit) as exc:  # argparse exits; either way the op failed and the loop goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        record = Record(op, t1 - t0, result, error, out, t0)
        written = sum(path.stat().st_size for path in out.iterdir()) if out.is_dir() else 0
        records.append(record._replace(failure=check(record, reference), artifact_bytes=written))
        if t1 >= deadline:
            if calibrator is not None:
                calibrator.run()
            return records, t1 - start


def check(record: Record, reference: dict) -> Optional[str]:
    """None when the op's outcome matches the reference, else why not."""
    if record.error is not None:
        return f"{record.op.key}: raised {record.error}"
    expected = reference.get(record.op.key)
    if expected is None:
        return f"{record.op.key}: no reference outcome"
    try:
        found = json.loads(json.dumps(ops.outcome(record.op, record.out, record.result)))
        error = ops.analytic_error(record.op, record.out)
    except Exception as exc:  # a malformed artifact is a failed op, not a failed run
        return f"{record.op.key}: unreadable outcome ({type(exc).__name__}: {exc})"
    if found != expected:
        return f"{record.op.key}: outcome {found} differs from reference {expected}"
    if error is not None and not error <= ORACLE_TOLERANCE:
        return f"{record.op.key}: solution is {error:.3g} from 1.5*t"
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_library = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas_library = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "seed": seed,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_library": blas_library,
    }


def product_ts_counts(tracer: tracing.Tracer, records: list[Record]) -> dict:
    """How many certified product_ts solves made exactly the reference commit's work counts."""
    grouped = tracing.per_request(tracer.spans, tracer.counts)
    solves = matching = 0
    first = None
    for request, record in enumerate(records):
        if not record.op.key.startswith("solve-fredholm product_ts") or record.result != 0:
            continue
        counts = {name: grouped[request].get(name, 0) for name in metrics.PRODUCT_TS_COUNTS}
        solves += 1
        matching += counts == metrics.PRODUCT_TS_COUNTS
        first = first or counts
    return {"solves": solves, "matching_seed_counts": matching, "first_solve": first}


def write_spans(path: Path, tracer: tracing.Tracer) -> None:
    labels = sorted({span[1] for span in tracer.spans})
    index = {label: i for i, label in enumerate(labels)}
    with open(path, "w") as out:
        json.dump(
            {
                "fields": ["request", "label", "start_s", "end_s", "parent"],
                "labels": labels,
                "spans": [[r, index[label], s, e, p] for r, label, s, e, p in tracer.spans],
                "counts": [[r, name, v] for (r, name), v in sorted(tracer.counts.items())],
            },
            out,
        )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.workload")
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--launched-at", type=float, required=True, help="time.monotonic() at launch")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    protocol = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = open(os.devnull, "w")

    import monofix  # noqa: F401  (the import is part of set-up)

    configs = ops.write_inputs(args.workload, args.seed, args.scratch / "inputs")
    ops.execute(ops.warmup_op(args.workload, configs), args.scratch / "warmup")
    setup_s = time.monotonic() - args.launched_at
    if args.setup_only:
        protocol.write(json.dumps({"setup_s": setup_s}) + "\n")
        protocol.flush()
        return 0

    reference = json.loads(REFERENCE.read_text())
    result: dict = {"setup_s": setup_s, "environment": environment(args.seed)}
    stream = ops.op_stream(args.workload, args.seed, configs)
    if args.trace:
        plain, plain_s = run_phase(stream, args.seconds / 2, args.scratch / "plain", reference)
        # the traced half replays the op sequence of the untraced half
        stream = ops.op_stream(args.workload, args.seed, configs)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_s = run_phase(stream, args.seconds / 2, args.scratch / "traced", reference, tracer)
        finally:
            tracer.uninstall()
        records = plain + traced
    else:
        calibrator = calibrate.Calibrator(args.workload)
        calibrator.run()  # the first kernel run is untimed, like the warm-up op
        calibrator.samples.clear()
        records, elapsed = run_phase(stream, args.seconds, args.scratch / "ops", reference, calibrator=calibrator)

    failures = [r.failure for r in records if r.failure]
    failed_ratio = stats.failed_ratio(len(failures), len(records))
    result.update(attempted=len(records), failed=len(failures), failed_ratio=failed_ratio, failures=failures[:MAX_REPORTED_FAILURES])
    if args.trace:
        overhead = (len(plain) / plain_s) / (len(traced) / traced_s)
        result["per_layer"] = metrics.per_layer(tracer, len(traced), sum(r.artifact_bytes for r in traced), overhead, failed_ratio)
        result["product_ts_counts"] = product_ts_counts(tracer, traced)
        result["traced_ops"] = len(traced)
        if args.spans is not None:
            write_spans(args.spans, tracer)
    else:
        spans = [(r.started, r.started + r.latency_s) for r in records]
        nominal = calibrate.scale(spans, calibrator.samples, calibrator.nominal_s)
        kernel_s = [sample.kernel_s for sample in calibrator.samples]
        result.update(
            ops_per_s=len(records) / sum(nominal),
            latency=stats.latency_summary(nominal),
            raw=dict(ops_per_s=len(records) / elapsed, latency=stats.latency_summary([r.latency_s for r in records])),
            calibration=dict(
                kernel=calibrate.KERNEL[args.workload],
                samples=len(kernel_s),
                nominal_s=calibrator.nominal_s,
                median_s=statistics.median(kernel_s),
                quartiles_s=statistics.quantiles(kernel_s, n=4),
            ),
            # ru_maxrss is in KiB on Linux
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
