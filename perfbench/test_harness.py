"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import calibrate, metrics, ops, stats, tracing
from perfbench.workload import REFERENCE, Record, check, run_phase

ROOT = Path(__file__).resolve().parent.parent


# --- percentile rule -------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.percentile_supported(100, 90)
    assert stats.samples_beyond(99, 90) == 9
    assert not stats.percentile_supported(99, 90)
    assert stats.percentile_supported(1000, 99) and not stats.percentile_supported(999, 99)


def test_percentile_and_summary():
    values = [float(v) for v in range(101, 0, -1)]
    assert stats.percentile(values, 90) == 91.0
    assert stats.percentile(values, 50) == 51.0
    assert stats.percentile([1.0, 2.0], 90) == pytest.approx(1.9)
    assert stats.percentile([4.0], 90) == 4.0
    summary = stats.latency_summary(values[:100])
    assert summary["samples"] == 100 and summary["p90_supported"]
    assert summary["p50_s"] == 51.5 and summary["p90_s"] == pytest.approx(91.1)
    assert not stats.latency_summary(values[:99])["p90_supported"]
    with pytest.raises(ValueError):
        stats.percentile([], 90)


# --- self time on nested spans ----------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [
        (0, "a", 0.0, 10.0, -1),
        (0, "b", 1.0, 4.0, 0),
        (0, "c", 5.0, 9.0, 0),
        (0, "d", 6.0, 7.0, 2),
        (1, "b", 20.0, 22.0, -1),
    ]
    times = tracing.layer_times(spans)
    assert times["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert times["b"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert times["c"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert times["d"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_recursive_spans_count_total_once():
    spans = [(0, "x", 0.0, 10.0, -1), (0, "y", 1.0, 8.0, 0), (0, "x", 2.0, 6.0, 1)]
    times = tracing.layer_times(spans)
    assert times["x"] == {"calls": 2, "total_s": 10.0, "self_s": 7.0}
    assert times["y"]["self_s"] == 3.0


def test_wrapped_calls_nest_and_count():
    tracer = tracing.Tracer()

    def inner(trace, trials):
        return trials

    traced_inner = tracer.wrap("m.inner", inner, lambda args, _r: {"m.trials": args["trials"]})
    traced_outer = tracer.wrap("m.outer", lambda: traced_inner(None, trials=7) + traced_inner(None, 5))
    tracer.request = 3
    assert traced_outer() == 12
    labels = [(s[0], s[1], s[4]) for s in tracer.spans]
    assert labels == [(3, "m.outer", -1), (3, "m.inner", 0), (3, "m.inner", 0)]
    times = tracing.layer_times(tracer.spans)
    outer = times["m.outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - times["m.inner"]["total_s"])
    assert tracing.counts_by_name(tracer.counts) == {"m.trials": 12}
    assert tracing.per_request(tracer.spans, tracer.counts)[3]["m.inner.calls"] == 2


def test_install_wraps_every_namespace_and_uninstall_restores():
    import numpy

    import monofix
    from monofix import engine, fredholm, monoid

    original = monoid.cauchy_series_window_report
    eigvals = numpy.linalg.eigvals
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = fredholm.cauchy_series_window_report
        assert wrapped is not original
        assert engine.cauchy_series_window_report is wrapped
        assert monoid.cauchy_series_window_report is wrapped
        assert monofix.is_null_trace is monoid.is_null_trace
        monoid.dyadic_ladder(3)
        numpy.linalg.eigvals(numpy.eye(2))
    finally:
        tracer.uninstall()
    assert [s[1] for s in tracer.spans] == ["monoid.dyadic_ladder", "fredholm.spectral"]
    assert fredholm.cauchy_series_window_report is original
    assert numpy.linalg.eigvals is eigvals


# --- failure counting ------------------------------------------------------


def test_failed_ratio():
    assert stats.failed_ratio(0, 40) == 0.0
    assert stats.failed_ratio(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.failed_ratio(5, 4)


def test_check_counts_raises_mismatches_and_unknown_ops(tmp_path):
    from monofix.reporting import CheckResult, ValidationReport

    op = ops.Op("check-triangle", "check-triangle example", name="example")
    passing = ValidationReport("s", (CheckResult("triangle", True, trials=8),))
    failing = ValidationReport("s", (CheckResult("triangle", False, trials=2, counterexample="x"),))
    reference = {op.key: {"checks": ["PASS triangle [8 trials]"]}}

    def record(result, error=None, key=op.key):
        return Record(op._replace(key=key), 0.1, result, error, tmp_path)

    assert check(record(passing), reference) is None
    assert "differs" in check(record(failing), reference)
    assert "raised" in check(record(None, "ValueError: boom"), reference)
    assert "no reference" in check(record(passing, key="other"), reference)
    assert "unreadable" in check(record(object()), reference)


def test_reused_directory_turns_a_missing_artifact_into_a_failure(tmp_path, monkeypatch):
    reference = json.loads(REFERENCE.read_text())
    op = ops._map_op("halving", "sequential")
    (first,), _ = run_phase(iter([op]), 0, tmp_path, reference)
    assert first.failure is None and first.artifact_bytes > 0
    monkeypatch.setattr(ops, "execute", lambda op, out: 0)  # reports success, writes nothing
    (second,), _ = run_phase(iter([op]), 0, tmp_path, reference)
    assert second.out == first.out
    assert "differs" in second.failure and second.artifact_bytes == 0


# --- machine-speed calibration ---------------------------------------------


def test_scale_uses_the_kernel_times_around_each_op():
    samples = [calibrate.Sample(0.0, 1.0), calibrate.Sample(1.0, 2.0), calibrate.Sample(2.0, 4.0)]
    spans = [(0.05, 0.15), (0.9, 1.1), (1.4, 1.6), (3.0, 3.5)]
    # windows: sample 0 only; sample 1 only; none, so samples 1 and 2 on
    # either side; none after, so the last sample
    assert calibrate.scale(spans, samples, 2.0) == pytest.approx([0.2, 0.2, 0.2 * 2.0 / 3.0, 0.25])
    assert calibrate.scale([(0.0, 3.0)], samples, 2.0) == pytest.approx([3.0])  # median of all three
    with pytest.raises(ValueError):
        calibrate.scale(spans, [], 1.0)


def test_calibrator_runs_only_when_due():
    calibrator = calibrate.Calibrator("cli-mix")
    calibrator.maybe_run()
    calibrator.maybe_run()
    assert len(calibrator.samples) == 1
    calibrator.run()
    assert len(calibrator.samples) == 2 and all(s.kernel_s > 0 for s in calibrator.samples)


# --- seeded inputs ---------------------------------------------------------


def _inputs(workload: str, seed: int, directory: Path, count: int = 200) -> tuple:
    configs = ops.write_inputs(workload, seed, directory)
    files = {label: path.read_text() for label, path in configs.items()}
    stream = ops.op_stream(workload, seed, configs)
    sequence = [next(stream).key for _ in range(count)]
    return files, sequence


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    first = _inputs(workload, 5, tmp_path / "a")
    assert first == _inputs(workload, 5, tmp_path / "b")
    assert first != _inputs(workload, 6, tmp_path / "c")


def test_cli_mix_keeps_its_shares():
    stream = ops.op_stream("cli-mix", 9, {"coupled": Path("c"), **{k: Path(k) for k in ops.KERNELS}})
    commands = [next(stream).argv[0] for _ in range(2 * len(ops.MIX_BLOCK))]
    assert commands.count("solve-fredholm") == 16
    assert commands.count("solve-map") == 18
    assert commands.count("solve-coupled") == 6


# --- benchmark definition --------------------------------------------------


def test_benchmark_json_matches_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)


def test_reference_covers_every_op(tmp_path):
    reference = json.loads(REFERENCE.read_text())
    keys = set()
    for workload in ops.WORKLOADS:
        configs = ops.write_inputs(workload, 1, tmp_path / workload)
        keys |= {op.key for op in ops.every_op(workload, configs)}
    assert keys == set(reference)
