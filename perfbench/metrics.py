"""The metrics a run reports, with their units; BENCHMARK.json lists the same."""
from __future__ import annotations

from . import tracing

# name -> unit, reported with --trace 0
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

_DRIVERS = ("sequential", "caristi", "meir_keeler", "monotone")


def _timed(label: str, *stats: str) -> list[tuple[str, str]]:
    units = {"calls": "calls/op", "total_s": "s/op", "self_s": "s/op"}
    return [(f"{label}.{stat}", units[stat]) for stat in stats]


# name -> unit, reported with --trace 1; every value is per op of the traced phase
PER_LAYER = dict(
    _timed("fredholm.spectral", "calls", "total_s")
    + _timed("fredholm.certify_convergence", "calls", "total_s", "self_s")
    + [("fredholm.certificate.terms", "terms/op"), ("fredholm.certificate.bytes_computed", "B/op")]
    + _timed("fredholm.kernel_matrix", "calls", "total_s")
    + _timed("fredholm.solve_fredholm", "calls", "total_s", "self_s")
    + _timed("monoid.cauchy_series_window_report", "calls", "total_s")
    + [("monoid.cauchy_series_window_report.elements", "elements/op")]
    + _timed("monoid.is_null_trace", "calls", "total_s")
    + [("monoid.is_null_trace.elements", "elements/op")]
    + _timed("engine.picard_iterate", "calls", "total_s", "self_s")
    + [("engine.picard.steps", "steps/op")]
    + _timed("engine.lambda_product_trace", "calls", "total_s")
    + [("engine.lambda_product_trace.terms", "terms/op")]
    + [m for driver in _DRIVERS for m in _timed(f"engine.solve_{driver}", "calls", "total_s", "self_s")]
    + _timed("multifix.coupled_fixed_point", "calls", "total_s")
    + _timed("spaces.falsify_frechet_wilson", "calls", "total_s")
    + [("spaces.falsify_frechet_wilson.trials", "trials/op")]
    + _timed("spaces.validate_space", "calls", "total_s")
    + [("spaces.validate_space.trials", "trials/op")]
    + _timed("spaces.check_triangle", "calls", "total_s")
    + _timed("monoid.validate_monoid", "calls", "total_s")
    + [("monoid.validate_monoid.trials", "trials/op")]
    + _timed("monoid.validate_ladder", "calls", "total_s")
    + _timed("cli.main", "calls", "total_s", "self_s")
    + [("cli.artifact_bytes", "B/op")]
    + _timed("expr.compile_expression", "calls", "total_s")
    + [m for name in ("space", "monoid", "map") for m in _timed(f"catalog.get_{name}", "calls", "total_s")]
    + [("tracing.overhead_ratio", "1"), ("failed_ratio", "1")]
)

# Work counts every certified product_ts solve makes at the reference commit.
PRODUCT_TS_COUNTS = {
    "fredholm.kernel_matrix.calls": 2,
    "fredholm.spectral.calls": 1,
    "fredholm.certificate.terms": 800,
    "engine.picard.steps": 15,
    "engine.lambda_product_trace.terms": 400,
}


def per_layer(tracer: tracing.Tracer, op_count: int, artifact_bytes: int, overhead_ratio: float, failed_ratio: float) -> dict:
    """Every PER_LAYER metric as a per-op value over the traced phase."""
    times = tracing.layer_times(tracer.spans)
    counts = tracing.counts_by_name(tracer.counts)
    values = {"cli.artifact_bytes": artifact_bytes / op_count, "tracing.overhead_ratio": overhead_ratio, "failed_ratio": failed_ratio}
    for name in PER_LAYER:
        if name in values:
            continue
        label, _, stat = name.rpartition(".")
        if stat in ("calls", "total_s", "self_s"):
            values[name] = times.get(label, {}).get(stat, 0) / op_count
        else:
            values[name] = counts.get(name, 0) / op_count
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
