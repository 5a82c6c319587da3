"""Summary statistics for op latencies and outcome counts."""
from __future__ import annotations

import statistics
from typing import Sequence

# A percentile is reported as supported only when at least this many samples
# lie beyond it, so that one outlier cannot set it on its own.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], pct: int) -> float:
    """The pct-th percentile, interpolated linearly between neighbouring ranks.

    Interpolation keeps the value from jumping when a run completes one op
    more or less, which matters for runs of a few slow ops.
    """
    if not values:
        raise ValueError("no samples")
    if not 1 <= pct <= 99:
        raise ValueError(f"percentile {pct} outside 1..99")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def samples_beyond(n: int, pct: int) -> int:
    """How many of n samples rank above the pct-th percentile."""
    return n - -(-pct * n // 100)  # n - ceil(pct * n / 100), in integers


def percentile_supported(n: int, pct: int) -> bool:
    return samples_beyond(n, pct) >= MIN_SAMPLES_BEYOND


def latency_summary(latencies: Sequence[float]) -> dict:
    """Median and 90th percentile with the sample count behind them.

    With fewer than 100 samples fewer than ten lie beyond the 90th
    percentile; the value is still reported, and `p90_supported` says that
    it rests on too few samples.
    """
    n = len(latencies)
    return {
        "samples": n,
        "p50_s": statistics.median(latencies),
        "p90_s": percentile(latencies, 90),
        "p90_supported": percentile_supported(n, 90),
    }


def failed_ratio(failed: int, attempted: int) -> float:
    """Share of attempted ops whose outcome differed from the reference."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted
