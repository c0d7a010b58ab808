"""Failure accounting and latency percentiles over one run's samples.

A sample is ``(ok, seconds)``.  A failed operation earns nothing in
throughput and ranks slower than every success in the percentiles: its
latency is raised to the slowest latency of the run, so a percentile that
lands on a failure reads the worst time measured rather than a fast
wrong answer.
"""

from __future__ import annotations

import math


def ranked_latencies(samples: list[tuple[bool, float]]) -> list[float]:
    """Latencies in rank order, every failure after every success."""
    if not samples:
        raise ValueError("no samples")
    worst = max(t for _, t in samples)
    ok = sorted(t for good, t in samples if good)
    return ok + [worst] * (len(samples) - len(ok))


def percentile(ranked: list[float], q: float) -> float:
    """Nearest-rank percentile of an already ranked list, q in (0, 1]."""
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def beyond(count: int, q: float) -> int:
    """Samples ranked beyond the nearest-rank q-percentile."""
    return count - max(1, math.ceil(q * count))


def summarize(samples: list[tuple[bool, float]]) -> dict:
    """Throughput, p50, p90 and error accounting for one run."""
    ranked = ranked_latencies(samples)
    good = sum(1 for ok, _ in samples if ok)
    busy = sum(t for _, t in samples)
    return {
        "attempted": len(samples),
        "failed": len(samples) - good,
        "error_rate": (len(samples) - good) / len(samples),
        "busy_s": busy,
        "verdicts_per_s": good / busy if busy > 0 else 0.0,
        "latency_p50_ms": percentile(ranked, 0.5) * 1e3,
        "latency_p90_ms": percentile(ranked, 0.9) * 1e3,
        "beyond_p90": beyond(len(samples), 0.9),
    }
