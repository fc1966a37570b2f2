"""Summary statistics for op timings, and the rules that compare two result sets."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between order statistics; the 50th is the median."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    position = pct / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: int) -> float:
    """Highest percentile that keeps TAIL_BEYOND samples beyond it, never below 50.

    For n > 10 samples the 100 * (n - 10) / n percentile falls between the
    11th and 10th largest, so exactly ten samples lie beyond it. Runs too
    short for that to reach the median report the median instead.
    """
    if samples < 1:
        raise ValueError("no samples")
    return max(50.0, 100.0 * (samples - TAIL_BEYOND) / samples)


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse new is than base, as a share of base (negative = better)."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare_metric(base: list[float], new: list[float], better: str, bound: float | None) -> dict:
    """One metric x workload row of a comparison.

    A bounded metric is a regression when the new median is worse than the
    base median by more than its bound. When either side's run-to-run
    spread exceeds the bound the row is "unresolved", unless every new run
    beats every base run. Unbounded (per-layer) metrics are reported only.
    """
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    spread = max(quartile_spread(base), quartile_spread(new))
    worse = worse_by(base_median, new_median, better)
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if bound is None:
        status = "info"
    elif all_better:
        status = "better"
    elif spread > bound:
        status = "unresolved"
    elif worse > bound:
        status = "regression"
    else:
        status = "ok"
    return {
        "base_median": base_median,
        "base_runs": len(base),
        "new_median": new_median,
        "new_runs": len(new),
        "ratio": new_median / base_median if base_median else math.inf,
        "spread": spread,
        "bound": bound,
        "status": status,
    }
