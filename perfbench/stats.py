"""Percentiles and the printed tables of the capture-to-storage benchmark."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "TooFewSamples",
    "beyond",
    "nearest_rank",
    "require_tail",
    "summary",
    "summary_line",
]


class TooFewSamples(RuntimeError):
    """A reported percentile has fewer than ten samples beyond it."""


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) by the nearest-rank method.

    The smallest sample such that at least ``q`` percent of the samples
    are less than or equal to it: rank ``ceil(q / 100 * n)``, 1-based.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n)) if n else 0


def require_tail(name: str, n: int, q: float, need: int = 10) -> None:
    """Fail loudly unless ``need`` samples lie beyond the ``q``-th percentile."""
    if beyond(n, q) < need:
        raise TooFewSamples(
            f"{name}: p{q:g} of {n} samples has only {beyond(n, q)} beyond it "
            f"(need {need}); lengthen the run instead of reporting it"
        )


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median, p90 and sample count of one timing."""
    return {
        "median": nearest_rank(values, 50) if values else float("nan"),
        "p90": nearest_rank(values, 90) if values else float("nan"),
        "n": len(values),
    }


def summary_line(name: str, values: Sequence[float], unit: str, scale: float = 1.0) -> str:
    """One printed row: median, p90 and sample count of a timing."""
    s = summary([v * scale for v in values])
    return f"  {name:<34} median {s['median']:>10.3f} {unit:<3} p90 {s['p90']:>10.3f} {unit:<3} n={s['n']}"
