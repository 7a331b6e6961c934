"""Confidence intervals for mean rewards in [0, 1], plus a Monte Carlo
check of the uniform concentration inequality behind the adaptive ones.

Two interval families are provided: a fixed-level Hoeffding interval and
an adaptive-level interval whose effective failure probability grows with
the sample count. Natural logarithms throughout. Everything here is a
pure function over caller-owned accumulators and random streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfidenceInterval",
    "fixed_ci",
    "adaptive_ci",
    "validate_uniform_concentration",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """Clamped interval [lower, upper] around ``mean``."""

    lower: float
    upper: float
    mean: float


def _check_accumulator(total: float, count: int) -> float:
    if count < 1:
        raise ValueError("count must be >= 1 (initialize intervals to [0, 1] yourself)")
    if not 0.0 <= total <= count:
        raise ValueError("total reward must lie in [0, count] for [0,1]-valued rewards")
    return total / count


def _clamp(mean: float, half_width: float) -> ConfidenceInterval:
    return ConfidenceInterval(
        lower=max(0.0, mean - half_width),
        upper=min(1.0, mean + half_width),
        mean=mean,
    )


def fixed_ci(total: float, count: int, delta: float) -> ConfidenceInterval:
    """Hoeffding interval: mean +/- sqrt(ln(1/delta) / (2 count)), clamped to [0, 1]."""
    mean = _check_accumulator(total, count)
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    half_width = math.sqrt(math.log(1.0 / delta) / (2.0 * count))
    return _clamp(mean, half_width)


def adaptive_ci(
    total: float, count: int, delta: float, scale: float = 2.0
) -> ConfidenceInterval:
    """Adaptive-level interval: mean +/- sqrt(scale * ln(8/(delta count)) / count).

    The log term is floored at 0 once delta * count exceeds 8 (outside the
    policies' operating range), giving a degenerate zero-width interval.
    """
    mean = _check_accumulator(total, count)
    if not delta > 0.0:  # also rejects NaN
        raise ValueError("delta must be positive")
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError("scale must be positive and finite")
    log_arg = 8.0 / (delta * count)
    half_width = math.sqrt(scale * math.log(log_arg) / count) if log_arg > 1.0 else 0.0
    return _clamp(mean, half_width)


def validate_uniform_concentration(
    p: float, depth: int, delta: float, trials: int, rng
) -> float:
    """Fraction of trials where the adaptive-level radius covers the running
    mean of Bernoulli(p) draws simultaneously at every sample count
    1..depth.

    The guarantee is coverage >= 1 - depth * delta.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    draws = (rng.random((trials, depth)) < p).astype(float)
    counts = np.arange(1, depth + 1, dtype=float)
    running_means = np.cumsum(draws, axis=1) / counts
    log_terms = np.maximum(np.log(8.0 / (delta * counts)), 0.0)
    radii = np.sqrt(2.0 * log_terms / counts)
    covered = np.all(np.abs(running_means - p) <= radii, axis=1)
    return float(covered.mean())
