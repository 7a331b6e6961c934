"""Confidence intervals for mean rewards in [0, 1], plus a Monte Carlo
check of the uniform concentration inequality behind the adaptive ones.

Two interval families are provided: a fixed-level Hoeffding interval and
an adaptive-level interval whose effective failure probability grows with
the sample count. Natural logarithms throughout. Everything here is a
pure function over caller-owned accumulators and random streams.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "fixed_ci",
    "adaptive_ci",
    "validate_uniform_concentration",
]


def _check_accumulator(total: float, count: int) -> float:
    if count < 1:
        raise ValueError("count must be >= 1 (initialize intervals to [0, 1] yourself)")
    if not 0.0 <= total <= count:
        raise ValueError("total reward must lie in [0, count] for [0,1]-valued rewards")
    return total / count


def _adaptive_radius(count: int, delta: float, scale: float) -> float:
    """sqrt(scale * ln(8/(delta count)) / count), the one definition of the
    adaptive radius. The log term is floored at 0 once delta * count
    reaches 8 (outside the policies' operating range), giving radius 0."""
    log_arg = 8.0 / (delta * count)
    return math.sqrt(scale * math.log(log_arg) / count) if log_arg > 1.0 else 0.0


def fixed_ci(total: float, count: int, delta: float) -> tuple[float, float]:
    """Hoeffding interval (lower, upper): mean +/- sqrt(ln(1/delta) / (2 count)),
    clamped to [0, 1]."""
    mean = _check_accumulator(total, count)
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    half_width = math.sqrt(math.log(1.0 / delta) / (2.0 * count))
    return max(0.0, mean - half_width), min(1.0, mean + half_width)


def adaptive_ci(
    total: float, count: int, delta: float, scale: float = 2.0
) -> tuple[float, float]:
    """Adaptive-level interval (lower, upper): mean +/- the adaptive radius
    sqrt(scale * ln(8/(delta count)) / count), clamped to [0, 1]; zero-width
    once delta * count reaches 8."""
    mean = _check_accumulator(total, count)
    if not delta > 0.0:  # also rejects NaN
        raise ValueError("delta must be positive")
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError("scale must be positive and finite")
    half_width = _adaptive_radius(count, delta, scale)
    return max(0.0, mean - half_width), min(1.0, mean + half_width)


def validate_uniform_concentration(
    p: float, depth: int, delta: float, trials: int, rng
) -> float:
    """Fraction of trials where the adaptive radius that ``adaptive_ci``
    uses, at its default scale 2, covers the running mean of Bernoulli(p)
    draws simultaneously at every sample count 1..depth.

    The guarantee is coverage >= 1 - depth * delta.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not delta > 0.0:  # also rejects NaN
        raise ValueError("delta must be positive")
    draws = (rng.random((trials, depth)) < p).astype(float)
    running_means = np.cumsum(draws, axis=1) / np.arange(1, depth + 1, dtype=float)
    radii = np.array([_adaptive_radius(t, delta, 2.0) for t in range(1, depth + 1)])
    covered = np.all(np.abs(running_means - p) <= radii, axis=1)
    return float(covered.mean())
