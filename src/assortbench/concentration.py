"""Confidence intervals for mean rewards in [0, 1], plus Monte Carlo
validators for the uniform and maximal concentration inequalities they
rely on.

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
    "validate_maximal_inequality",
    "bernoulli_sampler",
    "constant_sampler",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """Clamped interval [lower, upper] around ``mean`` after ``count`` samples."""

    lower: float
    upper: float
    count: int
    mean: float


def _check_accumulator(total: float, count: int) -> float:
    if count < 1:
        raise ValueError("count must be >= 1 (initialize intervals to [0, 1] yourself)")
    if not 0.0 <= total <= count:
        raise ValueError("total reward must lie in [0, count] for [0,1]-valued rewards")
    return total / count


def _clamp(mean: float, half_width: float, count: int) -> ConfidenceInterval:
    return ConfidenceInterval(
        lower=max(0.0, mean - half_width),
        upper=min(1.0, mean + half_width),
        count=count,
        mean=mean,
    )


def fixed_ci(total: float, count: int, delta: float) -> ConfidenceInterval:
    """Hoeffding interval: mean +/- sqrt(ln(1/delta) / (2 count)), clamped to [0, 1]."""
    mean = _check_accumulator(total, count)
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    half_width = math.sqrt(math.log(1.0 / delta) / (2.0 * count))
    return _clamp(mean, half_width, count)


def adaptive_ci(
    total: float, count: int, delta: float, scale: float = 2.0
) -> ConfidenceInterval:
    """Adaptive-level interval: mean +/- sqrt(scale * ln(8/(delta count)) / count).

    The log term is floored at 0 once delta * count exceeds 8 (outside the
    policies' operating range), giving a degenerate zero-width interval.
    """
    mean = _check_accumulator(total, count)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    log_arg = 8.0 / (delta * count)
    half_width = math.sqrt(scale * math.log(log_arg) / count) if log_arg > 1.0 else 0.0
    return _clamp(mean, half_width, count)


def bernoulli_sampler(p: float):
    """Sampler closure for Bernoulli(p) draws, usable by the validators."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")

    def sample(rng, shape):
        return (rng.random(shape) < p).astype(float)

    return sample


def constant_sampler(value: float):
    """Degenerate sampler X == value."""

    def sample(rng, shape):
        return np.full(shape, float(value))

    return sample


def _draw_bounded(sampler, rng, shape, bounds):
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError("bounds must be a finite interval (lo, hi) with lo < hi")
    draws = np.asarray(sampler(rng, shape), dtype=float)
    if draws.shape != shape:
        raise ValueError("sampler returned an array of the wrong shape")
    if not np.all(np.isfinite(draws)) or draws.min() < lo or draws.max() > hi:
        raise ValueError("unbounded sampler: draws escape the declared bounds")
    return draws


def validate_uniform_concentration(
    sampler,
    mean: float,
    depth: int,
    delta: float,
    trials: int,
    rng,
    bounds=(0.0, 1.0),
) -> float:
    """Fraction of trials where the adaptive-level radius covers the running
    mean simultaneously at every sample count 1..depth.

    The guarantee is coverage >= 1 - depth * delta. ``sampler(rng, shape)``
    must return draws inside ``bounds`` with the stated mean.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    draws = _draw_bounded(sampler, rng, (trials, depth), bounds)
    counts = np.arange(1, depth + 1, dtype=float)
    running_means = np.cumsum(draws, axis=1) / counts
    span = bounds[1] - bounds[0]
    log_terms = np.maximum(np.log(8.0 / (delta * counts)), 0.0)
    radii = np.sqrt(2.0 * span * span * log_terms / counts)
    covered = np.all(np.abs(running_means - mean) <= radii, axis=1)
    return float(covered.mean())


def validate_maximal_inequality(
    sampler,
    mean: float,
    n: int,
    threshold: float,
    trials: int,
    rng,
    bounds=(0.0, 1.0),
) -> float:
    """Empirical Pr[exists i <= n : X_1 + ... + X_i >= i mean + threshold].

    Hoeffding's maximal inequality bounds this by exp(-2 t^2 / (n (b-a)^2)).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    draws = _draw_bounded(sampler, rng, (trials, n), bounds)
    partial_sums = np.cumsum(draws, axis=1)
    deviations = partial_sums - np.arange(1, n + 1) * mean
    exceeded = np.any(deviations >= threshold, axis=1)
    return float(exceeded.mean())
