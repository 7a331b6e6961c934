"""The paper's structural properties, each checked in one place.

On a potential profile: f* equals the best revenue over all subsets, f* is
a fixed point F(f*) = f*, F lies above the diagonal up to f* and below it
beyond, and the plateau values are unimodal. On the hard pair: KL(P0 || P1)
is at most 1/(18 T). The adaptive radius covers a running mean in at least
99% of trials. Callers choose instances, seeds, counts and grids; ``cli
verify`` runs the whole suite through ``failures``.
"""

from __future__ import annotations

import numpy as np

from . import core
from .concentration import validate_uniform_concentration
from .harness import derive_seed, generate_lower_bound

__all__ = [
    "TOL",
    "MIN_COVERAGE",
    "optimum_gap",
    "is_fixed_point",
    "profile_is_fixed_point",
    "geometry_holds",
    "is_unimodal",
    "kl_violations",
    "coverage",
    "failures",
]

# Absolute tolerance of every comparison between revenues.
TOL = 1e-12
MIN_COVERAGE = 0.99


def optimum_gap(instance: core.Instance, profile: core.PotentialProfile) -> float:
    """|f* - the best expected revenue over all subsets| (at most 20 items)."""
    _, subset_best = core.brute_force_optimal(instance)
    return abs(profile.f_star - subset_best)


def is_fixed_point(instance: core.Instance, profile: core.PotentialProfile) -> bool:
    """F(f*) = f*, with F evaluated as the level set's expected revenue."""
    return abs(core.potential(instance, profile.f_star) - profile.f_star) <= TOL


def profile_is_fixed_point(profile: core.PotentialProfile) -> bool:
    """F(f*) = f*, with F read off the profile."""
    return abs(profile.value_at(profile.f_star) - profile.f_star) <= TOL


def geometry_holds(profile: core.PotentialProfile, grid: np.ndarray) -> bool:
    """F(theta) >= theta at every grid theta <= f*, and F(theta) <= theta
    beyond f*."""
    values = np.array([profile.value_at(t) for t in grid])
    below = grid <= profile.f_star
    return not (
        np.any(values[below] < grid[below] - TOL)
        or np.any(values[~below] > grid[~below] + TOL)
    )


def is_unimodal(values: tuple) -> bool:
    """``values`` rise to their first maximum and fall after it."""
    peak = values.index(max(values))
    rising = all(a <= b + TOL for a, b in zip(values[:peak], values[1 : peak + 1]))
    falling = all(a >= b - TOL for a, b in zip(values[peak:], values[peak + 1 :]))
    return rising and falling


def kl_violations(horizons) -> list:
    """(T, S) for each horizon T and offer S in {(1,), (1, 2)} where the
    hard pair's KL(P0 || P1) exceeds 1/(18 T)."""
    violations = []
    for horizon in horizons:
        p0 = generate_lower_bound("P0", 2, horizon)
        p1 = generate_lower_bound("P1", 2, horizon)
        for assortment in ((1,), (1, 2)):
            if core.kl_purchase_distributions(p0, p1, assortment) > 1.0 / (18.0 * horizon):
                violations.append((horizon, assortment))
    return violations


def coverage(rng) -> float:
    """Fraction of 10,000 trials in which the adaptive radius at delta=1e-4
    covers a Bernoulli(1/2) running mean at every count up to 100."""
    return validate_uniform_concentration(0.5, 100, 1e-4, 10_000, rng)


def failures(seed: int, instances: int) -> list:
    """The whole suite, as failure descriptions: ``instances`` random
    instances of 1..12 items, each from its own seed derived from ``seed``
    and checked on a 1000-point grid, then the coverage, on a stream seeded
    from ``seed`` as well, and the KL bound at T in {16, 100, 10,000}. Any
    integer is a seed."""
    found = []
    grid = np.linspace(0.0, 1.0, 1000)
    for k in range(instances):
        inst_seed = derive_seed(seed, "verify", k)
        gen = np.random.default_rng(inst_seed)
        n = int(gen.integers(1, 13))
        instance = core.Instance(gen.random(n), gen.random(n))
        profile = core.build_potential_profile(instance)
        checks = (
            ("level-set optimum != subset optimum", optimum_gap(instance, profile) <= TOL),
            ("potential fixed point violated", is_fixed_point(instance, profile)),
            ("profile fixed point violated", profile_is_fixed_point(profile)),
            ("potential not above the diagonal up to f*, below it beyond",
             geometry_holds(profile, grid)),
            ("potential values not unimodal", is_unimodal(profile.values)),
        )
        found.extend(f"{name} (seed {inst_seed})" for name, held in checks if not held)
    covered = coverage(np.random.default_rng(derive_seed(seed, "coverage")))
    if covered < MIN_COVERAGE:
        found.append(f"uniform concentration coverage {covered} < {MIN_COVERAGE}")
    for horizon, assortment in kl_violations((16, 100, 10_000)):
        found.append(f"KL bound violated at T={horizon}, S={assortment}")
    return found
