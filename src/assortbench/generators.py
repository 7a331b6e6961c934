"""Instance generators.

``generate_synthetic`` draws the benchmark family (revenues uniform on
[0.4, 0.5], utilities uniform on [10/N, 20/N]); ``generate_lower_bound``
builds the hard two-item pair P0/P1 whose purchase distributions are nearly
indistinguishable at horizon T. The families a ``RunConfig`` draws from,
and their names, are defined in ``harness``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Instance

__all__ = ["generate_synthetic", "generate_lower_bound"]


def generate_synthetic(n: int, seed=None) -> Instance:
    """Draw an N-item instance: r_i ~ U[0.4, 0.5] and v_i ~ U[10/N, 20/N],
    i.i.d. per seed. The utility bounds scale with 1/N, so the total utility
    concentrates near 15 whatever the item count."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    revenues = rng.uniform(0.4, 0.5, size=n)
    utilities = rng.uniform(10.0 / n, 20.0 / n, size=n)
    return Instance(revenues, utilities)


def generate_lower_bound(variant: str, n: int, horizon: int) -> Instance:
    """Hard instance pair: r = (1, 1/2, 0, ..., 0) with v2 = 1 and
    v1 = 1 - 1/(4 sqrt(T)) for P0, 1 + 1/(4 sqrt(T)) for P1; other items
    have zero utility."""
    if variant not in ("P0", "P1"):
        raise ValueError("variant must be 'P0' or 'P1'")
    if n < 2:
        raise ValueError("lower-bound instances need n >= 2")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    bump = 1.0 / (4.0 * math.sqrt(horizon))
    revenues = np.zeros(n)
    revenues[0] = 1.0
    revenues[1] = 0.5
    utilities = np.zeros(n)
    utilities[0] = 1.0 - bump if variant == "P0" else 1.0 + bump
    utilities[1] = 1.0
    return Instance(revenues, utilities)
