"""Uncapacitated multinomial-logit (MNL) assortment primitives.

An instance pairs item revenues with item utilities; the no-purchase
utility is fixed at 1 and never stored. Expected revenue, purchase
sampling, revenue level sets, and the piecewise-constant revenue
potential (with its fixed point, which identifies the optimal
revenue-ordered assortment) all live here.

Assortments are strictly increasing tuples of 1-based item indices.
Instances, prepared offers, level-set oracles and potential profiles are
immutable after construction and safe to share across threads; only the
caller-owned random generator is mutated by sampling.

Two objects keep the simulator's hot paths free of repeated work. A
``PreparedOffer`` validates an assortment and sums its utilities once;
``run_episode`` prepares each distinct offer once per episode, so a
repeated offer costs O(log |S|) per period. A ``LevelSetOracle`` sorts a
revenue vector once; each later level-set optimization under new utilities
costs two cumulative sums.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Instance",
    "PurchaseOutcome",
    "PreparedOffer",
    "LevelSetOracle",
    "PotentialProfile",
    "InvalidAssortmentError",
    "expected_revenue",
    "choice_probabilities",
    "sample_purchase",
    "level_set",
    "level_set_from_revenues",
    "potential",
    "build_potential_profile",
    "oracle_optimal",
    "brute_force_optimal",
    "kl_purchase_distributions",
    "kl_quadratic_bound",
    "BRUTE_FORCE_MAX_ITEMS",
]

# Guard against 2^N blow-up in exhaustive subset enumeration.
BRUTE_FORCE_MAX_ITEMS = 20

# Absolute tolerance for merging equal-valued potential plateaus.
_MERGE_TOL = 1e-12


class InvalidAssortmentError(ValueError):
    """Assortment indices are out of range, duplicated, or unsorted."""


@dataclass(frozen=True)
class PurchaseOutcome:
    """One customer decision: purchased item (0 = no purchase) and its revenue."""

    item: int
    revenue: float


def _check_revenues(r: np.ndarray) -> None:
    if not np.all(np.isfinite(r)):
        raise ValueError("revenues must be finite")
    if np.any(r < 0.0) or np.any(r > 1.0):
        raise ValueError("revenues must lie in [0, 1]")


def _check_utilities(v: np.ndarray) -> None:
    # Array methods rather than np.all/np.any: this runs once per plug-in
    # optimization, where the function wrappers' overhead shows.
    if not np.isfinite(v).all():
        raise ValueError("utilities must be finite")
    if (v < 0.0).any():
        raise ValueError("utilities must be nonnegative")


class Instance:
    """One MNL environment: revenues in [0, 1] and nonnegative utilities.

    Both vectors have the same length N >= 1 and are stored as read-only
    float arrays. Item i (1-based) has revenue ``revenues[i-1]`` and
    utility ``utilities[i-1]``.
    """

    def __init__(self, revenues, utilities):
        r = np.array(revenues, dtype=float)
        v = np.array(utilities, dtype=float)
        if r.ndim != 1 or v.ndim != 1:
            raise ValueError("revenues and utilities must be one-dimensional")
        if r.shape != v.shape:
            raise ValueError(
                f"length mismatch: {r.shape[0]} revenues vs {v.shape[0]} utilities"
            )
        if r.shape[0] < 1:
            raise ValueError("instance needs at least one item")
        _check_revenues(r)
        _check_utilities(v)
        r.setflags(write=False)
        v.setflags(write=False)
        self.revenues = r
        self.utilities = v

    @property
    def n(self) -> int:
        return self.revenues.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return np.array_equal(self.revenues, other.revenues) and np.array_equal(
            self.utilities, other.utilities
        )

    def __repr__(self):
        return f"Instance(n={self.n})"

    def to_dict(self) -> dict:
        return {
            "revenues": self.revenues.tolist(),
            "utilities": self.utilities.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Instance":
        if not isinstance(payload, dict):
            raise ValueError("instance payload must be a JSON object")
        missing = {"revenues", "utilities"} - set(payload)
        if missing:
            raise ValueError(f"instance payload missing keys: {sorted(missing)}")
        return cls(payload["revenues"], payload["utilities"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class PotentialProfile:
    """Exact piecewise-constant representation of the revenue potential.

    ``values[i]`` is the potential on the interval ending (inclusively) at
    ``jump_points[i]``; ``values[-1]`` applies beyond the last jump point
    and is always 0. Consecutive values differ, ``f_star`` is the maximum
    value, and ``theta_star == f_star`` is the fixed point.
    """

    jump_points: tuple
    values: tuple
    theta_star: float
    f_star: float

    def value_at(self, theta: float) -> float:
        """Potential at ``theta`` (left-continuous)."""
        if theta < 0.0:
            raise ValueError("theta must be nonnegative")
        return self.values[bisect_left(self.jump_points, theta)]


def _assortment_indices(instance: Instance, assortment) -> np.ndarray:
    """Validate an assortment and return its 0-based index array."""
    idx = np.asarray(assortment, dtype=np.int64)
    if idx.ndim != 1:
        raise InvalidAssortmentError("assortment must be a flat sequence of indices")
    if idx.size == 0:
        return idx
    if idx[0] < 1 or idx[-1] > instance.n:
        raise InvalidAssortmentError(
            f"item indices must lie in [1, {instance.n}], got {idx.min()}..{idx.max()}"
        )
    if np.any(np.diff(idx) <= 0):
        raise InvalidAssortmentError("assortment indices must be strictly increasing")
    return idx - 1


def expected_revenue(instance: Instance, assortment) -> float:
    """Expected revenue of offering ``assortment``: sum(r v) / (1 + sum(v)).

    The empty assortment yields 0.
    """
    idx = _assortment_indices(instance, assortment)
    if idx.size == 0:
        return 0.0
    v = instance.utilities[idx]
    return float(np.dot(instance.revenues[idx], v) / (1.0 + v.sum()))


def choice_probabilities(instance: Instance, assortment) -> np.ndarray:
    """MNL purchase probabilities over [no-purchase] + assortment items.

    Entry 0 is the no-purchase probability; entry k >= 1 corresponds to
    the k-th item of the assortment.
    """
    idx = _assortment_indices(instance, assortment)
    v = instance.utilities[idx]
    denom = 1.0 + v.sum()
    probs = np.empty(idx.size + 1)
    probs[0] = 1.0 / denom
    probs[1:] = v / denom
    return probs


class PreparedOffer:
    """An assortment validated against one instance, ready to sample from.

    Holds the 0-based item indices and the cumulative utilities in item
    order, so each draw costs one uniform and a binary search.
    """

    __slots__ = ("instance", "indices", "cum_utilities", "_scale")

    def __init__(self, instance: Instance, assortment):
        idx = _assortment_indices(instance, assortment)
        cum = np.cumsum(instance.utilities[idx])
        idx.setflags(write=False)
        cum.setflags(write=False)
        self.instance = instance
        self.indices = idx
        self.cum_utilities = cum
        # 1 + total utility of the offer; None for the empty offer.
        self._scale = float(1.0 + cum[-1]) if idx.size else None

    def sample(self, rng) -> PurchaseOutcome:
        """Draw one purchase decision; advances ``rng`` by exactly one uniform.

        The uniform u picks no purchase when u (1 + sum v) < 1 and otherwise
        the first item whose cumulative utility exceeds u (1 + sum v) - 1.
        """
        u = rng.random()
        if self._scale is None:
            return PurchaseOutcome(0, 0.0)
        scaled = u * self._scale
        if scaled < 1.0:
            return PurchaseOutcome(0, 0.0)
        cum = self.cum_utilities
        pos = int(np.searchsorted(cum, scaled - 1.0, side="right"))
        if pos >= cum.size:  # float edge at the top of the range
            pos = cum.size - 1
        i = self.indices[pos]
        return PurchaseOutcome(int(i) + 1, float(self.instance.revenues[i]))


def sample_purchase(instance: Instance, assortment, rng) -> PurchaseOutcome:
    """Draw one purchase decision; advances ``rng`` by exactly one uniform.

    ``assortment`` is an index sequence or a ``PreparedOffer`` built for
    ``instance``; the latter skips validation and the utility sums.
    """
    if isinstance(assortment, PreparedOffer):
        if assortment.instance is not instance:
            raise ValueError("offer was prepared for a different instance")
        return assortment.sample(rng)
    return PreparedOffer(instance, assortment).sample(rng)


def level_set_from_revenues(revenues, theta: float) -> tuple:
    """Indices (1-based, ascending) of items with revenue >= theta."""
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    r = np.asarray(revenues, dtype=float)
    return tuple((np.flatnonzero(r >= theta) + 1).tolist())


def level_set(instance: Instance, theta: float) -> tuple:
    """The theta-level set: all items whose revenue is >= theta."""
    return level_set_from_revenues(instance.revenues, theta)


def potential(instance: Instance, theta: float) -> float:
    """Revenue potential F(theta): expected revenue of the theta-level set."""
    return expected_revenue(instance, level_set(instance, theta))


class LevelSetOracle:
    """Revenue level sets of one revenue vector, sorted once.

    Holds the stable descending order of the revenues, the sorted revenues,
    the distinct revenues (ascending) as thresholds, and for each threshold
    s the size of its level set {i : r_i >= s}, which is a prefix of the
    descending order. Evaluating every level set under new utilities then
    costs two cumulative sums instead of a sort.
    """

    def __init__(self, revenues):
        r = np.array(revenues, dtype=float)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("revenues must be a nonempty vector")
        _check_revenues(r)
        order = np.argsort(-r, kind="stable")
        r_desc = r[order]
        # Last position of each distinct revenue in the descending order gives
        # the prefix length of its level set.
        distinct_desc, counts = np.unique(-r_desc, return_counts=True)
        thresholds = -distinct_desc[::-1]  # ascending distinct revenues
        prefix_len = np.cumsum(counts)[::-1]  # aligned with thresholds: |{r >= s}|
        for a in (r, order, r_desc, thresholds, prefix_len):
            a.setflags(write=False)
        self.revenues = r
        self.order = order
        self.sorted_revenues = r_desc
        self.thresholds = thresholds
        self.prefix_len = prefix_len

    def values(self, utilities) -> np.ndarray:
        """R({r >= s}) under ``utilities`` for each threshold s (ascending).

        Raises ValueError unless the utilities match the revenues in length
        and are finite and nonnegative.
        """
        v = np.asarray(utilities, dtype=float)
        if v.shape != self.revenues.shape:
            raise ValueError(
                f"length mismatch: {self.revenues.size} revenues vs {v.size} utilities"
            )
        _check_utilities(v)
        v_desc = v[self.order]
        cum_v = np.cumsum(v_desc)
        cum_rv = np.cumsum(self.sorted_revenues * v_desc)
        k = self.prefix_len - 1
        return cum_rv[k] / (1.0 + cum_v[k])

    def best(self, utilities):
        """Best level set under ``utilities`` and its expected revenue.

        Ties are broken toward the smallest level set (largest threshold);
        when no level set earns a positive revenue the empty assortment and
        0.0 are returned.
        """
        values = self.values(utilities)
        # The first maximum of the reversed values is the largest maximizing
        # threshold.
        i = values.size - 1 - int(np.argmax(values[::-1]))
        if not values[i] > 0.0:
            return (), 0.0
        return level_set_from_revenues(self.revenues, self.thresholds[i]), float(values[i])


def build_potential_profile(instance: Instance) -> PotentialProfile:
    """Compute the exact piecewise-constant potential profile in O(N log N).

    Adjacent intervals with equal values (within 1e-12) are merged so that
    consecutive stored values always differ. The fixed point theta* equals
    the maximum value f*.
    """
    levels = LevelSetOracle(instance.revenues)
    s_asc = levels.thresholds
    set_values = levels.values(instance.utilities)
    m = s_asc.shape[0]
    # Raw interval values: c_0 on (-inf, s_1], c_i on (s_i, s_{i+1}], c_m = 0.
    raw_values = [float(set_values[0])]
    raw_values.extend(float(set_values[i]) for i in range(1, m))
    raw_values.append(0.0)
    raw_jumps = [float(s) for s in s_asc]

    jumps: list = []
    values: list = [raw_values[0]]
    for i in range(m):
        if abs(raw_values[i + 1] - values[-1]) > _MERGE_TOL:
            jumps.append(raw_jumps[i])
            values.append(raw_values[i + 1])
    if abs(values[-1]) <= _MERGE_TOL:
        values[-1] = 0.0

    f_star = max(values)
    return PotentialProfile(
        jump_points=tuple(jumps),
        values=tuple(values),
        theta_star=f_star,
        f_star=f_star,
    )


def oracle_optimal(instance: Instance):
    """Best level-set assortment and its expected revenue F* = R(S*).

    Ties are broken toward the smallest level set (largest threshold);
    when F* = 0 the empty assortment is returned.
    """
    return LevelSetOracle(instance.revenues).best(instance.utilities)


def brute_force_optimal(instance: Instance):
    """Exhaustive max of expected revenue over all 2^N subsets.

    Independent of the level-set route; intended as a test oracle.
    Errors for N > BRUTE_FORCE_MAX_ITEMS.
    """
    n = instance.n
    if n > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_MAX_ITEMS} items, got {n}"
        )
    masks = np.arange(2**n, dtype=np.int64)
    membership = (masks[:, None] >> np.arange(n)) & 1
    sum_v = membership @ instance.utilities
    sum_rv = membership @ (instance.revenues * instance.utilities)
    revenue = sum_rv / (1.0 + sum_v)
    best = int(np.argmax(revenue))
    items = tuple(int(i) + 1 for i in range(n) if (best >> i) & 1)
    return items, float(revenue[best])


def kl_purchase_distributions(p0: Instance, p1: Instance, assortment) -> float:
    """Exact KL divergence (natural log) between the purchase distributions.

    Both instances must have the same item count. Raises if some outcome
    has positive probability under ``p0`` but zero under ``p1``.
    """
    if p0.n != p1.n:
        raise ValueError("instances must share the same number of items")
    p = choice_probabilities(p0, assortment)
    q = choice_probabilities(p1, assortment)
    total = 0.0
    for pj, qj in zip(p, q):
        if pj == 0.0:
            continue
        if qj == 0.0:
            raise ValueError("KL undefined: outcome impossible under second instance")
        total += pj * math.log(pj / qj)
    return total


def kl_quadratic_bound(p0: Instance, p1: Instance, assortment) -> float:
    """Quadratic upper bound sum((p_j - q_j)^2 / q_j) on the same KL."""
    if p0.n != p1.n:
        raise ValueError("instances must share the same number of items")
    p = choice_probabilities(p0, assortment)
    q = choice_probabilities(p1, assortment)
    total = 0.0
    for pj, qj in zip(p, q):
        eps = pj - qj
        if eps == 0.0:
            continue
        if qj == 0.0:
            raise ValueError("bound undefined: outcome impossible under second instance")
        total += eps * eps / qj
    return total
