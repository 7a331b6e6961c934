"""Uncapacitated multinomial-logit (MNL) assortment primitives.

An instance pairs item revenues with item utilities; the no-purchase
utility is fixed at 1 and never stored. Expected revenue, purchase
sampling, revenue level sets, and the piecewise-constant revenue
potential all live here. The potential's maximum f* is also its fixed
point theta* = F(theta*), and it identifies the optimal revenue-ordered
assortment; ``assortbench.properties`` checks this and the potential's
other structural properties.

Assortments are strictly increasing sequences of integer 1-based item ids.
Instances and potential profiles are immutable after construction and safe
to share across threads; only the caller-owned uniform source (anything
whose ``random()`` returns the next uniform, such as a numpy ``Generator``)
is advanced by sampling. A prepared offer is immutable apart from its memo
of purchase outcomes, and a level-set oracle apart from its memo of
prefixes: either may be shared across threads, but equal outcomes or
offers are then not guaranteed to be one object.

A ``PreparedOffer`` is the one MNL purchase distribution: the functions
over assortments delegate to it. Its draw is one uniform and a bisection
over memoryviews, creating no numpy scalar, and it builds each item's
``PurchaseOutcome`` on the item's first purchase only. A ``LevelSetOracle``
sorts a revenue vector once; every level set is a prefix of that order,
built into a tuple once per size by ``prefix``, and a level-set
optimization is one pass over the prefixes, taking utilities in item or
revenue rank order. ``level_set``'s plain mask stays as the independent
reference.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Instance",
    "PurchaseOutcome",
    "PreparedOffer",
    "LevelSetOracle",
    "PotentialProfile",
    "InvalidAssortmentError",
    "assortment_indices",
    "expected_revenue",
    "choice_probabilities",
    "sample_purchase",
    "level_set",
    "potential",
    "build_potential_profile",
    "oracle_optimal",
    "brute_force_optimal",
    "kl_purchase_distributions",
    "BRUTE_FORCE_MAX_ITEMS",
]

# Guard against 2^N blow-up in exhaustive subset enumeration.
BRUTE_FORCE_MAX_ITEMS = 20

# Absolute tolerance for merging equal-valued potential plateaus.
_MERGE_TOL = 1e-12


class InvalidAssortmentError(ValueError):
    """Assortment item ids are not integers, out of range, duplicated, or
    unsorted."""


@dataclass(frozen=True)
class PurchaseOutcome:
    """One customer decision: purchased item (0 = no purchase) and its revenue."""

    item: int
    revenue: float


# Every no-purchase draw returns this one outcome; the class is frozen.
_NO_PURCHASE = PurchaseOutcome(0, 0.0)


def _check_revenues(r: np.ndarray) -> None:
    if not np.all(np.isfinite(r)):
        raise ValueError("revenues must be finite")
    if np.any(r < 0.0) or np.any(r > 1.0):
        raise ValueError("revenues must lie in [0, 1]")


def _check_theta(theta: float) -> None:
    if not theta >= 0.0:  # also rejects NaN
        raise ValueError("theta must be nonnegative")


@np.errstate(over="ignore")  # per call, a decorator costs less than `with`
def _utility_sums(v: np.ndarray) -> np.ndarray:
    """Running sums of the utilities ``v`` (sequential, the bits of
    ``cumsum``), once they are checked: finite, nonnegative, and with a
    finite total 1 + sum(v).

    A NaN makes the minimum NaN, and with no NaN or -inf an infinite
    utility makes the last running sum infinite, so two reductions check
    everything; an overflowing total raises instead of warning.
    """
    lo = np.minimum.reduce(v)
    if not math.isfinite(lo):
        raise ValueError("utilities must be finite")
    sums = np.add.accumulate(v)
    if not math.isfinite(sums[-1]):
        if np.isinf(v).any():
            raise ValueError("utilities must be finite")
        raise ValueError("total utility 1 + sum(v) must be finite")
    if lo < 0.0:
        raise ValueError("utilities must be nonnegative")
    return sums


class Instance:
    """One MNL environment: revenues in [0, 1] and nonnegative utilities
    whose total 1 + sum(v) is finite.

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
        _utility_sums(v)  # every revenue formula divides by 1 + sum(v)
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


@dataclass(frozen=True)
class PotentialProfile:
    """Exact piecewise-constant representation of the revenue potential.

    ``values[i]`` is the potential on the interval ending (inclusively) at
    ``jump_points[i]``; ``values[-1]`` applies beyond the last jump point
    and is always 0. Consecutive values differ, and ``f_star``, the maximum
    value, is also the fixed point theta* = F(theta*).
    """

    jump_points: tuple
    values: tuple
    f_star: float

    def value_at(self, theta: float) -> float:
        """Potential at ``theta`` (left-continuous)."""
        _check_theta(theta)
        return self.values[bisect_left(self.jump_points, theta)]


def assortment_indices(assortment, n: int) -> np.ndarray:
    """0-based int64 indices of a flat sequence of integer item ids in [1, n],
    strictly increasing; raises InvalidAssortmentError otherwise. numpy reads
    a mix such as ``(True, 2)`` as the integers ``[1, 2]``."""
    idx = np.asarray(assortment)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise InvalidAssortmentError("item ids must be integers in a flat sequence")
    if idx.size and (idx[0] < 1 or idx[-1] > n):
        raise InvalidAssortmentError(
            f"item ids out of range [1, {n}]: got {idx.min()}..{idx.max()}"
        )
    if (idx[1:] <= idx[:-1]).any():
        raise InvalidAssortmentError("item ids must be strictly increasing")
    return idx.astype(np.int64, copy=False) - 1


class PreparedOffer:
    """The MNL purchase distribution of one assortment on one instance.

    Validates the assortment once and holds the 0-based item indices and
    the cumulative utilities in item order, so each draw costs one uniform
    and a binary search. The search and the item lookup read memoryviews
    of these arrays, so a draw creates Python ints and floats only.

    ``outcomes`` maps a 0-based item index to that item's
    ``PurchaseOutcome``, built on its first purchase and returned for every
    later one. Offers of one instance may share one dict, so that each item
    has one outcome object across them; by default an offer keeps its own.
    """

    __slots__ = (
        "instance", "indices", "cum_utilities", "_scale", "_cum", "_items", "_revenues", "_last",
        "_outcomes",
    )

    def __init__(self, instance: Instance, assortment, outcomes=None):
        idx = assortment_indices(assortment, instance.n)
        cum = np.cumsum(instance.utilities[idx])
        idx.setflags(write=False)
        cum.setflags(write=False)
        self.instance = instance
        self.indices = idx
        self.cum_utilities = cum
        # 1 + total utility of the offer (1 for the empty offer).
        self._scale = float(1.0 + cum[-1]) if idx.size else 1.0
        self._cum = memoryview(cum)
        self._items = memoryview(idx)
        self._revenues = memoryview(instance.revenues)
        self._last = idx.size - 1
        self._outcomes = {} if outcomes is None else outcomes

    def expected_revenue(self) -> float:
        """sum(r v) / (1 + sum(v)) over the offer; 0 for the empty offer."""
        v = self.instance.utilities[self.indices]
        return float(np.dot(self.instance.revenues[self.indices], v) / (1.0 + v.sum()))

    def probabilities(self) -> np.ndarray:
        """Purchase probabilities: entry 0 is no purchase, entry k >= 1 the
        k-th item of the offer."""
        v = self.instance.utilities[self.indices]
        return np.concatenate(([1.0], v)) / (1.0 + v.sum())

    def sample(self, rng) -> PurchaseOutcome:
        """Draw one purchase decision; advances ``rng`` by exactly one uniform.

        ``rng`` is anything whose ``random()`` returns the next uniform in
        [0, 1), such as a numpy ``Generator``. The uniform u picks no
        purchase when u (1 + sum v) < 1 and otherwise the first item whose
        cumulative utility exceeds u (1 + sum v) - 1 (``bisect_right``
        makes the comparisons of ``searchsorted(side="right")``).
        """
        scaled = rng.random() * self._scale
        if scaled < 1.0:
            return _NO_PURCHASE
        pos = bisect_right(self._cum, scaled - 1.0)
        if pos > self._last:  # float edge at the top of the range
            pos = self._last
        i = self._items[pos]
        outcome = self._outcomes.get(i)
        if outcome is None:
            outcome = self._outcomes[i] = PurchaseOutcome(i + 1, self._revenues[i])
        return outcome


def _prepared(instance: Instance, assortment) -> PreparedOffer:
    """An index sequence prepared, or a ``PreparedOffer`` of ``instance``."""
    if not isinstance(assortment, PreparedOffer):
        return PreparedOffer(instance, assortment)
    if assortment.instance is not instance:
        raise ValueError("offer was prepared for a different instance")
    return assortment


def expected_revenue(instance: Instance, assortment) -> float:
    """Expected revenue of offering ``assortment``: sum(r v) / (1 + sum(v)).

    ``assortment`` is an index sequence or a ``PreparedOffer`` built for
    ``instance``; the latter skips validation. The empty assortment yields 0.
    """
    return _prepared(instance, assortment).expected_revenue()


def choice_probabilities(instance: Instance, assortment) -> np.ndarray:
    """MNL purchase probabilities over [no-purchase] + assortment items."""
    return _prepared(instance, assortment).probabilities()


def sample_purchase(instance: Instance, assortment, rng) -> PurchaseOutcome:
    """Draw one purchase decision; advances ``rng`` by exactly one uniform.

    ``assortment`` is an index sequence or a ``PreparedOffer`` built for
    ``instance``; the latter skips validation and the utility sums. ``rng``
    is anything whose ``random()`` returns the next uniform.
    """
    return _prepared(instance, assortment).sample(rng)


def level_set(instance: Instance, theta: float) -> tuple:
    """The theta-level set: all items whose revenue is >= theta (a mask,
    the reference for ``LevelSetOracle.level_set``)."""
    _check_theta(theta)
    return tuple((np.flatnonzero(instance.revenues >= theta) + 1).tolist())


def potential(instance: Instance, theta: float) -> float:
    """Revenue potential F(theta): expected revenue of the theta-level set."""
    return expected_revenue(instance, level_set(instance, theta))


class LevelSetOracle:
    """Revenue level sets of one revenue vector, sorted once.

    Holds the stable descending order of the revenues, the sorted revenues,
    the distinct revenues (ascending) as thresholds, and for each threshold
    s the size of its level set {i : r_i >= s}, which is a prefix of the
    descending order. One level set is then a binary search away, and
    evaluating all of them under new utilities costs two running sums
    instead of a sort; the best is read off the same pass. Callers that
    keep utilities in rank order (position k of ``order``) call the
    ``ranked_`` methods; the others gather into rank order first.
    """

    def __init__(self, revenues):
        r = np.array(revenues, dtype=float)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("revenues must be a nonempty vector")
        _check_revenues(r)
        order = np.argsort(-r, kind="stable")
        r_desc = r[order]
        # Last prefix position of each level set, largest threshold first: the
        # last position of each distinct revenue in the descending order.
        ends = np.flatnonzero(np.append(r_desc[1:] != r_desc[:-1], True))
        thresholds = r_desc[ends][::-1]  # ascending distinct revenues
        prefix_len = (ends + 1)[::-1]  # aligned with thresholds: |{r >= s}|
        for a in (r, order, r_desc, thresholds, prefix_len, ends):
            a.setflags(write=False)
        self.revenues = r
        self.order = order
        self.sorted_revenues = r_desc
        self.thresholds = thresholds
        self.prefix_len = prefix_len
        self._ends = ends
        self._prefixes: dict = {}  # size -> the tuple ``prefix`` returns

    def _vector(self, utilities) -> np.ndarray:
        """``utilities`` as a float array, checked to match the revenues."""
        v = np.asarray(utilities, dtype=float)
        if v.shape != self.revenues.shape:
            raise ValueError(
                f"length mismatch: {self.revenues.size} revenues vs {v.size} utilities"
            )
        return v

    def ranked_values(self, ranked_utilities) -> np.ndarray:
        """R({r >= s}) for each threshold s, largest threshold (smallest
        level set) first, under utilities given in rank order: entry k is
        the utility of item ``order[k]``.

        The one level-set kernel behind every method below: two running
        sums over the prefixes, their ratio formed in place, and a gather at
        the level-set ends; the result is a new array. Raises ValueError
        unless the utilities match the revenues in length, are finite and
        nonnegative, and have a finite total.
        """
        v = self._vector(ranked_utilities)
        cum_v = _utility_sums(v)
        cum_rv = np.multiply(self.sorted_revenues, v)
        np.add.accumulate(cum_rv, out=cum_rv)
        cum_v += 1.0
        cum_rv /= cum_v
        # With distinct revenues every prefix is a level set, and the gather
        # would only copy.
        return cum_rv[self._ends] if self._ends.size < cum_rv.size else cum_rv

    def values(self, utilities) -> np.ndarray:
        """R({r >= s}) under ``utilities`` for each threshold s (ascending);
        see ``ranked_values`` for the checks."""
        return self.ranked_values(self._vector(utilities)[self.order])[::-1]

    def prefix(self, size: int) -> tuple:
        """The first ``size`` items of ``order`` as ascending 1-based item
        ids. Each size is built once: every call with it returns one tuple."""
        offer = self._prefixes.get(size)
        if offer is None:
            offer = self._prefixes[size] = tuple((np.sort(self.order[:size]) + 1).tolist())
        return offer

    def prefix_items(self, offer):
        """The items of ``offer`` as an ascending array of 1-based ids, read
        off the sort, when ``offer`` is one of the tuples ``prefix`` has
        returned (matched by identity, so no tuple is built or hashed);
        otherwise None."""
        size = len(offer)
        if self._prefixes.get(size) is not offer:
            return None
        return np.sort(self.order[:size]) + 1

    def level_set(self, theta: float) -> tuple:
        """Items (1-based, ascending) whose revenue is >= ``theta``, as the
        ``prefix`` of that size."""
        _check_theta(theta)
        return self.prefix(int((-self.sorted_revenues).searchsorted(-theta, side="right")))

    def best_ranked_prefix(self, ranked_utilities):
        """Size of the best level set (a prefix of ``order``) and its
        expected revenue, under utilities in rank order as ``ranked_values``
        takes them. Ties go to the smallest level set; when none earns a
        positive revenue, size 0 and 0.0 are returned."""
        values = self.ranked_values(ranked_utilities)
        # The first maximum is the smallest maximizing level set.
        i = int(values.argmax())
        value = values[i]
        if not value > 0.0:
            return 0, 0.0
        return int(self._ends[i]) + 1, float(value)


def build_potential_profile(instance: Instance) -> PotentialProfile:
    """Compute the exact piecewise-constant potential profile in O(N log N).

    Adjacent intervals with equal values (within 1e-12) are merged so that
    consecutive stored values always differ. The fixed point theta* equals
    the maximum value f*.
    """
    levels = LevelSetOracle(instance.revenues)
    # Raw interval values: c_0 on (-inf, s_1], c_i on (s_i, s_{i+1}], c_m = 0.
    raw_values = levels.values(instance.utilities).tolist() + [0.0]
    jumps: list = []
    values: list = [raw_values[0]]
    for jump, value in zip(levels.thresholds.tolist(), raw_values[1:]):
        if abs(value - values[-1]) > _MERGE_TOL:
            jumps.append(jump)
            values.append(value)
    if abs(values[-1]) <= _MERGE_TOL:
        values[-1] = 0.0

    f_star = max(values)
    return PotentialProfile(
        jump_points=tuple(jumps),
        values=tuple(values),
        f_star=f_star,
    )


def oracle_optimal(instance: Instance):
    """Best level-set assortment and its expected revenue F* = R(S*).

    Ties are broken toward the smallest level set (largest threshold);
    when F* = 0 the empty assortment is returned.
    """
    levels = LevelSetOracle(instance.revenues)
    size, value = levels.best_ranked_prefix(instance.utilities[levels.order])
    return levels.prefix(size), value


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
