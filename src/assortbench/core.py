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
of purchase outcomes: it may be shared across threads, but equal outcomes
are then not guaranteed to be one object. A level-set oracle is immutable.

A ``PreparedOffer`` is the one MNL purchase distribution: the functions
over assortments delegate to it. Its draw is one uniform and a bisection
over memoryviews, creating no numpy scalar, and it builds each item's
``PurchaseOutcome`` on the item's first purchase only; a run of draws on
one offer is decided in one numpy pass with the same comparisons
(``purchase_revenues``). A ``LevelSetOracle``
sorts a revenue vector once; every level set is a prefix of that order, so
its size names it, and a level-set optimization is one pass over the
prefixes, taking utilities in revenue rank order. ``best_prefix`` is the
one such solve, and it can stop early: past a prefix, no level set is worth
more than the larger of that prefix's value and the next revenue, so a
re-solve reads only the leading ranks it can choose, and a solve given no
start reads them all. ``level_set``'s plain mask stays as the independent
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


def _check_revenues(lowest: float, highest: float) -> None:
    """Check a revenue vector by its extremes, which must carry any NaN:
    ``np.minimum.reduce`` propagates one and numpy sorts one last (the
    builtin ``min`` and ``max`` skip it)."""
    if not (math.isfinite(lowest) and math.isfinite(highest)):
        raise ValueError("revenues must be finite")
    if lowest < 0.0 or highest > 1.0:
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
        _check_revenues(np.minimum.reduce(r), np.maximum.reduce(r))
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
    """The revenue potential as a step function, one step per distinct
    revenue.

    ``jump_points`` are the distinct revenues, ascending. ``values[i]`` is
    the potential on the interval ending (inclusively) at ``jump_points[i]``,
    the value of that revenue's level set; ``values[-1]`` applies beyond the
    last jump point and is 0. Adjacent values may be equal. ``f_star``, the
    maximum value, is the fixed point theta* = F(theta*) and, bit for bit,
    the optimum that ``oracle_optimal`` returns.
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
    strictly increasing; raises InvalidAssortmentError otherwise. Booleans
    are not item ids."""
    idx = np.asarray(assortment)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise InvalidAssortmentError("item ids must be integers in a flat sequence")
    # numpy reads a mix such as (True, 2) as [1, 2]; an array has one dtype.
    if not isinstance(assortment, np.ndarray):
        if any(isinstance(i, (bool, np.bool_)) for i in assortment):
            raise InvalidAssortmentError("item ids must be integers, not booleans")
    if idx.size and (idx[0] < 1 or idx[-1] > n):
        raise InvalidAssortmentError(
            f"item ids out of range [1, {n}]: got {idx.min()}..{idx.max()}"
        )
    if (idx[1:] <= idx[:-1]).any():
        raise InvalidAssortmentError("item ids must be strictly increasing")
    return idx.astype(np.int64, copy=False) - 1


class PreparedOffer:
    """The MNL purchase distribution of one assortment on one instance.

    Holds the 0-based item indices, their utilities and the cumulative
    utilities in item order, so each draw costs one uniform and a binary
    search, and the expected revenue and probabilities gather nothing
    again. The search and the item lookup read memoryviews of these
    arrays, so a draw creates Python ints and floats only. A run of k draws
    whose outcomes are read only as revenues costs one
    ``purchase_revenues`` call: a handful of numpy passes over k uniforms
    instead of k Python-level draws.

    The constructor takes 1-based item ids and validates them
    (``assortment_indices``); ``of_indices`` takes 0-based indices that are
    valid by construction, such as ``LevelSetOracle.prefix_indices``, a
    sorted slice of a permutation of the items, and checks nothing. Both
    fill the offer the same way, so an offer's bits do not depend on its
    path.

    ``outcomes`` maps a 0-based item index to that item's
    ``PurchaseOutcome``, built on its first purchase and returned for every
    later one. Offers of one instance may share one dict, so that each item
    has one outcome object across them; by default an offer keeps its own.
    """

    __slots__ = (
        "instance", "indices", "cum_utilities", "_utilities", "_scale", "_cum", "_items",
        "_revenues", "_last", "_outcomes",
    )

    def __init__(self, instance: Instance, assortment, outcomes=None):
        self._fill(instance, assortment_indices(assortment, instance.n), outcomes)

    @classmethod
    def of_indices(cls, instance: Instance, indices: np.ndarray, outcomes=None) -> PreparedOffer:
        """The offer of ``indices``, a new strictly increasing int64 array
        of 0-based indices below ``instance.n``, taken as it is: the caller
        guarantees all of this, and the offer owns the array from now on."""
        offer = cls.__new__(cls)
        offer._fill(instance, indices, outcomes)
        return offer

    def _fill(self, instance: Instance, idx: np.ndarray, outcomes) -> None:
        v = instance.utilities[idx]
        cum = np.add.accumulate(v)  # the bits of np.cumsum
        for a in (idx, v, cum):
            a.setflags(write=False)
        self.instance = instance
        self.indices = idx
        self.cum_utilities = cum
        self._utilities = v
        # 1 + total utility of the offer (1 for the empty offer).
        self._scale = 1.0 + cum.item(-1) if idx.size else 1.0
        self._cum = memoryview(cum)
        self._items = memoryview(idx)
        self._revenues = memoryview(instance.revenues)
        self._last = idx.size - 1
        self._outcomes = {} if outcomes is None else outcomes

    def expected_revenue(self) -> float:
        """sum(r v) / (1 + sum(v)) over the offer; 0 for the empty offer."""
        v = self._utilities
        return float(np.dot(self.instance.revenues[self.indices], v) / (1.0 + v.sum()))

    def probabilities(self) -> np.ndarray:
        """Purchase probabilities: entry 0 is no purchase, entry k >= 1 the
        k-th item of the offer."""
        v = self._utilities
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

    def purchase_revenues(self, uniforms: np.ndarray) -> np.ndarray:
        """The revenue of the purchase each of ``uniforms`` decides: a new
        float array, 0.0 where there is no purchase.

        Entry j is the revenue of ``sample`` fed ``uniforms[j]``, bit for
        bit: the same products u (1 + sum v) and differences with 1, and
        ``searchsorted(side="right")`` makes the comparisons of
        ``bisect_right``, clipped to the last item as ``sample`` clips.
        """
        scaled = uniforms * self._scale
        if self._last < 0:  # the empty offer: never a purchase
            return np.zeros(scaled.shape)
        pos = self.cum_utilities.searchsorted(scaled - 1.0, side="right")
        np.minimum(pos, self._last, out=pos)
        revenues = self.instance.revenues[self.indices[pos]]
        revenues[scaled < 1.0] = 0.0
        return revenues


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
    the reference for ``LevelSetOracle.level_size``)."""
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
    descending order. A level set is named by that size, a binary search
    away, and evaluating all of them under new utilities costs two running
    sums instead of a sort. ``best_prefix`` is the one level-set solve: it
    runs the same pass over a leading block of ranks and grows the block
    only while a longer prefix might still win. ``ranked_values`` and
    ``best_prefix`` take utilities in rank order (position k of ``order``);
    callers holding them in item order gather with ``order`` first.

    ``prefix_indices`` gives a level set as sorted 0-based indices and
    ``prefix`` as 1-based item ids. The indices are a sorted slice of
    ``order``, a permutation of the items, so they are strictly increasing
    and in range without a check: an episode prepares a size offer from
    them with ``PreparedOffer.of_indices``, skipping the validation that
    item ids from elsewhere go through.
    """

    def __init__(self, revenues):
        r = np.array(revenues, dtype=float)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("revenues must be a nonempty vector")
        order = np.argsort(-r, kind="stable")
        r_desc = r[order]
        _check_revenues(r_desc.item(-1), r_desc.item(0))  # a NaN sorts last
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
        # best_prefix's bound on the values past a block (its docstring).
        n = r.size
        self._slack, self._floor = 1.0 + 8.0 * (n + 8) * 2.0**-53, (n + 8) * 2.0**-1072

    def ranked_values(self, ranked_utilities) -> np.ndarray:
        """R({r >= s}) for each threshold s, largest threshold (smallest
        level set) first, under utilities given in rank order: entry k is
        the utility of item ``order[k]``.

        The level-set kernel over all N ranks; the result is a new array.
        Raises ValueError unless the utilities match the revenues in
        length, are finite and nonnegative, and have a finite total.
        """
        v = np.asarray(ranked_utilities, dtype=float)
        if v.shape != self.revenues.shape:
            raise ValueError(
                f"length mismatch: {self.revenues.size} revenues vs {v.size} utilities"
            )
        return self._leading_values(v, self._ends.size)

    def _leading_values(self, v: np.ndarray, levels: int) -> np.ndarray:
        """The values of the ``levels`` smallest level sets, under the
        utilities ``v`` of the ranks they cover (``v.size`` is the size of
        the last of them): two running sums over the prefixes, their ratio
        formed in place, and a gather at the level-set ends. Running sums
        are sequential, so a value's bits do not depend on how many ranks
        follow it. ``v`` is checked as ``_utility_sums`` checks it.
        """
        cum_v = _utility_sums(v)
        cum_rv = np.multiply(self.sorted_revenues[: v.size], v)
        np.add.accumulate(cum_rv, out=cum_rv)
        cum_v += 1.0
        cum_rv /= cum_v
        # Where every prefix is a level set the gather would only copy.
        return cum_rv[self._ends[:levels]] if levels < v.size else cum_rv

    def level_size(self, theta: float) -> int:
        """Size of the level set {i : r_i >= ``theta``}: that of the smallest
        threshold >= ``theta``, or 0 past the last threshold."""
        _check_theta(theta)
        k = self.thresholds.searchsorted(theta)
        return int(self.prefix_len[k]) if k < self.thresholds.size else 0

    def prefix_indices(self, size: int) -> np.ndarray:
        """The first ``size`` items of ``order`` as a new array of ascending
        0-based int64 indices: a sorted slice of a permutation of the
        items, so strictly increasing and in range by construction."""
        return np.sort(self.order[:size])

    def prefix(self, size: int) -> tuple:
        """``prefix_indices(size)`` as a new tuple of 1-based item ids."""
        return tuple((self.prefix_indices(size) + 1).tolist())

    def best_prefix(self, estimates, start=None):
        """Size of the best level set (a prefix of ``order``) and its
        expected revenue, under utilities in rank order read only as far as
        the answer needs. Ties go to the smallest level set; when none earns
        a positive revenue, size 0 and 0.0 are returned.

        ``estimates(m)`` returns the utilities of ranks [0, m) as a float
        array of length m; m is always the size of a level set. With no
        ``start`` the first block is all N ranks. Otherwise it is the
        smallest nonempty level set of size at least ``start``. The best
        level set within the block is final once no longer prefix can beat
        it; otherwise the block grows to the smallest level set of at least
        twice its size, until it holds all N ranks. A block's values are
        those ``ranked_values`` gives its level sets, bit for bit.

        Why the stop is exact. Let m be the block's size, V its last
        level set's value and r the revenue at rank m, the largest outside
        the block. A prefix of k > m ranks has the exact value
        (1 + S_v(m)) V / (1 + S_v(k)) + sum r_j v_j / (1 + S_v(k)) over
        ranks m <= j < k: a weighted mean of V and of revenues r_j <= r, so
        at most max(V, r). The kernel forms each value from sequential sums
        of at most N nonnegative terms, a +1 and a division, so a computed
        value lies within a relative (2N + 2) 2^-53 of its exact value, plus
        an absolute (N + 2) 2^-1075 where products or quotients are
        subnormal. Going from the computed V to the exact one and from an
        exact later value to its computed one, every computed later value is
        at most max(V, r) (1 + 8 (N + 8) 2^-53) + (N + 8) 2^-1072, the bound
        computed below with the rounding of the bound itself covered by its
        margin. The kernel keeps the first maximum, so a later value equal
        to the best found would not displace it: the block is final when the
        bound is at most that best.

        Only the utilities read are checked, as ``ranked_values`` checks
        them; a caller whose unread utilities might be invalid, or whose
        total might overflow, passes no start.
        """
        ends, n = self._ends, self.revenues.size
        m = n if start is None else min(max(start, 1), n)
        while True:
            levels = m
            if ends.size < n:  # tied revenues: round m up to a level set
                levels = int(ends.searchsorted(m - 1)) + 1
                m = int(ends[levels - 1]) + 1
            v = estimates(m)
            if v.shape != (m,):
                raise ValueError(f"length mismatch: estimates({m}) returned {v.size} utilities")
            values = self._leading_values(v, levels)
            i = int(values.argmax())
            best = values.item(i)
            if m == n:
                break
            bound = max(values.item(-1), self.sorted_revenues.item(m)) * self._slack + self._floor
            if bound <= best:
                break
            m = min(2 * m, n)
        if not best > 0.0:
            return 0, 0.0
        return int(ends[i]) + 1, best


def build_potential_profile(instance: Instance) -> PotentialProfile:
    """The potential profile in O(N log N): the level-set kernel's values
    (``LevelSetOracle.ranked_values``), smallest threshold first, then 0."""
    levels = LevelSetOracle(instance.revenues)
    ranked = levels.ranked_values(instance.utilities[levels.order])
    values = (*ranked[::-1].tolist(), 0.0)
    # The trailing 0.0 is seen first, so a zero optimum is the oracle's +0.0
    # even where a revenue of -0.0 makes a level set worth -0.0.
    return PotentialProfile(
        jump_points=tuple(levels.thresholds.tolist()), values=values, f_star=max(values[::-1])
    )


def oracle_optimal(instance: Instance):
    """Best level-set assortment and its expected revenue F* = R(S*).

    Ties are broken toward the smallest level set (largest threshold);
    when F* = 0 the empty assortment is returned.
    """
    levels = LevelSetOracle(instance.revenues)
    size, value = levels.best_prefix(lambda m: instance.utilities[levels.order[:m]])
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
