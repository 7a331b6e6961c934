"""Assortment-selection policies.

All policies see only the item revenues, the horizon T, and the stream of
purchase outcomes; utilities stay hidden. A policy alternates strictly
between ``next_assortment()`` and ``observe(outcome)`` and emits at most T
assortments.

Included: the trisection policy and its adaptive-confidence variant,
epoch-based UCB and Thompson-sampling baselines, golden-ratio search over
revenue levels, and a static reference policy.
"""

from __future__ import annotations

import math

import numpy as np

from .concentration import adaptive_ci, fixed_ci
from .core import LevelSetOracle, PurchaseOutcome, assortment_indices
from .core import oracle_optimal  # noqa: F401  (perfbench's tracer wraps it by this name)

__all__ = [
    "Policy",
    "PolicyProtocolError",
    "HorizonExhaustedError",
    "TrisectionPolicy",
    "AdaptiveTrisectionPolicy",
    "UcbPolicy",
    "ThompsonPolicy",
    "GoldenRatioSearchPolicy",
    "StaticPolicy",
    "make_policy",
    "POLICY_NAMES",
    "trisection_inner_budget",
    "adaptive_inner_budget",
]


class PolicyProtocolError(RuntimeError):
    """next_assortment/observe were called out of order."""


class HorizonExhaustedError(RuntimeError):
    """The policy already emitted all T assortments."""


def _level_sets(revenues) -> LevelSetOracle:
    """``revenues`` when it is a ``LevelSetOracle``, else one built from it."""
    return revenues if isinstance(revenues, LevelSetOracle) else LevelSetOracle(revenues)


class Policy:
    """Base class driving a decision generator.

    Subclasses implement ``_run()``, an infinite generator that yields
    assortments and receives the corresponding ``PurchaseOutcome`` via
    ``send``; level sets are read off one ``LevelSetOracle``, as its
    ``prefix`` tuples. ``revenues`` is that oracle, or a revenue vector it
    is built from. The generator's frame refers back to the policy, so
    ``observe`` closes it once the T-th outcome is sent: a finished policy
    is freed without a garbage collection, its statistics readable.
    """

    def __init__(self, revenues, horizon: int):
        self._levels = _level_sets(revenues)
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.revenues = self._levels.revenues
        self.horizon = int(horizon)
        self._offers = 0
        self._awaiting_observe = False
        self._level_set_cache: dict = {}
        self._gen = self._run()
        self._pending = next(self._gen)

    # -- protocol ---------------------------------------------------------

    def next_assortment(self) -> tuple:
        if self._awaiting_observe:
            raise PolicyProtocolError("observe() must be called before the next offer")
        if self._offers >= self.horizon:
            raise HorizonExhaustedError(f"all {self.horizon} offers already emitted")
        self._offers += 1
        self._awaiting_observe = True
        return self._pending

    def observe(self, outcome: PurchaseOutcome) -> None:
        if not self._awaiting_observe:
            raise PolicyProtocolError("observe() without a preceding next_assortment()")
        self._awaiting_observe = False
        self._pending = self._gen.send(outcome)
        if self._offers == self.horizon:  # no offer can follow
            self._gen.close()

    # -- helpers ----------------------------------------------------------

    def _level_set(self, theta: float) -> tuple:
        cached = self._level_set_cache.get(theta)
        if cached is None:
            cached = self._levels.level_set(theta)
            self._level_set_cache[theta] = cached
        return cached

    def _run(self):
        raise NotImplementedError


def trisection_inner_budget(gap: float, horizon: int) -> int:
    """Inner-iteration count 16 * ceil(gap^-2 * ln(T^2)), at least 1.

    The floor applies where ln(T^2) <= 0, as at T = 1: an epoch without an
    inner iteration would loop without ever yielding an offer.
    """
    if gap <= 0.0:
        raise ValueError("gap must be positive")
    return max(1, 16 * math.ceil(gap**-2 * 2.0 * math.log(horizon)))


def adaptive_inner_budget(gap: float, horizon: int) -> int:
    """Inner-iteration count 8 * ceil(gap^-2 * ln(8 T gap^2)), at least 1."""
    if gap <= 0.0:
        raise ValueError("gap must be positive")
    arg = 8.0 * horizon * gap * gap
    if arg <= 1.0:
        return 1
    return max(1, 8 * math.ceil(gap**-2 * math.log(arg)))


class TrisectionPolicy(Policy):
    """Trisection over revenue levels with fixed-level confidence intervals.

    Keeps an interval [a, b] containing the potential fixed point. Each
    epoch probes the right trisection point y = (a + 2b)/3 with a level-set
    assortment until the interval around its mean revenue excludes y, while
    exploiting the left endpoint a in every inner iteration; the interval
    then shrinks to two thirds of its length. Confidence level is 1/T^2.

    ``interval_history`` records (a, b) at the start of every epoch.
    """

    def __init__(self, revenues, horizon):
        self.interval_history: list = []
        super().__init__(revenues, horizon)

    def _inner_budget(self, gap: float) -> int:
        return trisection_inner_budget(gap, self.horizon)

    def _make_ci(self, total: float, count: int):
        return fixed_ci(total, count, 1.0 / self.horizon**2)

    def _run(self):
        a, b = 0.0, 1.0
        while True:
            self.interval_history.append((a, b))
            x = (2.0 * a + b) / 3.0
            y = (a + 2.0 * b) / 3.0
            budget = self._inner_budget(y - x)
            explore_set = self._level_set(y)
            exploit_set = self._level_set(a)
            total, count = 0.0, 0
            lower, upper = 0.0, 1.0
            for _ in range(budget):
                if lower <= y <= upper:
                    outcome = yield explore_set
                    total += outcome.revenue
                    count += 1
                    lower, upper = self._make_ci(total, count)
                yield exploit_set
            if upper < y:
                b = y
            else:
                a = x


class AdaptiveTrisectionPolicy(TrisectionPolicy):
    """Trisection with adaptive-level confidence intervals (delta = 1/T).

    Inner-iteration budgets shrink to 8 * ceil(gap^-2 ln(8 T gap^2)) and the
    interval half-width is sqrt(ci_scale * ln(8/(delta t)) / t). ``ci_scale``
    defaults to the theoretical value 2; 0.1 is the empirically tuned option.
    """

    def __init__(self, revenues, horizon, *, ci_scale: float = 2.0):
        self.ci_scale = float(ci_scale)
        if not (self.ci_scale > 0.0 and math.isfinite(self.ci_scale)):
            raise ValueError("ci_scale must be positive and finite")
        super().__init__(revenues, horizon)

    def _inner_budget(self, gap: float) -> int:
        return adaptive_inner_budget(gap, self.horizon)

    def _make_ci(self, total: float, count: int):
        return adaptive_ci(total, count, 1.0 / self.horizon, self.ci_scale)


class _EpochEstimatorPolicy(Policy):
    """Shared epoch structure for the UCB and Thompson baselines.

    The current assortment is offered repeatedly until a no-purchase
    outcome closes the epoch; per-epoch purchase counts are unbiased
    estimates of the item utilities. The first epoch offers every item, so
    each later epoch sees every item tried and re-solves its offer from the
    estimates alone.

    Every offer is a prefix of the oracle's revenue order, so the statistics
    are kept by revenue rank: closing an epoch adds 1 to the first
    ``len(offer)`` epoch counts, and estimates built from them are already
    in the order the oracle's kernel takes. ``epoch_counts`` and
    ``purchase_totals`` give them in item order.
    """

    def _pick_assortment(self):
        """The next epoch's offer, as ``_plug_in_optimum`` returns it."""
        raise NotImplementedError

    @property
    def epoch_counts(self) -> np.ndarray:
        """Epochs in which item i was offered (a new array, item order)."""
        return self._counts[self._rank]

    @property
    def purchase_totals(self) -> np.ndarray:
        """Purchases of item i across those epochs (a new array, item order)."""
        return self._totals[self._rank]

    def _run(self):
        n = self.revenues.size
        # The inverse of the revenue order: item i sits at position rank[i].
        self._rank = np.argsort(self._levels.order)
        rank = self._rank.tolist()
        assortment = self._levels.prefix(n)
        self._counts = counts = np.zeros(n)  # by rank: epochs offering the item
        self._totals = totals = np.zeros(n)  # by rank: purchases in those epochs
        self.epochs_closed = 0
        while True:
            bought = []  # 0-based items purchased in this epoch
            while True:
                outcome = yield assortment
                if outcome.item == 0:
                    break
                bought.append(outcome.item - 1)
            counts[: len(assortment)] += 1.0
            for i in bought:  # integer-valued floats: exact in any order
                totals[rank[i]] += 1.0
            self.epochs_closed += 1
            assortment = self._pick_assortment()

    def _plug_in_optimum(self, ranked_utilities: np.ndarray) -> tuple:
        """Level-set optimum under estimated utilities, given in rank order:
        the oracle's ``prefix`` of the length ``best_ranked_prefix`` gives."""
        return self._levels.prefix(self._levels.best_ranked_prefix(ranked_utilities)[0])


class UcbPolicy(_EpochEstimatorPolicy):
    """Epoch-based UCB over item utilities with level-set reoptimization.

    Optimistic index: vbar + c1 sqrt(vbar ln(sqrt(N) l + 1) / T_i)
    + c2 ln(sqrt(N) l + 1) / T_i, where T_i counts epochs containing item i
    and l is the current epoch number, with Agrawal et al.'s constants
    c1 = sqrt(48) and c2 = 48.
    """

    C1 = math.sqrt(48.0)
    C2 = 48.0

    def __init__(self, revenues, horizon):
        super().__init__(revenues, horizon)
        self._ucb, self._vbar = np.empty(self.revenues.size), np.empty(self.revenues.size)

    def _index(self) -> np.ndarray:
        """The optimistic index by rank, in a buffer the next call reuses.

        The first epoch offered every item, so every count is at least 1.
        The operations are the formula's, in its left-to-right order.
        """
        t_i, ucb = self._counts, self._ucb
        log_term = math.log(math.sqrt(self.revenues.size) * (self.epochs_closed + 1) + 1.0)
        vbar = np.divide(self._totals, t_i, out=self._vbar)
        np.multiply(vbar, log_term, out=ucb)
        ucb /= t_i
        np.sqrt(ucb, out=ucb)
        ucb *= self.C1
        ucb += vbar
        ucb += np.divide(self.C2 * log_term, t_i, out=vbar)
        return ucb

    def _pick_assortment(self):
        return self._plug_in_optimum(self._index())


class ThompsonPolicy(_EpochEstimatorPolicy):
    """Epoch-based Thompson sampling over item utilities.

    For item i with n_i closed epochs and V_i total purchases, sample
    B ~ Beta(n_i, V_i + 1) — the posterior of the epoch-stopping
    probability 1/(1 + v_i) — and use 1/B - 1 as the utility. The first
    epoch offers every item, so every later draw has n_i >= 1. The draws
    are made in item order, which fixes the random stream.
    """

    def __init__(self, revenues, horizon, *, rng=None):
        self.rng = rng if rng is not None else np.random.default_rng()
        super().__init__(revenues, horizon)

    def _pick_assortment(self):
        beta = self.rng.beta(self.epoch_counts, self.purchase_totals + 1.0)
        sampled = beta[self._levels.order]
        np.maximum(sampled, 1e-12, out=sampled)
        np.divide(1.0, sampled, out=sampled)
        sampled -= 1.0
        return self._plug_in_optimum(sampled)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class GoldenRatioSearchPolicy(Policy):
    """Golden-section search over revenue levels.

    Each probe level is explored for ceil(sqrt(T)) periods with its level
    set; empirical means decide which bracket endpoint is dropped. Once the
    bracket collapses below 1/sqrt(T), the best probe so far is exploited
    for the remaining horizon.
    """

    def _probe(self, theta: float):
        assortment = self._level_set(theta)
        count = math.ceil(math.sqrt(self.horizon))
        total = 0.0
        for _ in range(count):
            outcome = yield assortment
            total += outcome.revenue
        return total / count

    def _run(self):
        lo, hi = 0.0, 1.0
        collapse = 1.0 / math.sqrt(self.horizon)
        left = hi - _GOLDEN * (hi - lo)
        right = lo + _GOLDEN * (hi - lo)
        left_mean = yield from self._probe(left)
        right_mean = yield from self._probe(right)
        best_theta, best_mean = (
            (left, left_mean) if left_mean >= right_mean else (right, right_mean)
        )
        while hi - lo >= collapse:
            if left_mean < right_mean:
                lo = left
                left, left_mean = right, right_mean
                right = lo + _GOLDEN * (hi - lo)
                right_mean = yield from self._probe(right)
                candidate = (right, right_mean)
            else:
                hi = right
                right, right_mean = left, left_mean
                left = hi - _GOLDEN * (hi - lo)
                left_mean = yield from self._probe(left)
                candidate = (left, left_mean)
            if candidate[1] > best_mean:
                best_theta, best_mean = candidate
        incumbent = self._level_set(best_theta)
        while True:
            yield incumbent


class StaticPolicy(Policy):
    """Always offers one fixed assortment (reference policy)."""

    def __init__(self, revenues, horizon, assortment):
        levels = _level_sets(revenues)
        items = tuple(assortment)
        # numpy would read (True, 2) as [1, 2].
        if any(isinstance(i, (bool, np.bool_)) for i in items):
            raise ValueError("item ids must be integers, not booleans")
        idx = assortment_indices(items, levels.revenues.size)
        self.assortment = tuple((idx + 1).tolist())
        super().__init__(levels, horizon)

    def _run(self):
        while True:
            yield self.assortment


_POLICY_CLASSES = {
    "trisection": TrisectionPolicy,
    "adaptive-trisection": AdaptiveTrisectionPolicy,
    "ucb": UcbPolicy,
    "thompson": ThompsonPolicy,
    "grs": GoldenRatioSearchPolicy,
    "static": StaticPolicy,
}
POLICY_NAMES = tuple(_POLICY_CLASSES)


def make_policy(name: str, revenues, horizon: int, *, rng=None, params=None) -> Policy:
    """Build a policy by name with an optional parameter map.

    ``revenues`` is a revenue vector or a ``LevelSetOracle`` over one; the
    policy reads its level sets off a given oracle instead of sorting again.

    Raises ValueError for an unknown name or a parameter value the policy
    rejects, and TypeError for a parameter the policy does not take.
    """
    cls = _POLICY_CLASSES.get(name)
    if cls is None:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    params = dict(params or {})
    if cls is ThompsonPolicy:
        return cls(revenues, horizon, rng=rng, **params)
    if cls is StaticPolicy and "assortment" not in params:
        raise ValueError("static policy requires an 'assortment' parameter")
    return cls(revenues, horizon, **params)
