"""Assortment-selection policies.

All policies see only the item revenues, the horizon T and what their
offers earn; utilities stay hidden. A policy alternates strictly between
``next_offer`` and ``observe``/``observe_run`` and emits at most T offers.
An offer is a level-set size of the policy's ``LevelSetOracle`` (every
policy here but ``static``) or a tuple of item ids; ``next_assortment()``
returns either as a tuple of item ids.

UCB and Thompson read each purchase outcome. Trisection, its adaptive
variant, grs and static hold every offer as a run of periods (``Policy``)
and read it only as its summed revenue: a trisection explore period, or an
exploit period between probes, is a one-period run; the rest of an epoch's
budget once its interval excludes the probe level, each golden-section
probe, grs's final incumbent and the static offer are longer ones.

Included: the trisection policy and its adaptive-confidence variant,
epoch-based UCB and Thompson-sampling baselines, golden-ratio search over
revenue levels, and a static reference policy.
"""

from __future__ import annotations

import math
import numbers

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
    """next_offer/observe were called out of order."""


class HorizonExhaustedError(RuntimeError):
    """The policy already emitted all T offers."""


def _level_sets(revenues) -> LevelSetOracle:
    """``revenues`` when it is a ``LevelSetOracle``, else one built from it."""
    return revenues if isinstance(revenues, LevelSetOracle) else LevelSetOracle(revenues)


class Policy:
    """Base class driving a decision generator.

    Subclasses implement ``_run()``, an infinite generator that yields an
    offer and receives its ``PurchaseOutcome`` via ``send`` (UCB and
    Thompson), or yields an offer held as a run (``_hold``: every other
    policy) and receives the run's summed revenue; level sets are read off
    one ``LevelSetOracle`` and offered as their sizes. ``revenues`` is that
    oracle, or a revenue vector it is built from. The generator's frame
    refers back to the policy, so the policy closes it once the T-th period
    is observed, or on ``close`` if dropped before its last offer: a
    finished policy is freed without a garbage collection, its statistics
    readable.

    ``held`` is the number of periods the next offer is held for: 1 for an
    offer, and for a run the periods it still holds (the horizon may end it
    sooner). ``next_offer()``/``observe`` hand over and observe one period,
    of an offer or of a run; ``next_offer(k)``/``observe_run`` hand over k
    of the periods a run still holds at once, and observe them by their
    revenues alone. The generator is resumed once per run, however its
    periods were served.
    """

    def __init__(self, revenues, horizon: int):
        self._levels = _level_sets(revenues)
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.revenues = self._levels.revenues
        self.horizon = int(horizon)
        self._offers = 0  # periods handed over
        self._awaiting = 0  # periods handed over and not yet observed
        self.held, self._total = 1, None  # an offer: one period, no sum
        self._gen = self._run()
        self._offer = next(self._gen)

    # -- protocol ---------------------------------------------------------

    def next_offer(self, periods: int = 1):
        """The next offer, a level-set size or a tuple of item ids, handed
        over for ``periods`` periods: 1, or up to all the periods a run
        still holds within the horizon. They are observed with ``observe``
        when ``periods`` is 1, or otherwise with ``observe_run``."""
        if self._awaiting:
            raise PolicyProtocolError("observe() must be called before the next offer")
        if self._offers >= self.horizon:
            raise HorizonExhaustedError(f"all {self.horizon} offers already emitted")
        if periods != 1:
            most = min(self.held, self.horizon - self._offers)
            if type(periods) is not int or not 1 <= periods <= most:
                raise ValueError(f"the next offer holds 1 to {most} periods, got {periods!r}")
        self._offers += periods
        self._awaiting = periods
        return self._offer

    def next_assortment(self) -> tuple:
        """The next offer as a tuple of 1-based item ids."""
        offer = self.next_offer()
        return self._levels.prefix(offer) if isinstance(offer, int) else offer

    def observe(self, outcome: PurchaseOutcome) -> None:
        """Observe the one period handed over."""
        if self._awaiting != 1:
            raise PolicyProtocolError("observe() without a preceding next_offer()")
        self._awaiting = 0
        if self._total is None:  # an offer: the generator reads its outcome
            self._offer = self._gen.send(outcome)
            if self._offers == self.horizon:  # no offer can follow
                self.close()
        else:
            self._total += outcome.revenue
            self._observed(1)

    def observe_run(self, revenues) -> None:
        """Observe the periods of a run handed over by ``next_offer(k)``:
        ``revenues`` holds the revenue of each, in order, and is folded
        into the run's sum left to right."""
        if self._total is None or not 0 < len(revenues) == self._awaiting:
            raise PolicyProtocolError(
                "observe_run() must observe all the periods of a run handed over"
            )
        self._awaiting = 0
        # np.add.accumulate adds in sequence: the bits of `total += r`.
        self._total = float(np.add.accumulate(np.concatenate(([self._total], revenues)))[-1])
        self._observed(len(revenues))

    def close(self) -> None:
        """End the decision generator, breaking its reference cycle with
        the policy; no offer can follow, and the statistics stay readable."""
        self._gen.close()

    # -- helpers ----------------------------------------------------------

    def _hold(self, offer, periods: int):
        """Hold ``offer`` for a run of ``periods`` periods (at least 1) whose
        outcomes ``_run`` does not read one by one, and return it for
        ``_run`` to yield. The generator is resumed once, after the last of
        them, with their summed revenue as a left fold from 0.0 (the bits
        of ``total += outcome.revenue``), or not at all if the horizon ends
        first."""
        if not periods >= 1:
            raise ValueError(f"a run holds at least one period, got {periods!r}")
        self.held, self._total = periods, 0.0
        return offer

    def _observed(self, periods: int) -> None:
        """``periods`` of the run observed: resume the generator with its
        sum once the run is over; close it at the horizon."""
        self.held -= periods
        if not self.held:
            total = self._total
            self.held, self._total = 1, None  # until the generator holds a run again
            self._offer = self._gen.send(total)
        if self._offers == self.horizon:
            self.close()

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
    Each explore period, and each exploit period until y is excluded, is a
    one-period run; the epoch's remaining inner iterations then exploit a
    as one run, so only summed revenues are read.

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
            explore = self._levels.level_size(y)
            exploit = self._levels.level_size(a)
            total, count = 0.0, 0
            # Each iteration explores, then exploits. Once the interval
            # excludes y (never before the first explore: y lies in [0, 1]),
            # the rest of the budget exploits as one run.
            for i in range(budget):
                total += yield self._hold(explore, 1)
                count += 1
                lower, upper = self._make_ci(total, count)
                if not lower <= y <= upper:
                    yield self._hold(exploit, budget - i)
                    break
                yield self._hold(exploit, 1)
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
        if isinstance(ci_scale, bool) or not isinstance(ci_scale, numbers.Real):
            raise ValueError(f"ci_scale must be a number, got {ci_scale!r}")
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
    are kept by revenue rank: closing an epoch adds 1 to the first ``size``
    epoch counts, and estimates built from them are already in the order
    the oracle's kernel takes. ``epoch_counts`` and ``purchase_totals``
    give them in item order. Each later epoch offers the best level set
    under ``_estimates()``, which the oracle's ``best_prefix`` reads only as
    far as the ranks it can choose, starting from twice the last offer's
    size. The estimates are finite and nonnegative by construction, so the
    ranks left unread hold nothing a solve over all N would reject. UCB
    forms its index only on the ranks read; Thompson converts all N draws
    once, as its re-solves read most of them.
    """

    def _estimates(self):
        """The next epoch's estimated utilities: a function of m returning
        those of revenue ranks [0, m)."""
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
        n = size = self.revenues.size  # the first epoch offers every item
        # The inverse of the revenue order: item i sits at position rank[i].
        self._rank = np.argsort(self._levels.order)
        rank = self._rank.tolist()
        self._counts = counts = np.zeros(n)  # by rank: epochs offering the item
        self._totals = totals = np.zeros(n)  # by rank: purchases in those epochs
        self.epochs_closed = 0
        while True:
            bought = []  # 0-based items purchased in this epoch
            while True:
                outcome = yield size
                if outcome.item == 0:
                    break
                bought.append(outcome.item - 1)
            counts[:size] += 1.0
            for i in bought:  # integer-valued floats: exact in any order
                totals[rank[i]] += 1.0
            self.epochs_closed += 1
            size = self._levels.best_prefix(self._estimates(), 2 * size)[0]


class UcbPolicy(_EpochEstimatorPolicy):
    """Epoch-based UCB over item utilities with level-set reoptimization.

    Optimistic index: vbar + c1 sqrt(vbar ln(sqrt(N) l + 1) / T_i)
    + c2 ln(sqrt(N) l + 1) / T_i, where T_i counts epochs containing item i
    and l is the current epoch number, with Agrawal et al.'s constants
    c1 = sqrt(48) and c2 = 48.
    """

    C1 = math.sqrt(48.0)
    C2 = 48.0

    def _estimates(self):
        """The optimistic index of ranks [0, m).

        The first epoch offered every item, so every count is at least 1.
        The operations are the formula's, in its left-to-right order, and
        elementwise: an entry's bits do not depend on m.
        """
        log_term = math.log(math.sqrt(self.revenues.size) * (self.epochs_closed + 1) + 1.0)
        c2_log = self.C2 * log_term

        def leading(m: int) -> np.ndarray:
            t_i = self._counts[:m]
            vbar = self._totals[:m] / t_i
            ucb = vbar * log_term
            ucb /= t_i
            np.sqrt(ucb, out=ucb)
            ucb *= self.C1
            ucb += vbar
            ucb += np.divide(c2_log, t_i, out=vbar)
            return ucb

        return leading


class ThompsonPolicy(_EpochEstimatorPolicy):
    """Epoch-based Thompson sampling over item utilities.

    For item i with n_i closed epochs and V_i total purchases, sample
    B ~ Beta(n_i, V_i + 1) — the posterior of the epoch-stopping
    probability 1/(1 + v_i) — and use 1/B - 1 as the utility. The first
    epoch offers every item, so every later draw has n_i >= 1. The draws
    are made in item order, all N of them at every re-solve, which fixes
    the random stream, and converted once, in rank order.
    """

    def __init__(self, revenues, horizon, *, rng=None):
        self.rng = np.random.default_rng(rng)  # a seed, None, or a Generator as is
        super().__init__(revenues, horizon)

    def _estimates(self):
        beta = self.rng.beta(self.epoch_counts, self.purchase_totals + 1.0)
        sampled = beta[self._levels.order]
        np.maximum(sampled, 1e-12, out=sampled)
        np.divide(1.0, sampled, out=sampled)
        sampled -= 1.0
        return lambda m: sampled[:m]


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class GoldenRatioSearchPolicy(Policy):
    """Golden-section search over revenue levels.

    Each probe level is explored for ceil(sqrt(T)) periods with its level
    set, one run; empirical means decide which bracket endpoint is
    dropped. Once the bracket collapses below 1/sqrt(T), the best probe so
    far is exploited for the remaining horizon, a run that the horizon ends.

    ``interval_history`` records the bracket (lo, hi) at the start of every
    probe.
    """

    def __init__(self, revenues, horizon):
        self.interval_history: list = []
        super().__init__(revenues, horizon)

    def _probe(self, theta: float, lo: float, hi: float):
        self.interval_history.append((lo, hi))
        size = self._levels.level_size(theta)
        count = math.ceil(math.sqrt(self.horizon))
        total = yield self._hold(size, count)
        return total / count

    def _run(self):
        lo, hi = 0.0, 1.0
        collapse = 1.0 / math.sqrt(self.horizon)
        left = hi - _GOLDEN * (hi - lo)
        right = lo + _GOLDEN * (hi - lo)
        left_mean = yield from self._probe(left, lo, hi)
        right_mean = yield from self._probe(right, lo, hi)
        best_theta, best_mean = (
            (left, left_mean) if left_mean >= right_mean else (right, right_mean)
        )
        while hi - lo >= collapse:
            if left_mean < right_mean:
                lo = left
                left, left_mean = right, right_mean
                right = lo + _GOLDEN * (hi - lo)
                right_mean = yield from self._probe(right, lo, hi)
                candidate = (right, right_mean)
            else:
                hi = right
                right, right_mean = left, left_mean
                left = hi - _GOLDEN * (hi - lo)
                left_mean = yield from self._probe(left, lo, hi)
                candidate = (left, left_mean)
            if candidate[1] > best_mean:
                best_theta, best_mean = candidate
        incumbent = self._levels.level_size(best_theta)
        while True:
            yield self._hold(incumbent, self.horizon)


class StaticPolicy(Policy):
    """Always offers one fixed assortment (reference policy), as runs of
    the whole horizon."""

    def __init__(self, revenues, horizon, assortment):
        levels = _level_sets(revenues)
        idx = assortment_indices(assortment, levels.revenues.size)
        self.assortment = tuple((idx + 1).tolist())
        super().__init__(levels, horizon)

    def _run(self):
        while True:
            yield self._hold(self.assortment, self.horizon)


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
    ``rng`` seeds Thompson's draws: a seed, ``None`` or a numpy ``Generator``.

    Raises ValueError for an unknown name, a parameter the policy does not
    take or lacks, or a parameter value it rejects.
    """
    cls = _POLICY_CLASSES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    seeded = {"rng": rng} if cls is ThompsonPolicy else {}
    try:
        return cls(revenues, horizon, **seeded, **(params or {}))
    except TypeError as exc:
        if exc.__traceback__.tb_next is not None:  # raised inside the policy
            raise
        # Python names the callee first: "Policy.__init__() got an unexpected ..."
        raise ValueError(f"policy {name!r} {str(exc).partition('() ')[2]}") from None
