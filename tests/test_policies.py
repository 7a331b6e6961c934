import math

import numpy as np
import pytest

from assortbench.core import Instance, PurchaseOutcome, sample_purchase
from assortbench.generators import generate_synthetic
from assortbench.policies import (
    AdaptiveTrisectionPolicy,
    GoldenRatioSearchPolicy,
    HorizonExhaustedError,
    PolicyProtocolError,
    StaticPolicy,
    ThompsonPolicy,
    TrisectionPolicy,
    UcbPolicy,
    adaptive_inner_budget,
    make_policy,
    trisection_inner_budget,
)

NO_PURCHASE = PurchaseOutcome(0, 0.0)


def drive(policy, instance, periods, seed=0):
    """Run a policy against an instance, returning the assortment sequence."""
    rng = np.random.default_rng(seed)
    offered = []
    for _ in range(periods):
        assortment = policy.next_assortment()
        offered.append(assortment)
        policy.observe(sample_purchase(instance, assortment, rng))
    return offered


class TestBudgets:
    def test_trisection_budget_frozen(self):
        # gap 1/3, T=1000: 16 * ceil(9 * ln(10^6)) = 16 * 125.
        assert trisection_inner_budget(1.0 / 3.0, 1000) == 2000

    def test_adaptive_budget_frozen(self):
        # gap 1/3, T=1000: 8 * ceil(9 * ln(8000/9)) = 8 * 62.
        assert adaptive_inner_budget(1.0 / 3.0, 1000) == 496

    def test_adaptive_budget_floor(self):
        assert adaptive_inner_budget(0.01, 10) == 1

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(ValueError):
            trisection_inner_budget(0.0, 100)
        with pytest.raises(ValueError):
            adaptive_inner_budget(-1.0, 100)


class TestProtocol:
    def test_strict_alternation(self):
        policy = StaticPolicy([0.5], 10, (1,))
        with pytest.raises(PolicyProtocolError):
            policy.observe(NO_PURCHASE)
        policy.next_assortment()
        with pytest.raises(PolicyProtocolError):
            policy.next_assortment()
        policy.observe(NO_PURCHASE)

    def test_horizon_enforced(self):
        policy = StaticPolicy([0.5], 3, (1,))
        for _ in range(3):
            policy.next_assortment()
            policy.observe(NO_PURCHASE)
        with pytest.raises(HorizonExhaustedError):
            policy.next_assortment()
        assert policy.offers_emitted == 3

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            TrisectionPolicy([], 10)
        with pytest.raises(ValueError):
            TrisectionPolicy([0.5], 0)


class TestTrisection:
    def test_first_offer_is_upper_trisection_level_set(self):
        revenues = [0.2, 0.7, 0.9]
        policy = TrisectionPolicy(revenues, 1000)
        assert policy.next_assortment() == (2, 3)  # items with r >= 2/3

    def test_interval_shrinks_by_two_thirds(self):
        inst = generate_synthetic(50, seed=3)
        policy = TrisectionPolicy(inst.revenues, 20_000)
        drive(policy, inst, 20_000, seed=3)
        history = policy.interval_history
        assert len(history) >= 2
        for (a0, b0), (a1, b1) in zip(history, history[1:]):
            assert a0 <= a1 and b1 <= b0
            assert (b1 - a1) == pytest.approx((2.0 / 3.0) * (b0 - a0), abs=1e-15)

    def test_shrinks_right_when_probe_level_unreachable(self):
        # All revenues below 1/3: the y = 2/3 level set is empty, its mean
        # stays 0, and the epoch must move b down to y.
        policy = TrisectionPolicy([0.1, 0.2], 100_000)
        inst = Instance([0.1, 0.2], [1.0, 1.0])
        drive(policy, inst, 50_000, seed=0)
        assert policy.interval_history[1] == (0.0, pytest.approx(2.0 / 3.0))

    def test_moves_left_endpoint_when_probe_level_rich(self):
        # Single item with r=1, huge utility: F(2/3) ~ 1 > 2/3, so the
        # epoch must move a up to x = 1/3.
        policy = TrisectionPolicy([1.0], 100_000)
        inst = Instance([1.0], [1e6])
        drive(policy, inst, 50_000, seed=0)
        a1, b1 = policy.interval_history[1]
        assert (a1, b1) == (pytest.approx(1.0 / 3.0), 1.0)

    def test_deterministic_given_seed(self):
        inst = generate_synthetic(40, seed=5)
        runs = [
            drive(TrisectionPolicy(inst.revenues, 2000), inst, 2000, seed=9)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestAdaptiveTrisection:
    def test_uses_smaller_budget(self):
        inst = generate_synthetic(50, seed=1)
        fixed = TrisectionPolicy(inst.revenues, 5000)
        adaptive = AdaptiveTrisectionPolicy(inst.revenues, 5000)
        drive(fixed, inst, 5000, seed=1)
        drive(adaptive, inst, 5000, seed=1)
        assert len(adaptive.interval_history) > len(fixed.interval_history)

    def test_ci_scale_configurable(self):
        policy = AdaptiveTrisectionPolicy([0.5], 100, ci_scale=0.1)
        assert policy.ci_scale == 0.1

    def test_interval_nesting(self):
        inst = generate_synthetic(50, seed=2)
        policy = AdaptiveTrisectionPolicy(inst.revenues, 10_000, ci_scale=0.1)
        drive(policy, inst, 10_000, seed=2)
        for (a0, b0), (a1, b1) in zip(policy.interval_history, policy.interval_history[1:]):
            assert a0 <= a1 <= b1 <= b0
            assert (b1 - a1) == pytest.approx((2.0 / 3.0) * (b0 - a0), abs=1e-15)


class TestUcb:
    def test_first_offer_includes_everything(self):
        policy = UcbPolicy([0.3, 0.6, 0.9], 100)
        assert policy.next_assortment() == (1, 2, 3)

    def test_optimism(self):
        inst = generate_synthetic(20, seed=4)
        policy = UcbPolicy(inst.revenues, 2000)
        drive(policy, inst, 2000, seed=4)
        tried = policy.epoch_counts > 0
        assert tried.any()
        vbar = policy.purchase_totals[tried] / policy.epoch_counts[tried]
        assert np.all(policy.utility_ucb()[tried] >= vbar - 1e-12)

    def test_epoch_counts_unbiased_single_item(self):
        # Per-epoch purchase count of a single item with utility v is
        # geometric with mean v.
        inst = Instance([1.0], [1.0])
        policy = UcbPolicy([1.0], 200_000)
        drive(policy, inst, 200_000, seed=8)
        vbar = policy.purchase_totals[0] / policy.epoch_counts[0]
        assert abs(vbar - 1.0) < 0.05


class TestThompson:
    def test_posterior_tracks_utility(self):
        inst = Instance([1.0], [0.5])
        policy = ThompsonPolicy([1.0], 50_000, rng=np.random.default_rng(10))
        drive(policy, inst, 50_000, seed=10)
        vbar = policy.purchase_totals[0] / policy.epoch_counts[0]
        assert abs(vbar - 0.5) < 0.05

    def test_unpurchased_item_concentrates_near_zero(self):
        # Zero purchases over 500 epochs: B ~ Beta(500, 1) is near 1, so
        # the sampled utility 1/B - 1 is near 0.
        rng = np.random.default_rng(11)
        draws = 1.0 / np.maximum(rng.beta(500.0, 1.0, size=1000), 1e-12) - 1.0
        assert np.median(draws) < 0.01

    def test_deterministic_given_rngs(self):
        inst = generate_synthetic(20, seed=6)

        def one_run():
            policy = ThompsonPolicy(inst.revenues, 500, rng=np.random.default_rng(21))
            return drive(policy, inst, 500, seed=22)

        assert one_run() == one_run()


class TestGoldenRatioSearch:
    def test_initial_probe_levels(self):
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        revenues = np.linspace(0.0, 1.0, 101)
        policy = GoldenRatioSearchPolicy(revenues, 10_000)
        first = policy.next_assortment()
        expected = tuple(i + 1 for i in range(101) if revenues[i] >= 1.0 - golden)
        assert first == expected

    def test_probe_length_is_sqrt_horizon(self):
        policy = GoldenRatioSearchPolicy([0.5, 0.9], 10_000)
        offers = []
        for _ in range(100):
            offers.append(policy.next_assortment())
            policy.observe(NO_PURCHASE)
        assert len(set(offers)) == 1  # still inside the first probe
        policy.next_assortment()  # period 101 starts the second probe

    def test_exploits_fixed_assortment_after_search(self):
        inst = generate_synthetic(30, seed=7)
        policy = GoldenRatioSearchPolicy(inst.revenues, 2500)
        offered = drive(policy, inst, 2500, seed=7)
        tail = offered[-100:]
        assert len(set(tail)) == 1


class TestStatic:
    def test_always_offers_fixed_assortment(self):
        policy = StaticPolicy([0.5, 0.6], 5, (2,))
        for _ in range(5):
            assert policy.next_assortment() == (2,)
            policy.observe(NO_PURCHASE)

    def test_empty_assortment_allowed(self):
        policy = StaticPolicy([0.5], 2, ())
        assert policy.next_assortment() == ()

    def test_invalid_assortment_rejected(self):
        with pytest.raises(ValueError):
            StaticPolicy([0.5], 5, (2,))
        with pytest.raises(ValueError):
            StaticPolicy([0.5, 0.6], 5, (2, 1))


class TestFactory:
    def test_known_names(self):
        for name in ("trisection", "adaptive-trisection", "ucb", "thompson", "grs"):
            policy = make_policy(name, [0.5, 0.7], 100, rng=np.random.default_rng(0))
            assert policy.next_assortment()

    def test_static_requires_assortment(self):
        with pytest.raises(ValueError):
            make_policy("static", [0.5], 10)
        policy = make_policy("static", [0.5], 10, params={"assortment": (1,)})
        assert policy.next_assortment() == (1,)

    def test_estimator_policies_reject_revenues_outside_unit_interval(self):
        with pytest.raises(ValueError):
            UcbPolicy([1.5], 10)
        with pytest.raises(ValueError):
            ThompsonPolicy([float("nan")], 10, rng=np.random.default_rng(0))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("bogus", [0.5], 10)

    def test_policies_never_see_utilities(self):
        # The factory accepts only revenues; there is no utility channel.
        import inspect

        sig = inspect.signature(make_policy)
        assert "utilities" not in sig.parameters
