import math

import numpy as np
import pytest

from assortbench import harness
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
    POLICY_NAMES,
    UcbPolicy,
    adaptive_inner_budget,
    make_policy,
    trisection_inner_budget,
)

NO_PURCHASE = PurchaseOutcome(0, 0.0)


def masked_utility_ucb(policy):
    """The UCB index as ``UcbPolicy.utility_ucb`` computed it before it
    indexed every item: gathered over the tried items only."""
    tried = policy.epoch_counts > 0
    out = np.full(policy.revenues.size, np.inf)
    if tried.any():
        t_i = policy.epoch_counts[tried]
        vbar = policy.purchase_totals[tried] / t_i
        log_term = math.log(math.sqrt(policy.revenues.size) * (policy.epochs_closed + 1) + 1.0)
        out[tried] = vbar + policy.C1 * np.sqrt(vbar * log_term / t_i) + policy.C2 * log_term / t_i
    return out


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

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            TrisectionPolicy([], 10)
        with pytest.raises(ValueError):
            TrisectionPolicy([0.5], 0)

    @pytest.mark.parametrize("name", ["trisection", "adaptive-trisection"])
    def test_one_period_horizon_offers_once(self, name):
        # ln 1 = 0; a zero budget would make the policy loop without an offer.
        assert trisection_inner_budget(1.0 / 3.0, 1) >= 1
        policy = make_policy(name, [0.2, 0.9], 1)
        policy.next_assortment()
        policy.observe(NO_PURCHASE)
        with pytest.raises(HorizonExhaustedError):
            policy.next_assortment()


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
    def test_optimism(self):
        inst = generate_synthetic(20, seed=4)
        policy = UcbPolicy(inst.revenues, 2000)
        drive(policy, inst, 2000, seed=4)
        tried = policy.epoch_counts > 0
        assert tried.any()
        vbar = policy.purchase_totals[tried] / policy.epoch_counts[tried]
        assert np.all(policy.utility_ucb()[tried] >= vbar - 1e-12)

    def test_index_equals_masked_reference_elementwise(self):
        rng = np.random.default_rng(12)
        for trial in range(200):
            n = int(rng.integers(1, 50))
            policy = UcbPolicy(rng.random(n), 100)
            counts = rng.integers(0, 1000, size=n) * (rng.random(n) < trial / 200)
            policy.epoch_counts = counts.astype(float)
            policy.purchase_totals = rng.integers(0, 5000, size=n) * (counts > 0).astype(float)
            policy.epochs_closed = int(counts.max(initial=0)) + int(rng.integers(0, 100))
            assert np.array_equal(policy.utility_ucb(), masked_utility_ucb(policy))

    def test_unchanged_offer_is_handed_back_as_the_same_tuple(self):
        inst = generate_synthetic(30, seed=5)
        policy = UcbPolicy(inst.revenues, 3000)
        rng = np.random.default_rng(5)
        kept = changed = 0
        previous = policy.next_assortment()
        for _ in range(2999):
            outcome = sample_purchase(inst, previous, rng)
            policy.observe(outcome)
            current = policy.next_assortment()
            if outcome.item == 0:  # the epoch closed; the offer was re-optimized
                if current == previous:
                    assert current is previous
                    kept += 1
                else:
                    changed += 1
            else:
                assert current is previous
            previous = current
        assert kept > 0 and changed > 0

    def test_plug_in_optimum_reuses_only_the_last_offer(self):
        policy = UcbPolicy([0.2, 0.5, 0.9], 10)
        first = policy._plug_in_optimum(np.array([1.0, 1.0, 1.0]))
        assert first[0] == (2, 3)
        assert policy._plug_in_optimum(np.array([1.0, 1.0, 1.0])) is first
        other = policy._plug_in_optimum(np.array([0.0, 0.0, 1.0]))
        assert other[0] == (3,) and other[0] != first[0]
        again = policy._plug_in_optimum(np.array([1.0, 1.0, 1.0]))
        assert again[0] == first[0] and again[0] is not first[0]

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


@pytest.mark.parametrize("name", ["ucb", "thompson"])
@pytest.mark.parametrize(
    "revenues", [[0.3, 0.6, 0.9], [0.5], [0.0], [0.4, 0.9, 0.4, 0.4], [0.0, 0.0]]
)
def test_first_offer_includes_everything(name, revenues):
    # Every later re-solve relies on each item having been tried once.
    policy = make_policy(name, revenues, 100, rng=np.random.default_rng(0))
    assert policy.next_assortment() == tuple(range(1, len(revenues) + 1))
    policy.observe(NO_PURCHASE)
    assert policy.epoch_counts.min() >= 1


@pytest.mark.parametrize("name", ["ucb", "thompson", "trisection", "grs"])
def test_episode_values_each_distinct_offer_once(monkeypatch, name):
    calls = []
    expected_revenue = harness.expected_revenue

    def counting_expected_revenue(instance, assortment):
        calls.append(tuple(int(i) + 1 for i in assortment.indices))
        return expected_revenue(instance, assortment)

    monkeypatch.setattr(harness, "expected_revenue", counting_expected_revenue)
    log = harness.run_episode(generate_synthetic(40, seed=9), name, 1500, seed=9)
    assert len(set(log.assortments)) > 1
    assert sorted(calls) == sorted(set(log.assortments))
    assert len({id(a) for a in log.assortments}) == len(set(log.assortments))


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

    @pytest.mark.parametrize("bad", [(True, 2), (np.True_,), (1.7,), ("2",)])
    def test_item_ids_must_be_integers(self, bad):
        with pytest.raises(ValueError, match="must be integers"):
            StaticPolicy([0.5, 0.6], 5, bad)

    def test_numpy_integer_ids_offered_as_python_ints(self):
        policy = StaticPolicy([0.5, 0.6], 5, (np.int64(1), np.uint8(2)))
        offer = policy.next_assortment()
        assert offer == (1, 2) and all(type(i) is int for i in offer)


def epochs_started(policy) -> int:
    """Trisection intervals, estimator epochs (closed ones plus the open
    one), or golden-ratio probe levels (one cached level set per threshold)."""
    if hasattr(policy, "interval_history"):
        return len(policy.interval_history)
    if hasattr(policy, "epochs_closed"):
        return policy.epochs_closed + 1
    return len(policy._level_set_cache)


@pytest.mark.parametrize(
    "name, horizon, at_least",
    [
        ("trisection", 20_000, 3),
        ("adaptive-trisection", 1000, 2),
        ("ucb", 1000, 2),
        ("thompson", 1000, 2),
        ("grs", 2500, 3),
    ],
)
def test_policy_leaves_its_first_epoch(name, horizon, at_least):
    # Each horizon is long enough for the first epoch to end before T.
    instance = generate_synthetic(100, seed=1)
    policy = make_policy(name, instance.revenues, horizon, rng=np.random.default_rng(0))
    drive(policy, instance, horizon)
    assert epochs_started(policy) >= at_least


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

    @pytest.mark.parametrize("name", POLICY_NAMES)
    @pytest.mark.parametrize("revenues", [[1.5], [-0.1], [float("nan")]])
    def test_every_policy_rejects_bad_revenues(self, name, revenues):
        params = {"assortment": (1,)} if name == "static" else {}
        with pytest.raises(ValueError):
            make_policy(name, revenues, 10, rng=np.random.default_rng(0), params=params)

    def test_check_policy_params_matches_the_constructors(self):
        accepted = [
            ("trisection", {}),
            ("adaptive-trisection", {"ci_scale": 0.1}),
            ("ucb", {}),
            ("thompson", {}),
            ("grs", {}),
            ("static", {"assortment": (1,)}),
            ("static", {"assortment": (np.int64(1), np.int32(2))}),
        ]
        for name, params in accepted:
            make_policy(name, [0.5, 0.7], 10, rng=np.random.default_rng(0), params=params)
        rejected = [
            ("trisection", {"ci_scale": 0.1}),
            ("grs", {"c1": 1.0}),
            ("thompson", {"rng": None}),
            ("static", {}),
            ("static", {"assortment": (3,)}),
            ("static", {"assortment": (1.7,)}),
            ("static", {"assortment": (True,)}),
            ("bogus", {}),
            ("trisection", {"log_exponent": 2.0}),
            ("adaptive-trisection", {"ci_scale": 0.0}),
            ("adaptive-trisection", {"ci_scale": -1.0}),
            ("adaptive-trisection", {"ci_scale": float("nan")}),
            ("adaptive-trisection", {"ci_scale": float("inf")}),
            ("ucb", {"c1": math.sqrt(48.0)}),
            ("ucb", {"c2": 48.0}),
        ]
        for name, params in rejected:
            with pytest.raises((TypeError, ValueError)):
                make_policy(name, [0.5, 0.7], 10, rng=np.random.default_rng(0), params=params)

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
