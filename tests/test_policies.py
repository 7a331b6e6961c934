import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assortbench import harness
from assortbench.core import (
    Instance,
    LevelSetOracle,
    PreparedOffer,
    PurchaseOutcome,
    build_potential_profile,
    expected_revenue,
    oracle_optimal,
    sample_purchase,
)
from assortbench.harness import generate_lower_bound, generate_synthetic
from assortbench.policies import (
    AdaptiveTrisectionPolicy,
    GoldenRatioSearchPolicy,
    HorizonExhaustedError,
    Policy,
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


def ucb_index(policy):
    """The index ``UcbPolicy`` re-solves with, gathered into item order."""
    return policy._estimates()(policy.revenues.size)[policy._rank]


def drive(policy, instance, periods, seed=0, rewards=None):
    """Run a policy against an instance a period at a time, returning the
    assortment sequence; ``rewards``, when given, receives each period's
    revenue. Each distinct offer's tuple and ``PreparedOffer`` are built
    once; a draw takes one uniform either way, so the purchases are those
    of ``sample_purchase``."""
    rng = np.random.default_rng(seed)
    offered = []
    prepared = {}  # offer (a size or a tuple) -> (tuple, PreparedOffer)
    for _ in range(periods):
        offer = policy.next_offer()
        entry = prepared.get(offer)
        if entry is None:
            assortment = policy._levels.prefix(offer) if isinstance(offer, int) else offer
            entry = prepared[offer] = (assortment, PreparedOffer(instance, assortment))
        offered.append(entry[0])
        outcome = entry[1].sample(rng)
        if rewards is not None:
            rewards.append(outcome.revenue)
        policy.observe(outcome)
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
        assert np.all(ucb_index(policy)[tried] >= vbar - 1e-12)

    def test_index_equals_item_order_reference_elementwise(self):
        # The index is built in place, by rank; the formula written over
        # item order must give the same bits.
        rng = np.random.default_rng(12)
        for trial in range(200):
            n = int(rng.integers(1, 50))
            policy = UcbPolicy(rng.random(n), 100)
            counts = rng.integers(1, 1000, size=n).astype(float)
            totals = rng.integers(0, 5000, size=n) * (rng.random(n) < trial / 200).astype(float)
            policy._counts[policy._rank] = counts
            policy._totals[policy._rank] = totals
            policy.epochs_closed = int(counts.max()) + int(rng.integers(0, 100))
            log_term = math.log(math.sqrt(n) * (policy.epochs_closed + 1) + 1.0)
            vbar = totals / counts
            reference = (
                vbar + policy.C1 * np.sqrt(vbar * log_term / counts) + policy.C2 * log_term / counts
            )
            assert np.array_equal(ucb_index(policy), reference)
            # A re-solve reads a leading block of ranks: the same bits.
            estimates = policy._estimates()
            for m in {1, (n + 1) // 2, n}:
                assert np.array_equal(estimates(m), reference[policy._levels.order[:m]])

    def test_offer_size_is_kept_within_an_epoch(self):
        inst = generate_synthetic(30, seed=5)
        policy = UcbPolicy(inst.revenues, 3000)
        levels = policy._levels
        rng = np.random.default_rng(5)
        kept = changed = 0
        previous = policy.next_offer()
        for _ in range(2999):
            outcome = sample_purchase(inst, levels.prefix(previous), rng)
            policy.observe(outcome)
            current = policy.next_offer()
            assert type(current) is int
            if outcome.item == 0:  # the epoch closed; the offer was re-optimized
                if current == previous:
                    kept += 1
                else:
                    changed += 1
            else:
                assert current == previous
            previous = current
        assert kept > 0 and changed > 0

    def test_epoch_counts_unbiased_single_item(self):
        # Per-epoch purchase count of a single item with utility v is
        # geometric with mean v.
        inst = Instance([1.0], [1.0])
        policy = UcbPolicy([1.0], 200_000)
        drive(policy, inst, 200_000, seed=8)
        vbar = policy.purchase_totals[0] / policy.epoch_counts[0]
        assert abs(vbar - 1.0) < 0.05

    def test_wide_episode_re_solves_read_few_ranks(self, monkeypatch):
        # Every re-solve must choose what a solve over all N ranks chooses,
        # which gives this regret. After the first epoch's re-solve, which
        # reads all N ranks, the re-solves read about 6% of them. The
        # episode's optimal value, the one solve with no start, is not counted.
        reads = []
        leading = LevelSetOracle.best_prefix

        def counting(self, estimates, start=None):
            if start is None:
                return leading(self, estimates)
            reads.append(0)

            def counted(m):
                reads[-1] += m
                return estimates(m)

            return leading(self, counted, start)

        monkeypatch.setattr(LevelSetOracle, "best_prefix", counting)
        n = 10_000
        log = harness.run_episode(generate_synthetic(n, seed=3), "ucb", 2000, seed=7)
        assert repr(log.cumulative_regret) == "538.4529737969723"
        assert reads[0] == n and sum(reads[1:]) < 0.1 * n * len(reads[1:])


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


@pytest.mark.parametrize("name", ["ucb", "thompson"])
@pytest.mark.parametrize(
    "revenues",
    # Tied revenues, in a revenue order (item 2, then 1, 3, 4) that is its
    # own inverse, and in one (item 4, 3, 1, 2) that is not.
    [[0.4, 0.9, 0.4, 0.4], [0.4, 0.4, 0.9, 0.95]],
)
def test_statistics_kept_by_rank_match_a_recount(name, revenues):
    # The offers are prefixes of the revenue order; the statistics are
    # exposed in item order.
    inst = Instance(revenues, [0.3, 1.0, 2.0, 0.5])
    policy = make_policy(name, revenues, 3000, rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    counts, totals = np.zeros(4), np.zeros(4)
    bought = []  # purchases of the open epoch
    offers = set()
    for _ in range(3000):
        offer = policy.next_assortment()
        offers.add(offer)
        outcome = sample_purchase(inst, offer, rng)
        policy.observe(outcome)
        if outcome.item:
            bought.append(outcome.item)
            continue
        for item in offer:
            counts[item - 1] += 1.0
        for item in bought:
            totals[item - 1] += 1.0
        bought.clear()
    assert len(offers) > 1
    assert policy.epoch_counts.tolist() == counts.tolist()
    assert policy.purchase_totals.tolist() == totals.tolist()


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_episode_values_each_distinct_offer_once(monkeypatch, name):
    calls = []
    expected_revenue = harness.expected_revenue

    def counting_expected_revenue(instance, assortment):
        calls.append(tuple(int(i) + 1 for i in assortment.indices))
        return expected_revenue(instance, assortment)

    streams = {}  # seed -> the generator built from it
    default_rng = np.random.default_rng

    def recording_default_rng(seed):
        streams[seed] = default_rng(seed)
        return streams[seed]

    monkeypatch.setattr(harness, "expected_revenue", counting_expected_revenue)
    monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
    params = {"assortment": (2, 5)} if name == "static" else None
    log = harness.run_episode(
        generate_synthetic(40, seed=9), name, 1500, seed=9, policy_params=params
    )
    # One customer uniform a period, whether the period is served alone or
    # in a run, and one logged reward.
    seed = harness.derive_seed(9, "customer")
    reference = default_rng(seed)
    reference.random(1500)
    assert streams[seed].bit_generator.state == reference.bit_generator.state
    assert len(log.rewards) == len(log.offer_index) == 1500
    assert len(set(log.assortments)) > 1 or name == "static"
    assert sorted(calls) == sorted(set(log.assortments))
    # One tuple object per distinct offer, however a policy returns to it
    # (another threshold with the same level set, or an earlier epoch's size).
    assert len({id(a) for a in log.assortments}) == len(set(log.assortments)) == len(log.offers)


class _Resumes:
    """A policy's decision generator, recording the ``repr`` of every value
    it is resumed with: an outcome, or a run's summed revenue."""

    def __init__(self, policy):
        self.gen, self.sent = policy._gen, []
        policy._gen = self

    def send(self, value):
        self.sent.append(repr(value))
        return self.gen.send(value)

    def close(self):
        self.gen.close()


class _Uniforms:
    """A customer stream cycling through fixed uniforms, drawn one at a time
    or as a block, as a numpy ``Generator`` draws them."""

    def __init__(self, values):
        self._values = iter(np.resize(np.array(values), 10**5).tolist())

    def random(self, size=None):
        if size is None:
            return next(self._values)
        return np.array([next(self._values) for _ in range(size)])


# Level sets of 3 and 4 items have 1 + sum v = 4 and cumulative utilities
# [1, 1, 3] and [1, 1, 3, 3]: u = 1/2 lands on a tie of them exactly, where
# searchsorted(side="right") passes the zero-utility item.
DYADIC = Instance([1.0, 0.75, 0.5, 0.25], [1.0, 0.0, 2.0, 0.0])
EDGE_UNIFORMS = [0.5, 0.25, 0.75, 0.125, 0.875, 0.375, 0.625, 1.0 - 2.0**-53, 0.0]

RUN_INSTANCES = {
    "synthetic-1": generate_synthetic(1, seed=4),
    "synthetic-40": generate_synthetic(40, seed=4),
    "synthetic-1000": generate_synthetic(1000, seed=4),
    "p0-40": generate_lower_bound("P0", 40, 1000),
    "p1-40": generate_lower_bound("P1", 40, 1000),
    "p0-1000": generate_lower_bound("P0", 1000, 1000),
    "p1-1000": generate_lower_bound("P1", 1000, 1000),
    "dyadic": DYADIC,
}


def _static_params(name, instance, empty=False):
    if name != "static":
        return None
    return {"assortment": () if empty else oracle_optimal(instance)[0]}


def _runs_and_periods(monkeypatch, name, instance, horizon, params, seed=5):
    """One episode through ``run_episode``, which serves runs in bulk, and
    its twin served a period at a time by ``drive``: (log, offers, rewards,
    resumes of the first, resumes of the second)."""
    make_policy = harness.make_policy
    resumes = []

    def recording_make_policy(*args, **kwargs):
        policy = make_policy(*args, **kwargs)
        resumes.append(_Resumes(policy))
        return policy

    monkeypatch.setattr(harness, "make_policy", recording_make_policy)
    log = harness.run_episode(instance, name, horizon, seed, policy_params=params)
    monkeypatch.setattr(harness, "make_policy", make_policy)
    policy = make_policy(
        name,
        LevelSetOracle(instance.revenues),
        horizon,
        rng=np.random.default_rng(harness.derive_seed(seed, "policy")),
        params=params,
    )
    twin, rewards = _Resumes(policy), []
    offers = drive(policy, instance, horizon, harness.derive_seed(seed, "customer"), rewards)
    return log, offers, rewards, resumes[0].sent, twin.sent


@pytest.mark.parametrize(
    "name, instance_name, horizon, empty",
    [
        (name, instance_name, horizon, False)
        for name in POLICY_NAMES
        for instance_name, horizon in [
            ("synthetic-1", 1000),
            ("synthetic-40", 1000),
            ("synthetic-1000", 1000),
            ("p0-40", 1000),
            ("p1-40", 1000),
            ("p0-1000", 1000),
            ("p1-1000", 1000),
            ("dyadic", 300),
            # Runs longer than a block of uniforms: grs's incumbent and
            # static's whole horizon.
            ("synthetic-40", 10_000),
        ]
    ]
    + [("static", "synthetic-40", 1000, True)]  # a run of the empty offer
    # A run that the horizon cuts below RUN_MIN.
    + [("trisection", "p0-40", 226, False), ("adaptive-trisection", "p0-40", 232, False)],
)
def test_runs_match_period_by_period_serving(monkeypatch, name, instance_name, horizon, empty):
    # Offers, rewards and regrets bit for bit, and every value the policy's
    # generator is resumed with: a run's sum is the left fold of its rewards.
    instance = RUN_INSTANCES[instance_name]
    if instance is DYADIC:  # customers whose uniforms land on the ties
        customer_seed = harness.derive_seed(5, "customer")
        default_rng = np.random.default_rng

        def edge_default_rng(seed=None):
            return _Uniforms(EDGE_UNIFORMS) if seed == customer_seed else default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", edge_default_rng)
    params = _static_params(name, instance, empty)
    log, offers, rewards, resumed, resumed_twin = _runs_and_periods(
        monkeypatch, name, instance, horizon, params
    )
    assert log.assortments == offers
    assert [repr(r) for r in log.rewards] == [repr(r) for r in rewards]
    optimal = oracle_optimal(instance)[1]
    regret = {offer: optimal - expected_revenue(instance, offer) for offer in set(offers)}
    assert [repr(step[3]) for step in log.steps] == [repr(regret[offer]) for offer in offers]
    assert resumed == resumed_twin


@pytest.mark.parametrize(
    "name, instance_name, horizon, empty, held",
    [
        ("trisection", "synthetic-40", 1000, False, 500),
        ("grs", "synthetic-40", 10_000, False, harness.UNIFORM_BLOCK + 1),
        ("static", "synthetic-40", 10_000, False, harness.UNIFORM_BLOCK + 1),
        ("grs", "synthetic-40", 1000, False, 0),
        ("static", "synthetic-40", 1000, True, 0),
        ("trisection", "p0-40", 226, False, 3),
        ("adaptive-trisection", "p0-40", 232, False, 3),
    ],
)
def test_runs_cover_the_edge_cases(monkeypatch, name, instance_name, horizon, empty, held):
    # The cases above hold a run that the horizon cuts (trisection's first
    # epoch budgets 2000 periods at T = 1000, and the p0-40 runs are cut
    # below RUN_MIN), runs longer than a block of uniforms, and runs of the
    # empty offer (grs probes the level 0.618, above every revenue).
    instance = RUN_INSTANCES[instance_name]
    params = _static_params(name, instance, empty)
    log = _runs_and_periods(monkeypatch, name, instance, horizon, params)[0]
    if held:  # the last `held` periods are one run's
        assert set(log.offer_index[-held:]) == {log.offer_index[-1]}
    else:
        empty_offer = [k for k, (offer, _) in enumerate(log.offers) if offer in (0, ())]
        assert log.offer_index.count(empty_offer[0]) >= math.ceil(math.sqrt(horizon))
    if name == "trisection":
        assert trisection_inner_budget(1.0 / 3.0, horizon) > horizon
    if 0 < held < harness.RUN_MIN:
        # The cut run holds at least RUN_MIN periods, and its last periods
        # go through sample_purchase one at a time.
        policies, served = [], []  # (periods handed over, periods held) per call

        def recording_make_policy(*args, **kwargs):
            policies.append(make_policy(*args, **kwargs))
            return policies[-1]

        def recording_sample_purchase(*args):
            served.append((policies[0]._offers, policies[0].held))
            return sample_purchase(*args)

        monkeypatch.setattr(harness, "make_policy", recording_make_policy)
        monkeypatch.setattr(harness, "sample_purchase", recording_sample_purchase)
        harness.run_episode(instance, name, horizon, 5, policy_params=params)
        first = served[-held][1]
        assert first >= harness.RUN_MIN
        assert served[-held:] == [(horizon - held + 1 + i, first - i) for i in range(held)]


# Revenues that tie, hit 0 and 1, or fill the unit range; N = 1 included.
_protocol_revenues = st.lists(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    min_size=1,
    max_size=6,
)


def _is_offer(offer, levels):
    """A level-set size of ``levels`` (0 or one of its ``prefix_len``, so
    never a size that cuts a tie group) or a strictly increasing tuple of
    ids in [1, N]."""
    if type(offer) is int:
        return offer == 0 or offer in levels.prefix_len
    n = levels.revenues.size
    return (
        isinstance(offer, tuple)
        and all(type(i) is int and 1 <= i <= n for i in offer)
        and all(a < b for a, b in zip(offer, offer[1:]))
    )


# The policies that read each purchase outcome; every other policy holds
# every offer as a run and sees only summed revenues.
_OUTCOME_READERS = ("ucb", "thompson")


@pytest.mark.parametrize("serving", ["periods", "runs", "mixed", "run-only"])
@settings(max_examples=35, deadline=None)
@given(
    name=st.sampled_from(POLICY_NAMES),
    revenues=_protocol_revenues,
    horizon=st.integers(min_value=1, max_value=300),
    data=st.data(),
)
def test_protocol_holds_however_runs_are_served(serving, name, revenues, horizon, data):
    # Exactly T offers, each a level-set size or an increasing tuple, then
    # HorizonExhaustedError, whether runs are served a period at a time, at
    # once, mixed, or (run-only) with every hand-over of a policy that does
    # not read outcomes observed by its revenues, one-period hand-overs
    # included; a call out of order raises PolicyProtocolError, a hand-over
    # of more periods than the offer holds raises ValueError, and neither
    # changes anything.
    n = len(revenues)
    params = None
    if name == "static":
        keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        params = {"assortment": tuple(i + 1 for i, k in enumerate(keep) if k)}
    policy = make_policy(name, revenues, horizon, rng=np.random.default_rng(0), params=params)
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    instance = Instance(revenues, rng.random(n) * 2.0)
    prepared = {}
    served = 0
    while served < horizon:
        if data.draw(st.integers(0, 9)) == 0:  # observe before any offer
            with pytest.raises(PolicyProtocolError):
                policy.observe(NO_PURCHASE)
            with pytest.raises(PolicyProtocolError):
                policy.observe_run(np.zeros(1))
        mode = serving if serving != "mixed" else data.draw(st.sampled_from(["periods", "runs"]))
        most = min(policy.held, horizon - served)
        if data.draw(st.integers(0, 9)) == 0:  # more periods than the offer holds
            with pytest.raises(ValueError):
                policy.next_offer(most + 1)
        if mode == "periods":
            k = 1
        else:
            k = most if serving == "runs" else data.draw(st.integers(1, most))
        offer = policy.next_offer(k)
        assert _is_offer(offer, policy._levels)
        if data.draw(st.integers(0, 9)) == 0:  # offer again, or observe wrongly
            with pytest.raises(PolicyProtocolError):
                policy.next_offer()
            with pytest.raises(PolicyProtocolError):
                policy.next_offer(k)
            with pytest.raises(PolicyProtocolError):
                policy.observe_run(np.zeros(k + 1))
            if k > 1:
                with pytest.raises(PolicyProtocolError):
                    policy.observe(NO_PURCHASE)
            elif name in _OUTCOME_READERS:  # an offer is observed by its outcome
                with pytest.raises(PolicyProtocolError):
                    policy.observe_run(np.zeros(1))
        if offer not in prepared:
            items = policy._levels.prefix(offer) if type(offer) is int else offer
            prepared[offer] = PreparedOffer(instance, items)
        if k == 1 and (serving != "run-only" or name in _OUTCOME_READERS):
            policy.observe(prepared[offer].sample(rng))
        else:
            policy.observe_run(prepared[offer].purchase_revenues(rng.random(k)))
        served += k
    assert served == horizon
    for call in (policy.next_offer, policy.next_assortment, lambda: policy.next_offer(2)):
        with pytest.raises(HorizonExhaustedError):
            call()


def test_runs_hold_and_hand_over_a_period_at_least():
    class Empty(Policy):
        def _run(self):
            yield self._hold(1, 0)

    with pytest.raises(ValueError, match="at least one period"):
        Empty([0.5], 10)
    with pytest.raises(ValueError, match="1 to 10 periods, got 0"):
        StaticPolicy([0.5], 10, (1,)).next_offer(0)


def fluid_episode(policy, instance, horizon):
    """Serve ``horizon`` periods to a policy that reads no outcome, each
    period earning its offer's exact expected revenue: the fluid episode, a
    function of the instance, the horizon and the params alone. Each step
    hands over all the periods the offer still holds."""
    levels = policy._levels
    ranked = levels.ranked_values(instance.utilities[levels.order])
    value = {0: 0.0, **dict(zip(levels.prefix_len[::-1].tolist(), ranked.tolist()))}
    served = 0
    while served < horizon:
        k = min(policy.held, horizon - served)
        policy.observe_run(np.full(k, value[policy.next_offer(k)]))
        served += k


@pytest.mark.parametrize(
    "name, params",
    [
        ("trisection", None),
        ("adaptive-trisection", {"ci_scale": 2.0}),
        ("adaptive-trisection", {"ci_scale": 0.1}),
    ],
    ids=["trisection", "adaptive-2", "adaptive-0.1"],
)
def test_fluid_episodes_keep_theta_star(name, params):
    # Every confidence interval of a fluid episode holds the true mean, so
    # every recorded [a, b] must hold theta* (the proof's good event), on
    # random profiles of 2 to 16 levels at T = 4000: 0 misses of 30.
    horizon, misses = 4000, []
    for k in range(30):
        rng = np.random.default_rng(k)
        n = 2 + k % 15
        instance = Instance(rng.random(n), 10 ** rng.uniform(-2, 2, n))
        policy = make_policy(name, instance.revenues, horizon, params=params)
        fluid_episode(policy, instance, horizon)
        theta = build_potential_profile(instance).f_star
        if not all(a - 1e-12 <= theta <= b + 1e-12 for a, b in policy.interval_history):
            misses.append(k)
    assert misses == []


def split_instance(instance, k):
    """Each item as k adjacent copies with its revenue and 1/k of its utility.

    Every level set keeps its law of purchased revenue, so a policy that
    sees only revenues cannot tell the split instance from the original.
    """
    return Instance(np.repeat(instance.revenues, k), np.repeat(instance.utilities / k, k))


SPLIT_INSTANCES = {
    "synthetic": generate_synthetic(50, seed=3),
    "hard-pair": generate_lower_bound("P0", 2, 4000),
    "ties-and-zeros": Instance(
        [0.5, 0.0, 0.5, 0.8, 0.0, 0.3, 0.8, 1.0], [0.7, 1.2, 0.4, 0.3, 0.0, 2.0, 0.5, 0.1]
    ),
}


@pytest.mark.parametrize("instance_name", SPLIT_INSTANCES)
@pytest.mark.parametrize(
    "name, params",
    [("trisection", None), ("adaptive-trisection", {"ci_scale": 0.1}), ("grs", None)],
)
def test_level_set_regret_does_not_depend_on_the_item_count(name, params, instance_name):
    # The paper's N-independence, episode by episode: with one seed, splitting
    # every item leaves the per-period regrets unchanged up to rounding.
    instance = SPLIT_INSTANCES[instance_name]

    def regrets(inst):
        log = harness.run_episode(inst, name, 4000, seed=11, policy_params=params)
        return np.array([step[3] for step in log.steps])

    base = regrets(instance)
    assert base.sum() > 0.0
    for k in (2, 8):
        assert np.abs(regrets(split_instance(instance, k)) - base).max() <= 1e-9


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

    @pytest.mark.parametrize("horizon", [2500, 10_000])
    def test_interval_history_records_each_probe_bracket(self, horizon):
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        inst = generate_synthetic(30, seed=7)
        policy = GoldenRatioSearchPolicy(inst.revenues, horizon)
        probe = math.ceil(math.sqrt(horizon))
        rng = np.random.default_rng(7)
        recorded = []  # brackets recorded when each period's offer is made
        for _ in range(horizon):
            offer = policy.next_assortment()
            recorded.append(len(policy.interval_history))
            policy.observe(sample_purchase(inst, offer, rng))
        history = policy.interval_history
        probes = len(history)
        assert probes * probe < horizon  # the search ends before T
        assert recorded == [min(t // probe + 1, probes) for t in range(horizon)]
        # Both first probes share the opening bracket; each later one drops
        # one endpoint, keeping the golden-ratio share of the bracket.
        assert history[0] == history[1] == (0.0, 1.0)
        collapse = 1.0 / math.sqrt(horizon)
        for (lo0, hi0), (lo1, hi1) in zip(history[1:], history[2:]):
            assert hi0 - lo0 >= collapse
            assert (lo1 == lo0) != (hi1 == hi0)
            assert hi1 - lo1 == pytest.approx(golden * (hi0 - lo0), rel=1e-12)
        assert history[-1][1] - history[-1][0] < collapse

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
    """Trisection epochs or golden-ratio probes (one recorded interval
    each), or estimator epochs (closed ones plus the open one)."""
    if hasattr(policy, "interval_history"):
        return len(policy.interval_history)
    return policy.epochs_closed + 1


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

    def test_a_type_error_inside_a_policy_is_not_a_usage_error(self):
        # Only the call's own argument errors become ValueErrors; one raised
        # while the policy builds itself (here numpy's, on a bad seed) is not.
        with pytest.raises(TypeError):
            make_policy("thompson", [0.5], 10, rng=object())

    @pytest.mark.parametrize("name", POLICY_NAMES)
    @pytest.mark.parametrize(
        "revenues",
        [
            [1.5],
            [-0.1],
            [math.nan],
            [0.3, math.nan, 0.9],
            [math.nan, 0.2],
            [0.5, math.inf, 0.1],
            [0.5, -math.inf, 0.1],
            [0.2, 1.0000001],
            [-1e-300, 0.5],
        ],
    )
    def test_every_policy_rejects_bad_revenues(self, name, revenues):
        params = {"assortment": (1,)} if name == "static" else {}
        with pytest.raises(ValueError):
            make_policy(name, revenues, 10, rng=np.random.default_rng(0), params=params)

    def test_check_policy_params_matches_the_constructors(self):
        accepted = [
            ("trisection", {}),
            ("adaptive-trisection", {"ci_scale": 0.1}),
            ("adaptive-trisection", {"ci_scale": 2}),
            ("adaptive-trisection", {"ci_scale": np.float64(0.1)}),
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
            ("adaptive-trisection", {"ci_scale": "0.1"}),
            ("adaptive-trisection", {"ci_scale": True}),
            ("adaptive-trisection", {"ci_scale": np.True_}),
            ("ucb", {"c1": math.sqrt(48.0)}),
            ("ucb", {"c2": 48.0}),
        ]
        for name, params in rejected:
            with pytest.raises(ValueError):
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
