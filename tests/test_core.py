import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assortbench import properties
from assortbench.core import (
    BRUTE_FORCE_MAX_ITEMS,
    Instance,
    InvalidAssortmentError,
    LevelSetOracle,
    PreparedOffer,
    PurchaseOutcome,
    assortment_indices,
    brute_force_optimal,
    build_potential_profile,
    choice_probabilities,
    expected_revenue,
    kl_purchase_distributions,
    level_set,
    oracle_optimal,
    potential,
    sample_purchase,
)
from assortbench.harness import generate_lower_bound
from assortbench.policies import UcbPolicy


def small_instances():
    """Random instances with 1..12 items, revenues/utilities in [0,1]."""
    n = st.integers(min_value=1, max_value=12)
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    return n.flatmap(
        lambda k: st.tuples(
            st.lists(unit, min_size=k, max_size=k),
            st.lists(unit, min_size=k, max_size=k),
        )
    ).map(lambda rv: Instance(rv[0], rv[1]))


# Revenues drawn from a few exact values as well as the whole unit range,
# so that ties, zeros and ones are common.
_edgy_revenue = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
_edgy_utility = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)


def edgy_instances(max_items: int):
    """Instances with 1..max_items items whose revenues tie, hit 0 and 1,
    and whose utilities are often 0."""
    n = st.integers(min_value=1, max_value=max_items)
    return n.flatmap(
        lambda k: st.tuples(
            st.lists(_edgy_revenue, min_size=k, max_size=k),
            st.lists(_edgy_utility, min_size=k, max_size=k),
        )
    ).map(lambda rv: Instance(rv[0], rv[1]))


def edgy_offers(max_items: int):
    """(instance, assortment): an edgy instance and any subset of its items."""
    return edgy_instances(max_items).flatmap(
        lambda inst: st.tuples(
            st.just(inst),
            st.lists(st.booleans(), min_size=inst.n, max_size=inst.n).map(
                lambda keep: tuple(i + 1 for i, k in enumerate(keep) if k)
            ),
        )
    )


def loop_best(levels: LevelSetOracle, utilities):
    """The threshold loop that ``oracle_optimal`` ran before
    ``LevelSetOracle``: scan the level sets from the smallest up, keep
    strict improvements over 0, and mask the revenues at the best one."""
    values = levels.ranked_values(np.asarray(utilities, dtype=float)[levels.order])[::-1]
    best_value, best_theta = 0.0, None
    for i in range(values.size - 1, -1, -1):
        if values[i] > best_value:
            best_value = float(values[i])
            best_theta = float(levels.thresholds[i])
    if best_theta is None:
        return (), 0.0
    return tuple((np.flatnonzero(levels.revenues >= best_theta) + 1).tolist()), best_value


def two_pass_values(levels: LevelSetOracle, utilities):
    """``LevelSetOracle``'s level-set values before the one-pass kernel,
    verbatim but for the input checks: ascending thresholds through a
    gather of the prefix ends."""
    v = np.asarray(utilities, dtype=float)
    v_desc = v[levels.order]
    cum_v = np.cumsum(v_desc)
    cum_rv = np.cumsum(levels.sorted_revenues * v_desc)
    k = levels.prefix_len - 1
    return cum_rv[k] / (1.0 + cum_v[k])


def two_pass_best_indices(levels: LevelSetOracle, utilities):
    """The best level set as ``LevelSetOracle`` found it before the one-pass
    kernel, verbatim: the reversed argmax, then the level set rebuilt by a
    threshold scan, as 0-based item indices and the value."""
    values = two_pass_values(levels, utilities)
    # The first maximum of the reversed values is the largest maximizing
    # threshold.
    i = values.size - 1 - int(np.argmax(values[::-1]))
    if not values[i] > 0.0:
        return np.empty(0, dtype=np.intp), 0.0
    return np.flatnonzero(levels.revenues >= levels.thresholds[i]), float(values[i])


_quarter_revenues = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


def quarter_grid_cases(max_items: int):
    """(revenues, utilities): revenues on the quarter grid, so level sets
    tie, and utilities that are often 0, so prefix values tie too."""
    n = st.integers(min_value=1, max_value=max_items)
    return n.flatmap(
        lambda k: st.tuples(
            st.lists(_quarter_revenues, min_size=k, max_size=k),
            st.lists(_edgy_utility, min_size=k, max_size=k),
        )
    )


def cumsum_sample(instance, assortment, rng):
    """The sampler ``sample_purchase`` ran before ``PreparedOffer``: the
    cumulative utilities rebuilt on every call."""
    idx = np.asarray(assortment, dtype=np.int64) - 1
    u = rng.random()
    if idx.size == 0:
        return PurchaseOutcome(0, 0.0)
    cum = np.cumsum(instance.utilities[idx])
    scaled = u * (1.0 + cum[-1])
    if scaled < 1.0:
        return PurchaseOutcome(0, 0.0)
    pos = int(np.searchsorted(cum, scaled - 1.0, side="right"))
    if pos >= idx.size:
        pos = idx.size - 1
    return PurchaseOutcome(int(idx[pos]) + 1, float(instance.revenues[idx[pos]]))


# Revenue vectors the checks reject, with the message each raises. A NaN
# between finite values and an infinity of either sign must reach the
# extremes the check reads.
BAD_REVENUES = [
    ([1.5], r"lie in \[0, 1\]"),
    ([-0.1], r"lie in \[0, 1\]"),
    ([math.nan], "must be finite"),
    ([0.3, math.nan, 0.9], "must be finite"),
    ([math.nan, 0.2], "must be finite"),
    ([0.5, math.inf, 0.1], "must be finite"),
    ([0.5, -math.inf, 0.1], "must be finite"),
    ([0.2, 1.0000001], r"lie in \[0, 1\]"),
    ([-1e-300, 0.5], r"lie in \[0, 1\]"),
]


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            Instance([], [])
        with pytest.raises(ValueError):
            Instance([0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="one-dimensional"):
            Instance([[0.5]], [[1.0]])
        with pytest.raises(ValueError, match="one-dimensional"):
            Instance([0.5, 0.4], [[1.0, 2.0]])
        for revenues, named in BAD_REVENUES:
            with pytest.raises(ValueError, match=named):
                Instance(revenues, [1.0] * len(revenues))
        with pytest.raises(ValueError):
            Instance([0.5], [-0.1])
        with pytest.raises(ValueError):
            Instance([0.5], [float("inf")])
        # Finite utilities whose total 1 + sum(v) overflows.
        with pytest.raises(ValueError, match="total utility"):
            Instance([1.0, 1.0], [1e308, 1e308])

    def test_arrays_read_only(self):
        inst = Instance([0.5], [1.0])
        with pytest.raises(ValueError):
            inst.revenues[0] = 0.1


class TestExpectedRevenue:
    def test_empty_assortment(self):
        inst = Instance([0.5], [1.0])
        assert expected_revenue(inst, ()) == 0.0

    def test_single_item(self):
        inst = Instance([1.0], [1.0])
        assert expected_revenue(inst, (1,)) == 0.5

    def test_uniform_instance_value(self):
        # N identical items, r=0.45 and total utility 15: 6.75/16.
        n = 40
        inst = Instance([0.45] * n, [15.0 / n] * n)
        full = tuple(range(1, n + 1))
        assert expected_revenue(inst, full) == pytest.approx(0.421875, abs=1e-12)

    def test_invalid_assortment(self):
        inst = Instance([0.5, 0.6], [1.0, 1.0])
        for bad in ((0,), (3,), (2, 1), (1, 1)):
            with pytest.raises(InvalidAssortmentError):
                expected_revenue(inst, bad)

    @settings(max_examples=100, deadline=None)
    @given(small_instances())
    def test_consistency_with_choice_probabilities(self, inst):
        full = tuple(range(1, inst.n + 1))
        probs = choice_probabilities(inst, full)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        via_probs = float(np.dot(probs[1:], inst.revenues))
        assert expected_revenue(inst, full) == pytest.approx(via_probs, abs=1e-12)


class TestSamplePurchase:
    def test_empty_always_no_purchase(self):
        inst = Instance([0.5], [1.0])
        rng = np.random.default_rng(0)
        out = sample_purchase(inst, (), rng)
        assert out.item == 0 and out.revenue == 0.0

    def test_advances_stream_by_one_draw(self):
        inst = Instance([0.5], [1.0])
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        sample_purchase(inst, (1,), a)
        sample_purchase(inst, (), b)
        assert a.random() == b.random()

    def test_single_item_frequency(self):
        inst = Instance([1.0], [1.0])
        rng = np.random.default_rng(11)
        hits = sum(sample_purchase(inst, (1,), rng).item == 1 for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_two_item_frequency(self):
        # v1 = 1 - 1/(4*sqrt(100)) = 0.975, v2 = 1:
        # Pr[item 2] = 1/2.975 exactly.
        inst = Instance([1.0, 0.5], [0.975, 1.0])
        expected = 1.0 / 2.975
        assert expected == pytest.approx(0.33613445378151263, abs=1e-15)
        rng = np.random.default_rng(7)
        hits = sum(sample_purchase(inst, (1, 2), rng).item == 2 for _ in range(100_000))
        assert abs(hits / 100_000 - expected) < 0.01

    def test_outcome_revenue_matches_item(self):
        inst = Instance([0.3, 0.8], [2.0, 2.0])
        rng = np.random.default_rng(5)
        for _ in range(200):
            out = sample_purchase(inst, (1, 2), rng)
            if out.item == 0:
                assert out.revenue == 0.0
            else:
                assert out.revenue == inst.revenues[out.item - 1]


class TestPreparedOffer:
    @settings(max_examples=150, deadline=None)
    @given(edgy_offers(12), st.integers(min_value=0, max_value=2**32 - 1))
    # u = 1/2 lands on the cumulative utilities [1, 1, 3] exactly.
    @example(case=(Instance([0.5, 0.5, 0.5], [1.0, 0.0, 2.0]), (1, 2, 3)), seed=0)
    def test_twin_streams_agree_and_advance_one_draw_per_sample(self, case, seed):
        inst, assortment = case
        offer = PreparedOffer(inst, assortment)
        via_offer, via_function, via_cumsum, counter = (
            np.random.default_rng(seed) for _ in range(4)
        )
        # A pre-drawn block: uniforms that put u (1 + sum v) - 1 on each
        # cumulative utility, then the seed's stream.
        cum = offer.cum_utilities.tolist()
        edges = [u for u in ((1.0 + c) / (1.0 + cum[-1]) for c in cum) if u < 1.0]
        block = edges + np.random.default_rng(seed).random(21).tolist()
        via_block = SimpleNamespace(random=iter(block).__next__)
        edges_via_cumsum = SimpleNamespace(random=iter(edges).__next__)
        for _ in edges:
            out = offer.sample(via_block)
            assert out == cumsum_sample(inst, assortment, edges_via_cumsum)
        for _ in range(20):
            out = offer.sample(via_offer)
            assert out == sample_purchase(inst, assortment, via_function)
            assert out == cumsum_sample(inst, assortment, via_cumsum)
            assert out == offer.sample(via_block)
            counter.random()
        assert via_offer.random() == via_function.random() == counter.random() == via_block.random()
        # The block drawn in one pass: the revenues the draws one by one make.
        one_by_one = SimpleNamespace(random=iter(block).__next__)
        revenues = [repr(offer.sample(one_by_one).revenue) for _ in block]
        assert [repr(r) for r in offer.purchase_revenues(np.array(block)).tolist()] == revenues

    @settings(max_examples=150, deadline=None)
    @given(edgy_instances(30))
    def test_offer_of_prefix_indices_is_the_validated_offer(self, inst):
        # A level-set offer built from the oracle's sort, its indices taken
        # unchecked, is bit for bit the offer its item ids make through the
        # validating constructor, at every size.
        levels = LevelSetOracle(inst.revenues)
        uniforms = np.concatenate(
            ([0.0, 0.5, float(np.nextafter(1.0, 0.0))], np.random.default_rng(0).random(61))
        )
        for size in range(inst.n + 1):
            fast = PreparedOffer.of_indices(inst, levels.prefix_indices(size))
            checked = PreparedOffer(inst, levels.prefix(size))
            assert fast.indices.dtype == checked.indices.dtype
            assert fast.indices.tobytes() == checked.indices.tobytes()
            assert fast.cum_utilities.tobytes() == checked.cum_utilities.tobytes()
            assert repr(fast.expected_revenue()) == repr(checked.expected_revenue())
            assert fast.probabilities().tobytes() == checked.probabilities().tobytes()
            revenues = fast.purchase_revenues(uniforms)
            assert revenues.tobytes() == checked.purchase_revenues(uniforms).tobytes()
            streams = [SimpleNamespace(random=iter(uniforms.tolist()).__next__) for _ in "ab"]
            outcomes = [fast.sample(streams[0]) for _ in uniforms]
            assert outcomes == [checked.sample(streams[1]) for _ in uniforms]
            if size == 0:
                assert not revenues.any() and all(o is outcomes[0] for o in outcomes)
                assert outcomes[0] == PurchaseOutcome(0, 0.0)

    def test_holds_indices_and_cumulative_utilities(self):
        inst = Instance([0.1, 0.2, 0.3], [1.0, 2.0, 4.0])
        offer = PreparedOffer(inst, (1, 3))
        assert offer.indices.tolist() == [0, 2]
        assert offer.cum_utilities.tolist() == [1.0, 5.0]

    def test_rejects_invalid_assortment(self):
        inst = Instance([0.5, 0.6], [1.0, 1.0])
        for bad in ((0,), (3,), (2, 1), (1, 1)):
            with pytest.raises(InvalidAssortmentError):
                PreparedOffer(inst, bad)

    # numpy reads a mix of booleans and integers as integers: (True, 2) as [1, 2].
    @pytest.mark.parametrize(
        "bad",
        [(1.7,), ("2",), (True,), ((1, 2),), [[1], [2]], (True, 2), [np.True_, 2]],
    )
    @pytest.mark.parametrize(
        "use",
        [
            expected_revenue,
            choice_probabilities,
            lambda inst, a: sample_purchase(inst, a, np.random.default_rng(0)),
        ],
        ids=["expected_revenue", "choice_probabilities", "sample_purchase"],
    )
    def test_item_ids_must_be_a_flat_integer_sequence(self, use, bad):
        inst = Instance([0.5, 0.6], [1.0, 1.0])
        with pytest.raises(InvalidAssortmentError):
            use(inst, bad)

    def test_assortment_indices_are_zero_based_int64(self):
        for ids in ((1, 3), np.array([1, 3], dtype=np.int32), np.array([1, 3], dtype=np.uint8)):
            idx = assortment_indices(ids, 3)
            assert idx.dtype == np.int64 and idx.tolist() == [0, 2]
        assert assortment_indices((), 3).tolist() == []
        with pytest.raises(InvalidAssortmentError, match="out of range"):
            assortment_indices((4,), 3)

    def test_offers_sharing_outcomes_return_one_object_per_item(self):
        inst = Instance([0.5, 0.6], [1.0, 1.0])
        outcomes = {}
        alone, both = PreparedOffer(inst, (2,), outcomes), PreparedOffer(inst, (1, 2), outcomes)
        top = SimpleNamespace(random=lambda: 0.99)  # buys the last item of either offer
        first = alone.sample(top)
        assert first == PurchaseOutcome(2, 0.6)
        assert both.sample(top) is first and alone.sample(top) is first
        assert outcomes == {1: first}

    def test_rejects_offer_of_another_instance(self):
        inst = Instance([0.5, 0.6], [1.0, 1.0])
        offer = PreparedOffer(Instance([0.5, 0.6], [1.0, 1.0]), (1,))
        with pytest.raises(ValueError):
            sample_purchase(inst, offer, np.random.default_rng(0))

    @settings(max_examples=150, deadline=None)
    @given(edgy_offers(20))
    def test_expected_revenue_of_offer_equals_tuple_bit_for_bit(self, case):
        inst, assortment = case
        offer = PreparedOffer(inst, assortment)
        assert repr(expected_revenue(inst, offer)) == repr(expected_revenue(inst, assortment))
        twin = Instance(inst.revenues, inst.utilities)
        with pytest.raises(ValueError):
            expected_revenue(twin, offer)


class TestLevelSets:
    def test_theta_zero_gives_all_items(self):
        inst = Instance([0.2, 0.9, 0.5], [1.0, 1.0, 1.0])
        assert level_set(inst, 0.0) == (1, 2, 3)

    def test_theta_above_max_gives_empty(self):
        inst = Instance([0.2, 0.9], [1.0, 1.0])
        assert level_set(inst, 0.95) == ()

    def test_boundary_inclusive(self):
        inst = Instance([0.2, 0.9], [1.0, 1.0])
        assert level_set(inst, 0.9) == (2,)

    def test_negative_theta_rejected(self):
        inst = Instance([0.2], [1.0])
        for check in (
            lambda t: level_set(inst, t),
            lambda t: potential(inst, t),
            build_potential_profile(inst).value_at,
            LevelSetOracle(inst.revenues).level_size,
        ):
            for theta in (-0.1, math.nan):
                with pytest.raises(ValueError, match="theta must be nonnegative"):
                    check(theta)

    def test_synthetic_fraction_near_point_eight(self):
        rng = np.random.default_rng(42)
        n = 5000
        inst = Instance(rng.uniform(0.4, 0.5, n), rng.uniform(10 / n, 20 / n, n))
        frac = len(level_set(inst, 0.42)) / n
        assert abs(frac - 0.8) < 0.03


class TestPotential:
    def test_single_item(self):
        inst = Instance([0.6], [1.0])
        assert potential(inst, 0.3) == pytest.approx(0.3, abs=1e-15)
        assert potential(inst, 0.7) == 0.0

    def test_profile_single_item(self):
        profile = build_potential_profile(Instance([0.6], [1.0]))
        assert profile.jump_points == (0.6,)
        assert profile.values == pytest.approx((0.3, 0.0), abs=1e-15)
        assert profile.f_star == pytest.approx(0.3, abs=1e-15)

    def test_equal_plateaus_kept(self):
        # (r,v) = (1,1),(0.5,1): both level sets have value 0.5, and each
        # distinct revenue keeps its own step.
        profile = build_potential_profile(Instance([1.0, 0.5], [1.0, 1.0]))
        assert profile.jump_points == (0.5, 1.0)
        assert profile.values == (0.5, 0.5, 0.0)
        assert profile.f_star == 0.5

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(edgy_instances(20), quarter_grid_cases(20).map(lambda rv: Instance(*rv))))
    # A step within 1e-12 of its neighbour, an optimum below 1e-12, and a
    # level set worth -0.0.
    @example(Instance([0.9, 0.4], [1.0, 1e-12]))
    @example(Instance([1.0], [1e-14]))
    @example(Instance([-0.0], [1.0]))
    def test_profile_optimum_is_the_oracles_bit_for_bit(self, inst):
        profile = build_potential_profile(inst)
        assert repr(profile.f_star) == repr(oracle_optimal(inst)[1])
        levels = LevelSetOracle(inst.revenues)
        assert profile.jump_points == tuple(levels.thresholds.tolist())
        assert len(profile.values) == len(profile.jump_points) + 1 and profile.values[-1] == 0.0

    def test_profile_matches_pointwise_potential(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            inst = Instance(rng.random(n), rng.random(n))
            profile = build_potential_profile(inst)
            for theta in np.linspace(0.0, 1.05, 57):
                assert profile.value_at(theta) == pytest.approx(
                    potential(inst, theta), abs=1e-12
                )

    def test_left_continuity_at_jumps(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            inst = Instance(rng.random(n), rng.random(n))
            profile = build_potential_profile(inst)
            for i, s in enumerate(profile.jump_points):
                assert potential(inst, s) == pytest.approx(
                    profile.values[i], abs=1e-12
                )

    def test_value_at_jump_points_with_tied_revenues(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            inst = Instance(rng.integers(1, 5, size=n) / 4.0, rng.random(n))
            profile = build_potential_profile(inst)
            for s in profile.jump_points:
                assert abs(profile.value_at(s) - potential(inst, s)) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(small_instances())
    def test_fixed_point(self, inst):
        assert properties.is_fixed_point(inst, build_potential_profile(inst))

    @settings(max_examples=150, deadline=None)
    @given(small_instances())
    def test_values_unimodal(self, inst):
        assert properties.is_unimodal(build_potential_profile(inst).values)

    @settings(max_examples=100, deadline=None)
    @given(small_instances())
    def test_monotone_geometry_around_fixed_point(self, inst):
        grid = np.linspace(0.0, 1.0, 101)
        assert properties.geometry_holds(build_potential_profile(inst), grid)


class TestOptimalAssortment:
    def test_single_item(self):
        assert oracle_optimal(Instance([1.0], [1.0])) == ((1,), 0.5)

    def test_zero_revenue_instance_gives_empty(self):
        assortment, value = oracle_optimal(Instance([0.0, 0.0], [1.0, 2.0]))
        assert assortment == () and value == 0.0

    def test_tie_breaks_toward_smallest_level_set(self):
        # Both {1} and {1,2} achieve 0.5; the smaller set wins.
        assortment, value = oracle_optimal(Instance([1.0, 0.5], [1.0, 1.0]))
        assert assortment == (1,)
        assert value == 0.5

    @settings(max_examples=200, deadline=None)
    @given(small_instances())
    def test_matches_brute_force(self, inst):
        _, level_best = oracle_optimal(inst)
        _, subset_best = brute_force_optimal(inst)
        assert abs(level_best - subset_best) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(edgy_instances(40))
    def test_best_matches_threshold_loop(self, inst):
        levels = LevelSetOracle(inst.revenues)
        assert oracle_optimal(inst) == loop_best(levels, inst.utilities)

    @settings(max_examples=200, deadline=None)
    @given(edgy_instances(12))
    def test_best_matches_brute_force_value(self, inst):
        assortment, value = oracle_optimal(inst)
        _, subset_best = brute_force_optimal(inst)
        assert abs(value - subset_best) <= 1e-12
        assert abs(value - expected_revenue(inst, assortment)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(edgy_instances(20), quarter_grid_cases(20).map(lambda rv: Instance(*rv))))
    def test_values_are_level_set_revenues(self, inst):
        levels = LevelSetOracle(inst.revenues)
        values = levels.ranked_values(inst.utilities[levels.order])[::-1]
        assert levels.thresholds.tolist() == sorted(set(inst.revenues.tolist()))
        for theta, size, value in zip(levels.thresholds, levels.prefix_len, values):
            assert len(level_set(inst, theta)) == size
            assert value == pytest.approx(
                expected_revenue(inst, level_set(inst, theta)), rel=1e-12, abs=1e-15
            )
        neighbours = [
            float(np.nextafter(s, toward))
            for s in levels.thresholds.tolist()
            for toward in (-math.inf, math.inf)
            if np.nextafter(s, toward) >= 0.0
        ]
        for theta in [*levels.thresholds.tolist(), *neighbours, 0.0, 0.3, 1.0, 2.0]:
            assert levels.prefix(levels.level_size(theta)) == level_set(inst, theta)

    @settings(max_examples=150, deadline=None)
    @given(edgy_instances(20))
    def test_prefix_is_the_sorted_start_of_the_order(self, inst):
        levels = LevelSetOracle(inst.revenues)
        offers = [levels.prefix(size) for size in range(inst.n + 1)]
        for size, offer in enumerate(offers):
            indices = levels.prefix_indices(size)
            assert indices.dtype == np.int64
            assert indices.tolist() == np.sort(levels.order[:size]).tolist()
            assert list(offer) == (indices + 1).tolist()
            assert all(type(i) is int for i in offer)
        for theta, size in zip(levels.thresholds.tolist(), levels.prefix_len.tolist()):
            assert offers[size] == level_set(inst, theta)
            assert levels.level_size(theta) == size
            assert type(levels.level_size(theta)) is int

    @settings(max_examples=300, deadline=None)
    @given(quarter_grid_cases(30))
    @example(([0.5], [1.0]))
    @example(([0.5], [0.0]))
    @example(([0.0, 0.0, 0.0], [1.0, 2.0, 0.0]))
    @example(([1.0, 0.5, 1.0, 0.5], [1.0, 1.0, 0.0, 1.0]))
    def test_one_pass_matches_two_pass_bit_for_bit(self, case):
        revenues, utilities = case
        levels = LevelSetOracle(revenues)
        ranked = np.asarray(utilities, dtype=float)[levels.order]
        values = levels.ranked_values(ranked.tolist())[::-1]
        reference = repr(two_pass_values(levels, utilities).tolist())
        assert repr(values.tolist()) == reference
        assert repr(levels.ranked_values(ranked)[::-1].tolist()) == reference
        size, value = levels.best_prefix(lambda m: ranked[:m])
        ref_idx, ref_value = two_pass_best_indices(levels, utilities)
        assert size == ref_idx.size
        assert levels.prefix(size) == tuple((ref_idx + 1).tolist())
        assert repr(value) == repr(ref_value)
        assert oracle_optimal(Instance(revenues, utilities)) == (levels.prefix(size), value)
        # No scratch buffer escapes: later calls leave a returned array alone.
        levels.ranked_values([2.0 * u + 1.0 for u in ranked.tolist()])
        levels.ranked_values(ranked[::-1] + 1.0)
        assert repr(values.tolist()) == reference

    @settings(max_examples=150, deadline=None)
    @given(edgy_instances(20), st.data())
    def test_re_solve_offers_the_best_prefix(self, inst, data):
        levels = LevelSetOracle(inst.revenues)
        # A few utility vectors re-drawn in any order, so sizes repeat.
        pool = data.draw(
            st.lists(
                st.lists(_edgy_utility, min_size=inst.n, max_size=inst.n), min_size=1, max_size=4
            )
        )
        sequence = [inst.utilities.tolist(), *data.draw(st.lists(st.sampled_from(pool), max_size=8))]
        ranked = [np.array(utilities)[levels.order] for utilities in sequence]
        policy = UcbPolicy(levels, len(sequence) + 1)
        # Each epoch re-solves the next vector, read as far as the re-solve asks.
        policy._estimates = iter([lambda m, e=e: e[:m] for e in ranked]).__next__
        assert policy.next_offer() == inst.n
        for utilities in sequence:
            policy.observe(PurchaseOutcome(0, 0.0))  # closes the epoch
            size = policy.next_offer()
            assert size == two_pass_best_indices(levels, utilities)[0].size
            assert levels.prefix(size) == oracle_optimal(Instance(inst.revenues, utilities))[0]

    @settings(max_examples=300, deadline=None)
    @given(
        edgy_instances(40).flatmap(
            lambda inst: st.tuples(st.just(inst), st.none() | st.integers(0, inst.n))
        )
    )
    # Subnormal products round up, from half the smallest subnormal to all
    # of it: the computed value of all four items exceeds the first item's
    # although no exact one does, so a relative slack alone stops too soon.
    @example((Instance([1.0] + [5e-324] * 3, [5e-324] + [0.5 + 2.0**-20] * 3), 0))
    # The second revenue is the first item's computed value, so no exact
    # value of both items exceeds it; their computed value does by a last
    # bit, which a stop without the relative slack would miss.
    @example((Instance([1.0, 0.2013073198249323], [0.2520460307471545, 2.4979324429601935]), 0))
    @example((Instance([0.9, 0.1, 0.05], [1.0, 1.0, 1.0]), 0))
    def test_leading_re_solve_matches_the_full_one(self, case):
        inst, start = case
        levels = LevelSetOracle(inst.revenues)
        ranked = inst.utilities[levels.order]
        reads = []

        def estimates(m):
            reads.append(m)
            return ranked[:m]

        size, value = levels.best_prefix(estimates, start)
        ref_idx, ref_value = two_pass_best_indices(levels, inst.utilities)
        assert size == ref_idx.size
        assert repr(value) == repr(ref_value)
        # Every block is a level set; the first is all N ranks with no start,
        # else the smallest one holding ``start`` ranks, and each later one
        # at least doubles.
        sizes = set(levels.prefix_len.tolist())
        assert all(m in sizes for m in reads)
        first = inst.n if start is None else max(start, 1)
        assert reads[0] == min(m for m in sizes if m >= first)
        assert all(b >= min(2 * a, inst.n) and b > a for a, b in zip(reads, reads[1:]))

    def test_leading_re_solve_checks_only_what_it_reads(self):
        levels = LevelSetOracle([0.9, 0.1, 0.05])
        # Item 1 alone earns 0.45; past two ranks nothing reaches it, so the
        # NaN at rank 3 is never read from a start of 2, and raises from 3
        # or with no start.
        utilities = np.array([1.0, 1.0, math.nan])
        assert levels.best_prefix(lambda m: utilities[:m], 2) == (1, 0.45)
        with pytest.raises(ValueError, match="finite"):
            levels.best_prefix(lambda m: utilities[:m], 3)
        with pytest.raises(ValueError, match="finite"):
            levels.best_prefix(lambda m: utilities[:m])
        with pytest.raises(ValueError, match="nonnegative"):
            levels.best_prefix(lambda m: np.array([1.0, -1.0, 0.0])[:m], 0)
        with pytest.raises(ValueError, match="length mismatch"):
            levels.best_prefix(lambda m: np.ones(3), 0)

    def test_revenues_checked_once_at_construction(self):
        for revenues, named in BAD_REVENUES:
            with pytest.raises(ValueError, match=named):
                LevelSetOracle(revenues)
        for bad in ([], [[0.5]]):
            with pytest.raises(ValueError, match="nonempty vector"):
                LevelSetOracle(bad)

    def test_utilities_checked_on_every_call(self):
        levels = LevelSetOracle([0.5, 0.6])
        cases = [
            ([1.0, -1.0], "nonnegative"),
            ([-1.0, 0.0], "nonnegative"),
            ([1.0, math.inf], "finite"),
            ([-math.inf, 1.0], "finite"),
            ([-1.0, math.inf], "finite"),
            ([1.0, math.nan], "finite"),
            ([math.nan, -1.0], "finite"),
            ([1e308, 1e308], "must be finite"),  # finite, but the total overflows
            ([1.0], "length mismatch"),
        ]
        checks = (
            levels.ranked_values,
            lambda u: oracle_optimal(Instance(levels.revenues, u)),
        )
        for bad, named in cases:
            for check in checks:
                with pytest.raises(ValueError, match=named):
                    check(bad)

    def test_brute_force_cap(self):
        n = BRUTE_FORCE_MAX_ITEMS + 1
        with pytest.raises(ValueError):
            brute_force_optimal(Instance([0.5] * n, [1.0] * n))


class TestKlDivergence:
    def _pair(self, horizon):
        bump = 1.0 / (4.0 * math.sqrt(horizon))
        p0 = Instance([1.0, 0.5], [1.0 - bump, 1.0])
        p1 = Instance([1.0, 0.5], [1.0 + bump, 1.0])
        return p0, p1

    def test_identical_instances(self):
        inst = Instance([0.5, 0.4], [1.0, 2.0])
        assert kl_purchase_distributions(inst, inst, (1, 2)) == 0.0

    def test_exact_value_against_direct_sum(self):
        p0, p1 = self._pair(100)
        for assortment in ((1,), (1, 2)):
            idx = [i - 1 for i in assortment]
            d0 = 1.0 + sum(p0.utilities[i] for i in idx)
            d1 = 1.0 + sum(p1.utilities[i] for i in idx)
            p = [1.0 / d0] + [p0.utilities[i] / d0 for i in idx]
            q = [1.0 / d1] + [p1.utilities[i] / d1 for i in idx]
            direct = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
            assert kl_purchase_distributions(p0, p1, assortment) == pytest.approx(
                direct, abs=1e-15
            )

    def test_assortment_without_item_one_has_zero_divergence(self):
        p0, p1 = self._pair(100)
        assert kl_purchase_distributions(p0, p1, (2,)) == 0.0

    def test_support_mismatch_raises(self):
        p0 = Instance([0.5], [1.0])
        p1 = Instance([0.5], [0.0])
        with pytest.raises(ValueError):
            kl_purchase_distributions(p0, p1, (1,))

    def test_item_counts_must_match(self):
        with pytest.raises(ValueError, match="same number of items"):
            kl_purchase_distributions(
                Instance([0.5], [1.0]), Instance([0.5, 0.5], [1.0, 1.0]), (1,)
            )

    def test_offered_item_of_zero_utility_is_skipped(self):
        # The hard pair's third item has zero utility under both instances:
        # it is never bought, and adds nothing to the divergence.
        p0, p1 = generate_lower_bound("P0", 3, 100), generate_lower_bound("P1", 3, 100)
        assert kl_purchase_distributions(p0, p1, (1, 3)) == kl_purchase_distributions(
            p0, p1, (1,)
        )
