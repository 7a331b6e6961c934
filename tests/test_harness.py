import gc
import hashlib
import itertools
import json
import tracemalloc
import weakref
from array import array

import numpy as np
import pytest

from assortbench import harness
from assortbench.core import (
    InvalidAssortmentError,
    PurchaseOutcome,
    expected_revenue,
    oracle_optimal,
    sample_purchase,
)
from assortbench.harness import (
    UNIFORM_BLOCK,
    EpisodeLog,
    RunConfig,
    derive_seed,
    fitted_exponent,
    generate_lower_bound,
    generate_synthetic,
    run_batch,
    run_episode,
    summaries_to_json,
    worker_pool,
    write_episode_csv,
)
from assortbench.policies import POLICY_NAMES


class Scripted:
    """A stand-in policy that offers its script's offers in turn, each for
    one period."""

    held = 1

    def __init__(self, offers):
        self._offers = offers

    def next_offer(self):
        return next(self._offers)

    def observe(self, outcome):
        pass


def script(monkeypatch, offers):
    """Make ``run_episode`` drive a ``Scripted`` policy fed the iterator
    ``offers``, whatever policy it is asked for."""
    monkeypatch.setattr(harness, "make_policy", lambda *args, **kwargs: Scripted(offers))


class TestGenerators:
    def test_synthetic_ranges(self):
        inst = generate_synthetic(200, seed=0)
        assert np.all((inst.revenues >= 0.4) & (inst.revenues <= 0.5))
        assert np.all((inst.utilities >= 10 / 200) & (inst.utilities <= 20 / 200))

    def test_synthetic_deterministic(self):
        assert generate_synthetic(50, seed=3) == generate_synthetic(50, seed=3)
        assert generate_synthetic(50, seed=3) != generate_synthetic(50, seed=4)

    def test_law_of_large_numbers(self):
        inst = generate_synthetic(1000, seed=1)
        assert inst.utilities.sum() == pytest.approx(15.0, rel=0.05)
        assert inst.revenues.mean() == pytest.approx(0.45, rel=0.05)

    def test_optimal_value_concentrates(self):
        for seed in range(20):
            _, value = oracle_optimal(generate_synthetic(1000, seed=seed))
            assert 0.42 < value < 0.43

    def test_lower_bound_construction(self):
        p1 = generate_lower_bound("P1", 4, 100)
        assert tuple(p1.revenues) == (1.0, 0.5, 0.0, 0.0)
        assert p1.utilities[0] == pytest.approx(1.025, abs=1e-15)
        assert tuple(p1.utilities[1:]) == (1.0, 0.0, 0.0)
        p0 = generate_lower_bound("P0", 2, 100)
        assert p0.utilities[0] == pytest.approx(0.975, abs=1e-15)

    def test_lower_bound_validation(self):
        with pytest.raises(ValueError):
            generate_lower_bound("P2", 2, 100)
        with pytest.raises(ValueError):
            generate_lower_bound("P0", 1, 100)
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            generate_lower_bound("P0", 2, 0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            generate_synthetic(0)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit_range(self):
        s = derive_seed(123, "customer")
        assert 0 <= s < 2**64


class TestRunEpisode:
    def test_static_oracle_has_zero_regret(self):
        inst = generate_synthetic(30, seed=2)
        best, _ = oracle_optimal(inst)
        log = run_episode(inst, "static", 50, 0, policy_params={"assortment": best})
        assert log.cumulative_regret == pytest.approx(0.0, abs=1e-12)

    def test_static_empty_pays_full_gap(self):
        inst = generate_synthetic(30, seed=2)
        _, f_star = oracle_optimal(inst)
        log = run_episode(inst, "static", 50, 0, policy_params={"assortment": ()})
        assert log.cumulative_regret == pytest.approx(50 * f_star, abs=1e-9)

    def test_exact_horizon_and_accounting(self):
        inst = generate_synthetic(30, seed=4)
        log = run_episode(inst, "adaptive-trisection", 200, 1)
        assert log.horizon == 200
        total = 200 * log.optimal_value - sum(s[2] for s in log.steps)
        assert log.cumulative_regret == pytest.approx(total, abs=1e-9)
        assert all(s[3] >= -1e-12 for s in log.steps)

    def test_deterministic(self):
        inst = generate_synthetic(30, seed=4)
        a = run_episode(inst, "thompson", 300, 9)
        b = run_episode(inst, "thompson", 300, 9)
        assert a.assortments == b.assortments
        assert a.rewards.tolist() == b.rewards.tolist()

    def test_block_uniforms_equal_one_draw_per_period(self):
        # Two block boundaries and a partial last block.
        horizon = 2 * UNIFORM_BLOCK + 7
        inst = generate_synthetic(30, seed=6)
        _, optimal_value = oracle_optimal(inst)
        offer = tuple(range(1, 31))
        log = run_episode(inst, "static", horizon, 5, policy_params={"assortment": offer})
        rng = np.random.default_rng(derive_seed(5, "customer"))
        rewards = [sample_purchase(inst, offer, rng).revenue for _ in range(horizon)]
        assert log.rewards.tolist() == rewards
        regret = optimal_value - expected_revenue(inst, offer)
        assert [s[3] for s in log.steps] == [regret] * horizon

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_finished_policy_is_freed_without_a_collection(self, name):
        # A policy and its decision generator refer to each other; the cycle
        # must be broken once the last outcome is observed.
        params = {"assortment": (1, 3)} if name == "static" else None
        inst = generate_synthetic(20, seed=3)
        gc.disable()
        try:
            ref = weakref.ref(run_episode(inst, name, 300, 2, policy_params=params).policy)
            assert ref() is None
        finally:
            gc.enable()

    def test_cumulative_regret_adds_left_to_right(self):
        # A compensated sum, as the builtin sum of floats is from CPython
        # 3.12 on, gives 2.0 here and would change the reference bits.
        # Each offer's regret is minus its expected revenue: the optimal value is 0.
        regrets = [1.0, 1e100, 1.0, -1e100]
        offers = [((1,), -1.0), ((2,), -1e100), ((3,), 1e100)]
        log = EpisodeLog(
            policy_name="static",
            seed=0,
            optimal_value=0.0,
            offers=offers,
            offer_index=array("q", [0, 1, 0, 2]),
            rewards=array("d", [0.0] * 4),
        )
        assert [step[3] for step in log.steps] == regrets
        assert log.cumulative_regret == 0.0

    def test_tuple_offers_read_back_without_an_oracle(self):
        offers = [((1,), 0.0), ((2, 3), 0.0)]
        log = EpisodeLog(
            policy_name="static",
            seed=0,
            optimal_value=0.0,
            offers=offers,
            offer_index=array("q", [0, 1, 0]),
        )
        assert log.levels is None
        assert [id(a) for a in log.assortments] == [id(offers[k][0]) for k in (0, 1, 0)]

    @pytest.mark.parametrize("name", (*POLICY_NAMES, "sizes-and-a-tuple"))
    def test_assortments_share_one_int_per_item(self, monkeypatch, name):
        # A level-set offer is the tuple levels.prefix(size) gives, a tuple
        # offer the policy's own, and across the level-set offers each item
        # id is one int object. N is well above 256: CPython caches the
        # ints up to 256.
        if name == "sizes-and-a-tuple":
            script(monkeypatch, itertools.cycle((1500, 0, (3, 900), 2000, 700)))
        params = {"assortment": (3, 700, 1999)} if name == "static" else None
        log = run_episode(generate_synthetic(2000, seed=3), name, 4000, 7, policy_params=params)
        assortments = log.assortments
        assert len({id(a) for a in assortments}) == len(log.offers)
        level_sets = []
        for k, (offer, *_) in enumerate(log.offers):
            read = assortments[log.offer_index.index(k)]
            if isinstance(offer, tuple):
                assert read is offer
            else:
                assert read == log.levels.prefix(offer)
                level_sets.append(read)
        if name in ("thompson", "ucb", "trisection"):
            assert sum(len(a) > 0 for a in level_sets) > 1
        ints = [i for offer in level_sets for i in offer]
        assert len({id(i) for i in ints}) == len(set(ints))

    def test_offers_must_be_tuples(self, monkeypatch):
        # One list edited between periods would be found again by identity
        # and valued, sampled and logged as its first contents.
        class Aliasing:
            held = 1  # each offer is one period's

            def __init__(self, *args, **kwargs):
                self._offer, self._t = [], 0

            def next_offer(self):
                self._offer[:] = [1, 2] if self._t % 2 == 0 else [3]
                self._t += 1
                return self._offer

            def observe(self, outcome):
                pass

        monkeypatch.setattr(harness, "make_policy", Aliasing)
        inst = generate_synthetic(10, seed=1)
        with pytest.raises(TypeError, match=r"Aliasing\) offered a list"):
            harness.run_episode(inst, "static", 4, seed=1)

    @pytest.mark.parametrize("offer", [(0,), (11,), (2, 1), (3, 3), (1.5,)])
    def test_tuple_offers_are_validated(self, monkeypatch, offer):
        # Only a size is prepared from the oracle's sort unchecked; a tuple
        # offer's item ids are validated when it is first prepared.
        script(monkeypatch, itertools.repeat(offer))
        with pytest.raises(InvalidAssortmentError):
            harness.run_episode(generate_synthetic(10, seed=1), "static", 4, seed=1)

    @pytest.mark.parametrize("offer", [True, -1, 11, np.int64(2), 2.0, None])
    def test_sizes_must_be_ints_within_the_items(self, monkeypatch, offer):
        script(monkeypatch, itertools.repeat(offer))
        inst = generate_synthetic(10, seed=1)
        name = type(offer).__name__
        with pytest.raises(TypeError, match=rf"Scripted\) offered a {name}; .* \[0, 10\]"):
            harness.run_episode(inst, "static", 4, seed=1)

    @pytest.mark.parametrize(
        "sequence, horizon, prepared", [((3, 7), 100, 2), ((3, 7, 3, 5, 3), 5, 3)]
    )
    def test_two_most_recent_offers_stay_prepared(self, monkeypatch, sequence, horizon, prepared):
        # A returning offer is prepared again only once two other offers
        # have been used since it was last offered.
        built = []
        fill = harness.PreparedOffer._fill  # run by every way of preparing an offer

        def counting_fill(offer, *args):
            built.append(args[1])
            fill(offer, *args)

        script(monkeypatch, itertools.cycle(sequence))
        monkeypatch.setattr(harness.PreparedOffer, "_fill", counting_fill)
        log = harness.run_episode(generate_synthetic(10, seed=1), "cycle", horizon, seed=1)
        assert len(built) == prepared
        assert [offer for offer, *_ in log.offers] == list(dict.fromkeys(sequence))

    def test_each_item_has_one_outcome(self, monkeypatch):
        outcomes = []

        def recording_sample_purchase(instance, offer, rng):
            outcome = sample_purchase(instance, offer, rng)
            outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(harness, "sample_purchase", recording_sample_purchase)
        inst = generate_synthetic(20, seed=2)
        log = run_episode(inst, "thompson", 2000, 3)
        assert len({id(offer) for offer in log.assortments}) > 1
        first = {}
        for outcome in outcomes:
            assert first.setdefault(outcome.item, outcome) is outcome
        assert len(first) > 2
        for item, outcome in first.items():
            revenue = inst.revenues[item - 1] if item else 0.0
            assert outcome == PurchaseOutcome(item, revenue)

    def test_long_episode_log_stays_small(self):
        # About 16 bytes a period: an offer index and a reward.
        inst = generate_synthetic(100, seed=3)
        horizon = 10**5
        tracemalloc.start()
        try:
            log = run_episode(inst, "adaptive-trisection", horizon, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log.horizon == horizon
        assert peak / horizon <= 32

    def test_episode_memory_is_linear_in_items(self):
        # About 16 bytes a period and a few hundred bytes an item, however
        # many distinct offers (about 415 here) the episode makes.
        n, horizon = 2000, 32_000
        inst = generate_synthetic(n, seed=3)
        tracemalloc.start()
        try:
            log = run_episode(inst, "thompson", horizon, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log.offers) > 100
        assert peak <= 16 * horizon + 1000 * n
        # Read back, its 415 distinct offers hold 478,739 item ids; with a
        # new int object per id above 256 they took 36 bytes an id.
        tracemalloc.start()
        try:
            assortments = log.assortments
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ids = sum(len(a) for a in {id(a): a for a in assortments}.values())
        assert ids > 100 * n
        assert peak <= 10 * ids

    @pytest.mark.parametrize("name", (*POLICY_NAMES, "duck-typed"))
    def test_optimal_value_is_oracle_optimal(self, monkeypatch, name):
        if name == "duck-typed":
            script(monkeypatch, itertools.repeat((1,)))
        params = {"assortment": (1,)} if name == "static" else None
        for n, seed in ((1, 0), (30, 4), (200, 5)):
            inst = generate_synthetic(n, seed=seed)
            log = harness.run_episode(inst, name, 40, seed, policy_params=params)
            assert log.optimal_value == oracle_optimal(inst)[1]


class TestRunBatch:
    def test_single_replication_mean_equals_max(self):
        config = RunConfig(policy="grs", n=20, horizon=100, replications=1, master_seed=5)
        summary = run_batch(config)
        assert summary.mean_regret == summary.max_regret
        assert len(summary.regrets) == 1

    def test_parallel_matches_serial(self):
        config = RunConfig(
            policy="thompson", n=20, horizon=150, replications=4, master_seed=6
        )
        assert run_batch(config, workers=1) == run_batch(config, workers=2)

    def test_instance_fixed_across_replications(self):
        config = RunConfig(policy="grs", n=15, horizon=50, replications=3, master_seed=7)
        assert config.build_instance(0) == config.build_instance(2)
        redraw = RunConfig(
            policy="grs",
            n=15,
            horizon=50,
            replications=3,
            master_seed=7,
            redraw_instance=True,
        )
        assert redraw.build_instance(0) != redraw.build_instance(2)

    @pytest.mark.parametrize("redraw, builds", [(False, 1), (True, 4)])
    def test_fixed_instance_is_built_once(self, monkeypatch, redraw, builds):
        seeds = []

        def counting_generate_synthetic(n, seed):
            seeds.append(seed)
            return generate_synthetic(n, seed=seed)

        monkeypatch.setattr(harness, "generate_synthetic", counting_generate_synthetic)
        config = RunConfig(
            policy="grs", n=15, horizon=50, replications=4, master_seed=9091, redraw_instance=redraw
        )
        for k in range(4):
            config.episode(k)
        assert len(seeds) == len(set(seeds)) == builds

    def test_preflight_policy_is_freed_without_a_collection(self, monkeypatch):
        # The check builds a policy that never sees an outcome; it must not
        # wait for a garbage collection to free its O(N) statistics.
        refs = []
        make_policy = harness.make_policy

        def recording_make_policy(*args, **kwargs):
            policy = make_policy(*args, **kwargs)
            refs.append(weakref.ref(policy))
            return policy

        monkeypatch.setattr(harness, "make_policy", recording_make_policy)
        gc.disable()
        try:
            RunConfig(policy="thompson", n=1000, horizon=100)
            assert len(refs) == 1 and refs[0]() is None
        finally:
            gc.enable()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(policy="grs", n=0, horizon=10)
        with pytest.raises(ValueError):
            RunConfig(policy="grs", n=5, horizon=10, generator="bogus")
        with pytest.raises(ValueError):
            RunConfig(policy="grs", n=1, horizon=10, generator="lower_bound_p0")
        with pytest.raises(ValueError):
            RunConfig(policy="grs", n=5, horizon=10, generator="file")
        with pytest.raises(ValueError, match="assortment"):
            RunConfig(policy="static", n=5, horizon=10)
        with pytest.raises(ValueError, match="ci_scale"):
            RunConfig(policy="trisection", n=5, horizon=10, policy_params={"ci_scale": 0.1})
        with pytest.raises(ValueError, match="unknown policy"):
            RunConfig(policy="bogus", n=5, horizon=10)
        for bad in (
            {"replications": 2.5},
            {"replications": True},
            {"horizon": 10.5},
            {"n": np.float64(5.0)},
            {"master_seed": "x"},
            {"master_seed": 1.0},
            {"master_seed": False},
        ):
            with pytest.raises(ValueError, match=next(iter(bad))):
                RunConfig(**{"policy": "grs", "n": 5, "horizon": 10, **bad})
        RunConfig(policy="grs", n=np.int64(5), horizon=10, master_seed=-3)

    @pytest.mark.parametrize("generator, variant", [("lower_bound_p0", "P0"), ("lower_bound_p1", "P1")])
    def test_lower_bound_generators(self, generator, variant):
        config = RunConfig(policy="grs", n=4, horizon=100, generator=generator, replications=2)
        for k in range(2):
            assert config.build_instance(k) == generate_lower_bound(variant, 4, 100)

    def test_key_names_the_generator_off_the_synthetic_family(self):
        synthetic = RunConfig(policy="adaptive-trisection", n=2, horizon=50, replications=3,
                              master_seed=7, policy_params={"ci_scale": 0.5})
        assert synthetic.key == "adaptive-trisection:n=2:t=50"
        sides = [RunConfig(policy="grs", n=2, horizon=50, replications=1, generator=g)
                 for g in ("lower_bound_p0", "lower_bound_p1")]
        assert [c.key for c in sides] == ["grs:n=2:t=50:g=lower_bound_p0",
                                          "grs:n=2:t=50:g=lower_bound_p1"]
        payload = json.loads(summaries_to_json([run_batch(c) for c in sides]))
        assert list(payload) == [c.key for c in sides]

    def test_episode_is_one_replication(self):
        config = RunConfig(
            policy="thompson", n=10, horizon=80, replications=3, master_seed=4, redraw_instance=True
        )
        log = config.episode(2)
        seed = derive_seed(4, "replication", 2)
        direct = run_episode(config.build_instance(2), "thompson", 80, seed)
        assert log.steps == direct.steps and log.rewards.tolist() == direct.rewards.tolist()
        assert run_batch(config).regrets[2] == log.cumulative_regret

    def test_one_worker_maps_in_process(self):
        with worker_pool(1) as pool:
            assert pool.map is map


class TestFittedExponent:
    def test_oracle_policy_has_undefined_exponent(self):
        # Each cell derives its instance from the master seed, so resolve
        # the oracle assortment from the same derivation.
        probe = RunConfig(policy="grs", n=10, horizon=20, master_seed=9)
        best, _ = oracle_optimal(probe.build_instance())
        rows = []
        for horizon in (20, 40):
            config = RunConfig(policy="static", n=10, horizon=horizon, master_seed=9,
                               policy_params={"assortment": best})
            rows.append((horizon, run_batch(config).mean_regret))
        assert all(r == pytest.approx(0.0, abs=1e-9) for _, r in rows)
        assert fitted_exponent(rows) is None

    def test_fit_needs_two_positive_rows(self):
        assert fitted_exponent([(100, 4.0)]) is None
        assert fitted_exponent([(100, 1.0), (100, 2.0)]) is None  # one T
        assert fitted_exponent([(100, 4.0), (400, -1.0)]) is None
        assert fitted_exponent([(100, 4.0), (400, 8.0)]) == pytest.approx(0.5)


class TestOutputs:
    def test_episode_csv(self, tmp_path):
        inst = generate_synthetic(10, seed=1)
        log = run_episode(inst, "grs", 25, 2)
        path = tmp_path / "episode.csv"
        write_episode_csv(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,assortment_size,expected_revenue,inst_regret,cum_regret"
        assert len(lines) == 26
        last = lines[-1].split(",")
        assert int(last[0]) == 25
        assert float(last[4]) == pytest.approx(log.cumulative_regret, abs=1e-9)

    def test_episode_csv_bytes_are_pinned(self, tmp_path):
        log = run_episode(generate_synthetic(20, seed=11), "thompson", 400, 5)
        path = tmp_path / "episode.csv"
        write_episode_csv(log, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "48a0e664f7178b711136a058fec81985574c67adc90186c4464e1465cee6fc35"

    def test_summaries_json_stable(self):
        config = RunConfig(policy="grs", n=10, horizon=50, replications=2, master_seed=1)
        summary = run_batch(config)
        assert summary.config == config
        a = summaries_to_json([summary])
        b = summaries_to_json([run_batch(config)])
        assert a == b
        assert list(json.loads(a)) == [config.key] == ["grs:n=10:t=50"]
