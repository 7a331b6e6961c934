import gc
import hashlib
import tracemalloc
import weakref
from array import array

import numpy as np
import pytest

from assortbench import harness
from assortbench.core import PurchaseOutcome, expected_revenue, oracle_optimal, sample_purchase
from assortbench.generators import generate_lower_bound, generate_synthetic, lower_bound_tester
from assortbench.harness import (
    UNIFORM_BLOCK,
    EpisodeLog,
    RunConfig,
    derive_seed,
    regret_scaling_study,
    run_batch,
    run_episode,
    summaries_to_json,
    worker_pool,
    write_episode_csv,
)
from assortbench.policies import POLICY_NAMES


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

    def test_tester_trivial_cases(self):
        assert lower_bound_tester([(1,)] * 10) == 0
        assert lower_bound_tester([(1, 2)] * 10) == 1
        assert lower_bound_tester([(1,)] * 5 + [(1, 2)] * 5) == 0
        with pytest.raises(ValueError):
            lower_bound_tester([])


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
        assert a.realized_rewards == b.realized_rewards

    def test_block_uniforms_equal_one_draw_per_period(self):
        # Two block boundaries and a partial last block.
        horizon = 2 * UNIFORM_BLOCK + 7
        inst = generate_synthetic(30, seed=6)
        _, optimal_value = oracle_optimal(inst)
        offer = tuple(range(1, 31))
        log = run_episode(inst, "static", horizon, 5, policy_params={"assortment": offer})
        rng = np.random.default_rng(derive_seed(5, "customer"))
        rewards = [sample_purchase(inst, offer, rng).revenue for _ in range(horizon)]
        assert log.realized_rewards == rewards
        regret = optimal_value - expected_revenue(inst, offer)
        assert [s[3] for s in log.steps] == [regret] * horizon

    def test_offers_are_matched_by_identity_without_hashing(self, monkeypatch):
        class CountingOffer(tuple):
            hashes = 0

            def __hash__(self):
                self.hashes += 1
                return super().__hash__()

        # A and B alternate, then C arrives and A returns after two other
        # offers: A B A B ... C B C A.
        a, b, c = CountingOffer((1, 2)), CountingOffer((3,)), CountingOffer((1, 4, 5))
        sequence = [a, b] * 500 + [c, b, c, a]

        class Replay:
            def __init__(self, *args, **kwargs):
                self._offers = iter(sequence)

            def next_assortment(self):
                return next(self._offers)

            def observe(self, outcome):
                pass

        monkeypatch.setattr(harness, "make_policy", Replay)
        inst = generate_synthetic(10, seed=1)
        log = harness.run_episode(inst, "static", len(sequence), seed=1)
        assert a.hashes == b.hashes == c.hashes == 0
        assert log.assortments == sequence
        assert [s[1] for s in log.steps] == [len(offer) for offer in sequence]
        assert [s[2] for s in log.steps] == [expected_revenue(inst, o) for o in sequence]

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_finished_policy_is_freed_without_a_collection(self, monkeypatch, name):
        # A policy and its decision generator refer to each other; the cycle
        # must be broken once the last outcome is observed.
        refs = []
        make_policy = harness.make_policy

        def recording_make_policy(*args, **kwargs):
            policy = make_policy(*args, **kwargs)
            refs.append(weakref.ref(policy))
            return policy

        monkeypatch.setattr(harness, "make_policy", recording_make_policy)
        params = {"assortment": (1, 3)} if name == "static" else None
        inst = generate_synthetic(20, seed=3)
        gc.disable()
        try:
            run_episode(inst, name, 300, 2, policy_params=params)
            assert len(refs) == 1 and refs[0]() is None
        finally:
            gc.enable()

    def test_cumulative_regret_adds_left_to_right(self):
        # A compensated sum, as the builtin sum of floats is from CPython
        # 3.12 on, gives 2.0 here and would change the reference bits.
        regrets = [1.0, 1e100, 1.0, -1e100]
        offers = [((1,), 1, 0.0, 1.0), ((2,), 1, 0.0, 1e100), ((3,), 1, 0.0, -1e100)]
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

    def test_offers_must_be_tuples(self, monkeypatch):
        # One list edited between periods would be found again by identity
        # and valued, sampled and logged as its first contents.
        class Aliasing:
            def __init__(self, *args, **kwargs):
                self._offer, self._t = [], 0

            def next_assortment(self):
                self._offer[:] = [1, 2] if self._t % 2 == 0 else [3]
                self._t += 1
                return self._offer

            def observe(self, outcome):
                pass

        monkeypatch.setattr(harness, "make_policy", Aliasing)
        inst = generate_synthetic(10, seed=1)
        with pytest.raises(TypeError, match=r"Aliasing\) offered a list"):
            harness.run_episode(inst, "static", 4, seed=1)

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

    @pytest.mark.parametrize("name", (*POLICY_NAMES, "duck-typed"))
    def test_optimal_value_is_oracle_optimal(self, monkeypatch, name):
        class FirstItem:
            def __init__(self, *args, **kwargs):
                pass

            def next_assortment(self):
                return (1,)

            def observe(self, outcome):
                pass

        if name == "duck-typed":
            monkeypatch.setattr(harness, "make_policy", FirstItem)
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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(policy="grs", n=0, horizon=10)
        with pytest.raises(ValueError):
            RunConfig(policy="grs", n=5, horizon=10, generator="bogus")
        with pytest.raises(ValueError):
            RunConfig(policy="grs", n=1, horizon=10, generator="lower_bound_p0")
        with pytest.raises(ValueError):
            RunConfig(policy="grs", n=5, horizon=10, generator="file")
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

    def test_episode_is_one_replication(self):
        config = RunConfig(
            policy="thompson", n=10, horizon=80, replications=3, master_seed=4, redraw_instance=True
        )
        log = config.episode(2)
        seed = derive_seed(4, "replication", 2)
        direct = run_episode(config.build_instance(2), "thompson", 80, seed)
        assert log.steps == direct.steps and log.realized_rewards == direct.realized_rewards
        assert run_batch(config).regrets[2] == log.cumulative_regret

    def test_one_worker_maps_in_process(self):
        with worker_pool(1) as pool:
            assert pool.map is map


class TestScalingStudy:
    def test_oracle_policy_has_undefined_exponent(self):
        # The study derives its instance from the master seed, so resolve
        # the oracle assortment from the same derivation.
        probe = RunConfig(policy="grs", n=10, horizon=20, master_seed=9)
        best, _ = oracle_optimal(probe.build_instance())
        rows, alpha = regret_scaling_study(
            "static",
            10,
            [20, 40],
            1,
            9,
            policy_params={"assortment": best},
        )
        assert alpha is None
        assert all(r == pytest.approx(0.0, abs=1e-9) for _, r in rows)

    def test_rows_do_not_depend_on_workers(self):
        runs = [
            regret_scaling_study("grs", 10, [40, 80, 160], 3, 5, workers=workers)
            for workers in (1, 2)
        ]
        assert runs[0] == runs[1]

    def test_requires_increasing_horizons(self):
        with pytest.raises(ValueError):
            regret_scaling_study("grs", 10, [100, 100], 1, 0)

    def test_positive_exponent_for_searching_policy(self):
        rows, alpha = regret_scaling_study("grs", 20, [100, 400], 2, 3)
        assert alpha is not None and alpha > 0


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
        a = summaries_to_json([run_batch(config)])
        b = summaries_to_json([run_batch(config)])
        assert a == b
