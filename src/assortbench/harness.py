"""Episode runner and replication harness.

An episode drives one policy against one instance for exactly T periods
and records the expected per-period regret against the optimal assortment.
A ``RunConfig`` draws its instance from one of ``GENERATOR_NAMES``: the
synthetic family, seeded from the master seed, or one side of the hard
lower-bound pair, and ``RunConfig.episode(k)`` is the cell's replication k.
Batches aggregate independent replications into mean/max/std summaries,
optionally in parallel; results are independent of worker count because
every replication owns its seed-derived random streams. One process pool
(``worker_pool``) can serve every batch of a bench run or scaling study, so
the workers start once rather than once per cell.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import numbers
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .core import Instance, LevelSetOracle, PreparedOffer, expected_revenue, sample_purchase
from .core import oracle_optimal  # noqa: F401  (perfbench's tracer wraps it by this name)
from .generators import GENERATOR_NAMES, generate_lower_bound, generate_synthetic
from .policies import make_policy

__all__ = [
    "EpisodeLog",
    "AggregateSummary",
    "RunConfig",
    "derive_seed",
    "run_episode",
    "worker_pool",
    "run_batch",
    "regret_scaling_study",
    "write_episode_csv",
    "summaries_to_json",
]


# Customer uniforms drawn per block: bounded memory at any horizon.
UNIFORM_BLOCK = 4096


def derive_seed(master_seed: int, *tokens) -> int:
    """Deterministic 64-bit seed derived from a master seed and a token
    path, via BLAKE2b over the decimal renderings joined by '/'."""
    material = "/".join(str(t) for t in (master_seed, *tokens))
    digest = hashlib.blake2b(material.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class EpisodeLog:
    """The record of one policy run, each fact stored once.

    ``offers`` holds each distinct offer once, in the order first offered,
    as (assortment, size, expected revenue, instantaneous expected regret).
    Per period, ``offer_index`` holds the position of its offer in
    ``offers`` and ``rewards`` the revenue of its sampled purchase. The
    per-period lists ``steps``, ``assortments`` and ``realized_rewards``
    are built from these on each read.
    """

    policy_name: str
    seed: int
    optimal_value: float
    offers: list = field(default_factory=list)
    offer_index: array = field(default_factory=lambda: array("q"))
    rewards: array = field(default_factory=lambda: array("d"))

    @property
    def horizon(self) -> int:
        return len(self.offer_index)

    @property
    def steps(self) -> list:
        """(period, assortment size, expected revenue, regret) per period."""
        facts = [entry[1:] for entry in self.offers]
        return [(t, *facts[k]) for t, k in enumerate(self.offer_index, start=1)]

    @property
    def assortments(self) -> list:
        """The offer of each period: the policy's own tuple."""
        offers = [entry[0] for entry in self.offers]
        return [offers[k] for k in self.offer_index]

    @property
    def realized_rewards(self) -> list:
        return self.rewards.tolist()

    @property
    def cumulative_regret(self) -> float:
        regrets = [entry[3] for entry in self.offers]
        total = 0.0  # a left fold: the builtin sum is compensated from CPython 3.12
        for k in self.offer_index:
            total += regrets[k]
        return total


@dataclass(frozen=True)
class AggregateSummary:
    """Replication-level regret summary for one (policy, N, T) cell."""

    policy_name: str
    n: int
    horizon: int
    replications: int
    mean_regret: float
    max_regret: float
    std_regret: float
    regrets: tuple

    def to_dict(self) -> dict:
        return {
            "policy": self.policy_name,
            "n": self.n,
            "t": self.horizon,
            "replications": self.replications,
            "mean_regret": self.mean_regret,
            "max_regret": self.max_regret,
            "std_regret": self.std_regret,
            "regrets": list(self.regrets),
        }


@dataclass
class RunConfig:
    """One experiment cell: generator, sizes, policy, and replication plan."""

    policy: str
    n: int
    horizon: int
    generator: str = "synthetic"
    policy_params: dict = field(default_factory=dict)
    replications: int = 1
    master_seed: int = 0
    redraw_instance: bool = False

    def __post_init__(self):
        for name in ("n", "horizon", "replications", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if min(self.n, self.horizon, self.replications) < 1:
            raise ValueError("n, horizon, and replications must all be >= 1")
        if self.generator not in GENERATOR_NAMES:
            raise ValueError(
                f"unknown generator {self.generator!r}; choose from {GENERATOR_NAMES}"
            )
        if self.generator.startswith("lower_bound") and self.n < 2:
            raise ValueError("lower-bound generators require n >= 2")

    def build_instance(self, replication: int = 0) -> Instance:
        if self.generator in ("lower_bound_p0", "lower_bound_p1"):
            variant = "P0" if self.generator.endswith("p0") else "P1"
            return generate_lower_bound(variant, self.n, self.horizon)
        tokens = ["instance"]
        if self.redraw_instance:
            tokens.append(replication)
        return generate_synthetic(self.n, seed=derive_seed(self.master_seed, *tokens))

    def episode(self, replication: int = 0) -> EpisodeLog:
        """Replication ``replication`` of this cell, seeded from the master seed."""
        return run_episode(
            self.build_instance(replication),
            self.policy,
            self.horizon,
            derive_seed(self.master_seed, "replication", replication),
            policy_params=self.policy_params,
        )


def _block_uniforms(rng, count: int):
    """The next ``count`` doubles of ``rng.random()``, drawn ``UNIFORM_BLOCK``
    at a time. numpy's ``Generator`` yields the same doubles in blocks as
    one at a time, so the stream is unchanged while memory stays bounded."""
    while count > 0:
        k = min(count, UNIFORM_BLOCK)
        yield from rng.random(k).tolist()
        count -= k


def run_episode(
    instance: Instance,
    policy_name: str,
    horizon: int,
    seed: int,
    *,
    policy_params=None,
) -> EpisodeLog:
    """Drive the next/observe loop for exactly ``horizon`` periods.

    Customer purchases and policy-internal randomness use independent
    streams derived from ``seed``; the customer stream serves only the
    purchases, one uniform each, and is drawn in blocks of ``UNIFORM_BLOCK``.
    Regret per period is the gap in expected revenue against the optimal
    assortment under the true instance.

    One ``LevelSetOracle`` serves the episode: the policy reads its level
    sets off it, and the optimal value is its best prefix. Offers must be
    tuples, and each is prepared and valued once per episode and found
    again by identity, so a repeated offer costs O(log |S|) per period and
    hashes nothing; an offer that is one of the oracle's prefixes is
    prepared from its sort. Each item's ``PurchaseOutcome`` is built once
    per episode.
    """
    customer_rng = np.random.default_rng(derive_seed(seed, "customer"))
    customers = SimpleNamespace(random=_block_uniforms(customer_rng, horizon).__next__)
    policy_rng = np.random.default_rng(derive_seed(seed, "policy"))
    levels = LevelSetOracle(instance.revenues)
    policy = make_policy(policy_name, levels, horizon, rng=policy_rng, params=policy_params)
    _, optimal_value = levels.best_ranked_prefix(instance.utilities[levels.order])
    log = EpisodeLog(policy_name=policy_name, seed=seed, optimal_value=optimal_value)
    offers = log.offers
    add_index = log.offer_index.append
    add_reward = log.rewards.append
    outcomes: dict = {}  # shared by the episode's offers
    # id(assortment) -> (its index in offers, PreparedOffer); a tuple does
    # not cache its hash, and offers holds it, so its id is not reused
    # within the episode.
    prepared: dict = {}
    last = None
    for _ in range(horizon):
        assortment = policy.next_assortment()
        if assortment is not last:
            last = assortment
            entry = prepared.get(id(assortment))
            if entry is None:
                if not isinstance(assortment, tuple):
                    raise TypeError(
                        f"policy {policy_name!r} ({type(policy).__name__}) offered a "
                        f"{type(assortment).__name__}; offers must be tuples"
                    )
                items = levels.prefix_items(assortment)
                offer = PreparedOffer(
                    instance, assortment if items is None else items, outcomes
                )
                value = expected_revenue(instance, offer)
                entry = prepared[id(assortment)] = (len(offers), offer)
                offers.append((assortment, len(assortment), value, optimal_value - value))
            index, offer = entry
        outcome = sample_purchase(instance, offer, customers)
        policy.observe(outcome)
        add_index(index)
        add_reward(outcome.revenue)
    return log


def _replication_regret(config: RunConfig, replication: int) -> float:
    return config.episode(replication).cumulative_regret


def worker_pool(workers: int):
    """A context manager holding a pool of ``workers`` processes for
    ``run_batch``, or for ``workers`` <= 1 an in-process executor whose
    ``map`` is the builtin ``map``."""
    if workers > 1:
        return ProcessPoolExecutor(max_workers=workers)
    return contextlib.nullcontext(SimpleNamespace(map=map))


def run_batch(config: RunConfig, workers: int = 1, *, pool=None) -> AggregateSummary:
    """Run the configured replications and summarize their regrets.

    Replications run on ``pool`` when one is given; otherwise on
    ``worker_pool(workers)``, opened for this batch. Results are assembled
    in replication order, so summaries do not depend on the workers. Every
    replication has finished when this returns.
    """
    if pool is None:
        with worker_pool(workers) as pool:
            return run_batch(config, pool=pool)
    reps = range(config.replications)
    regrets = list(pool.map(_replication_regret, [config] * len(reps), reps))
    arr = np.array(regrets)
    return AggregateSummary(
        policy_name=config.policy,
        n=config.n,
        horizon=config.horizon,
        replications=config.replications,
        mean_regret=float(arr.mean()),
        max_regret=float(arr.max()),
        std_regret=float(arr.std()),
        regrets=tuple(float(r) for r in regrets),
    )


def regret_scaling_study(
    policy: str,
    n: int,
    horizons,
    replications: int,
    master_seed: int,
    *,
    policy_params=None,
    workers: int = 1,
):
    """Mean regret per horizon plus the fitted exponent of regret ~ c T^a.

    Returns (rows, alpha) where rows is a list of (T, mean_regret) and
    alpha is the log-log least-squares slope, or None when any mean regret
    is nonpositive (the fit is undefined for an always-optimal policy).
    """
    horizons = list(horizons)
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    configs = [
        RunConfig(
            policy=policy,
            n=n,
            horizon=horizon,
            policy_params=dict(policy_params or {}),
            replications=replications,
            master_seed=master_seed,
        )
        for horizon in horizons
    ]
    with worker_pool(workers) as pool:
        rows = [(c.horizon, run_batch(c, pool=pool).mean_regret) for c in configs]
    means = np.array([m for _, m in rows])
    if len(rows) < 2 or np.any(means <= 0.0):
        return rows, None
    slope = np.polyfit(np.log([t for t, _ in rows]), np.log(means), 1)[0]
    return rows, float(slope)


def write_episode_csv(log: EpisodeLog, path) -> None:
    """Per-period CSV: t, assortment_size, expected_revenue, inst_regret,
    cum_regret."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "assortment_size", "expected_revenue", "inst_regret", "cum_regret"])
        offers = log.offers
        running = 0.0
        for t, k in enumerate(log.offer_index, start=1):
            _, size, value, inst = offers[k]
            running += inst
            writer.writerow([t, size, repr(value), repr(inst), repr(running)])


def summaries_to_json(summaries) -> str:
    """Stable JSON rendering of batch summaries keyed by (policy, N, T)."""
    payload = {
        f"{s.policy_name}:n={s.n}:t={s.horizon}": s.to_dict() for s in summaries
    }
    return json.dumps(payload, sort_keys=True, indent=2)
