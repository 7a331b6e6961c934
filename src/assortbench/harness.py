"""Episode runner and replication harness.

An episode drives one policy against one instance for exactly T periods
and records the expected per-period regret against the optimal assortment.
Batches aggregate independent replications into mean/max/std summaries,
optionally in parallel; results are independent of worker count because
every replication owns its seed-derived random streams.
"""

from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import Instance, PreparedOffer, expected_revenue, oracle_optimal, sample_purchase
from .generators import GeneratorSpec, generate_lower_bound, generate_synthetic
from .policies import make_policy

__all__ = [
    "EpisodeLog",
    "AggregateSummary",
    "RunConfig",
    "derive_seed",
    "run_episode",
    "run_batch",
    "regret_scaling_study",
    "write_episode_csv",
    "summaries_to_json",
]


def derive_seed(master_seed: int, *tokens) -> int:
    """Deterministic 64-bit seed derived from a master seed and a token
    path, via BLAKE2b over the decimal renderings joined by '/'."""
    material = "/".join(str(t) for t in (master_seed, *tokens))
    digest = hashlib.blake2b(material.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class EpisodeLog:
    """Per-period record of one policy run.

    ``steps`` holds (period, assortment size, expected revenue of the offer,
    instantaneous expected regret). Realized rewards are kept separately for
    the optional realized-regret metric.
    """

    policy_name: str
    seed: int
    optimal_value: float
    steps: list = field(default_factory=list)
    assortments: list = field(default_factory=list)
    realized_rewards: list = field(default_factory=list)

    @property
    def horizon(self) -> int:
        return len(self.steps)

    @property
    def cumulative_regret(self) -> float:
        return sum(s[3] for s in self.steps)

    @property
    def realized_regret(self) -> float:
        return self.horizon * self.optimal_value - sum(self.realized_rewards)


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
    instance_path: str | None = None
    metric: str = "expected"

    def __post_init__(self):
        if self.n < 1 or self.horizon < 1 or self.replications < 1:
            raise ValueError("n, horizon, and replications must all be >= 1")
        if self.generator not in ("synthetic", "lower_bound_p0", "lower_bound_p1", "file"):
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.generator == "file" and not self.instance_path:
            raise ValueError("generator 'file' requires instance_path")
        if self.generator.startswith("lower_bound") and self.n < 2:
            raise ValueError("lower-bound generators require n >= 2")
        if self.metric not in ("expected", "realized"):
            raise ValueError("metric must be 'expected' or 'realized'")

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "n": self.n,
            "horizon": self.horizon,
            "generator": self.generator,
            "policy_params": dict(self.policy_params),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "redraw_instance": self.redraw_instance,
            "instance_path": self.instance_path,
            "metric": self.metric,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(**data)

    def build_instance(self, replication: int = 0) -> Instance:
        if self.generator == "file":
            with open(self.instance_path, "r", encoding="utf-8") as fh:
                return Instance.from_json(fh.read())
        if self.generator in ("lower_bound_p0", "lower_bound_p1"):
            variant = "P0" if self.generator.endswith("p0") else "P1"
            return generate_lower_bound(variant, self.n, self.horizon)
        tokens = ["instance"]
        if self.redraw_instance:
            tokens.append(replication)
        return generate_synthetic(self.n, seed=derive_seed(self.master_seed, *tokens))


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
    streams derived from ``seed``. Regret per period is the gap in
    expected revenue against the optimal assortment under the true
    instance. Each distinct offer is prepared and valued once per episode,
    so a repeated offer costs O(log |S|) per period.
    """
    customer_rng = np.random.default_rng(derive_seed(seed, "customer"))
    policy_rng = np.random.default_rng(derive_seed(seed, "policy"))
    policy = make_policy(
        policy_name, instance.revenues, horizon, rng=policy_rng, params=policy_params
    )
    _, optimal_value = oracle_optimal(instance)
    log = EpisodeLog(policy_name=policy_name, seed=seed, optimal_value=optimal_value)
    prepared: dict = {}  # assortment -> (PreparedOffer, expected revenue)
    previous = None
    for t in range(1, horizon + 1):
        assortment = policy.next_assortment()
        # Tuples do not cache their hash, so a dict lookup costs O(|S|);
        # policies hand back the same tuple while an offer repeats.
        if assortment is not previous:
            entry = prepared.get(assortment)
            if entry is None:
                entry = (
                    PreparedOffer(instance, assortment),
                    expected_revenue(instance, assortment),
                )
                prepared[assortment] = entry
            offer, value = entry
            previous = assortment
        outcome = sample_purchase(instance, offer, customer_rng)
        policy.observe(outcome)
        log.steps.append((t, len(assortment), value, optimal_value - value))
        log.assortments.append(assortment)
        log.realized_rewards.append(outcome.revenue)
    return log


def _replication_regret(config: RunConfig, replication: int) -> float:
    instance = config.build_instance(replication)
    seed = derive_seed(config.master_seed, "replication", replication)
    log = run_episode(
        instance,
        config.policy,
        config.horizon,
        seed,
        policy_params=config.policy_params,
    )
    return log.realized_regret if config.metric == "realized" else log.cumulative_regret


def run_batch(config: RunConfig, workers: int = 1) -> AggregateSummary:
    """Run the configured replications and summarize their regrets.

    With ``workers`` > 1 replications run in parallel processes; results are
    assembled in replication order, so summaries do not depend on workers.
    """
    reps = range(config.replications)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            regrets = list(pool.map(_replication_regret, [config] * len(reps), reps))
    else:
        regrets = [_replication_regret(config, k) for k in reps]
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
    rows = []
    for horizon in horizons:
        config = RunConfig(
            policy=policy,
            n=n,
            horizon=horizon,
            policy_params=dict(policy_params or {}),
            replications=replications,
            master_seed=master_seed,
        )
        summary = run_batch(config, workers=workers)
        rows.append((horizon, summary.mean_regret))
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
        running = 0.0
        for t, size, value, inst in log.steps:
            running += inst
            writer.writerow([t, size, repr(value), repr(inst), repr(running)])


def summaries_to_json(summaries) -> str:
    """Stable JSON rendering of batch summaries keyed by (policy, N, T)."""
    payload = {
        f"{s.policy_name}:n={s.n}:t={s.horizon}": s.to_dict() for s in summaries
    }
    return json.dumps(payload, sort_keys=True, indent=2)
