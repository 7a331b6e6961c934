"""Episode runner and replication harness.

An episode drives one policy against one instance for exactly T periods
and records the expected per-period regret against the optimal assortment;
its customers are blocks of uniforms, a run of periods on one offer is
drawn from its block in one numpy pass, and a ``functools.lru_cache``
keeps the episode's two most recent offers prepared.
A ``RunConfig`` is one checked cell drawing from one of ``GENERATOR_NAMES``:
the synthetic family (``generate_synthetic``), seeded from the master seed,
or one side of the hard lower-bound pair (``generate_lower_bound``); its
``episode(k)`` is replication k, its ``key`` its name (``policy:n=…:t=…``,
with ``:g=<generator>`` appended off the synthetic family).
Batches aggregate independent replications into mean/max/std summaries,
optionally in parallel; results are independent of worker count because
every replication owns its seed-derived random streams. One process pool
(``worker_pool``) can serve every batch of a study, so the workers start
once rather than once per cell. ``fitted_exponent`` reduces the summaries'
(T, mean regret) rows to the log-log regret exponent.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import math
import numbers
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import compress, islice
from types import SimpleNamespace

import numpy as np

from .core import Instance, LevelSetOracle, PreparedOffer, expected_revenue, sample_purchase
from .core import oracle_optimal  # noqa: F401  (perfbench's tracer wraps it by this name)
from .policies import make_policy

__all__ = [
    "GENERATOR_NAMES",
    "generate_synthetic",
    "generate_lower_bound",
    "EpisodeLog",
    "AggregateSummary",
    "RunConfig",
    "derive_seed",
    "run_episode",
    "worker_pool",
    "run_batch",
    "fitted_exponent",
    "write_episode_csv",
    "summaries_to_json",
]


# Customer uniforms drawn per block: bounded memory at any horizon. A run
# of periods is drawn at most a block at a time.
UNIFORM_BLOCK = 4096
# The fewest periods of a run drawn in one numpy pass. A pass costs about
# as much as 8 periods served one at a time (measured at N = 20 and 1000 on
# 2 vCPUs), so shorter runs are served a period at a time.
RUN_MIN = 8


def generate_synthetic(n: int, seed=None) -> Instance:
    """Draw an N-item instance: r_i ~ U[0.4, 0.5] and v_i ~ U[10/N, 20/N],
    i.i.d. per seed. The utility bounds scale with 1/N, so the total utility
    concentrates near 15 whatever the item count."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    revenues = rng.uniform(0.4, 0.5, size=n)
    utilities = rng.uniform(10.0 / n, 20.0 / n, size=n)
    return Instance(revenues, utilities)


def generate_lower_bound(variant: str, n: int, horizon: int) -> Instance:
    """Hard instance pair: r = (1, 1/2, 0, ..., 0) with v2 = 1 and
    v1 = 1 - 1/(4 sqrt(T)) for P0, 1 + 1/(4 sqrt(T)) for P1; other items
    have zero utility."""
    if variant not in ("P0", "P1"):
        raise ValueError("variant must be 'P0' or 'P1'")
    if n < 2:
        raise ValueError("lower-bound instances need n >= 2")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    bump = 1.0 / (4.0 * math.sqrt(horizon))
    revenues = np.zeros(n)
    revenues[0] = 1.0
    revenues[1] = 0.5
    utilities = np.zeros(n)
    utilities[0] = 1.0 - bump if variant == "P0" else 1.0 + bump
    utilities[1] = 1.0
    return Instance(revenues, utilities)


# A RunConfig's instance families, name -> (n, horizon, seed) -> Instance.
_FAMILIES = {
    "synthetic": lambda n, horizon, seed: generate_synthetic(n, seed=seed),
    "lower_bound_p0": lambda n, horizon, seed: generate_lower_bound("P0", n, horizon),
    "lower_bound_p1": lambda n, horizon, seed: generate_lower_bound("P1", n, horizon),
}
GENERATOR_NAMES = tuple(_FAMILIES)


# The last instance built in this process, so that a cell's replications
# share one unless it redraws them; an Instance is read-only.
@functools.lru_cache(maxsize=1)
def _instance(generator: str, n: int, horizon: int, seed: int) -> Instance:
    return _FAMILIES[generator](n, horizon, seed)


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
    as (offer, expected revenue); the offer is the policy's own, a
    level-set size of ``levels`` or a tuple. Per period, ``offer_index``
    holds the position of its offer in ``offers`` and ``rewards`` the
    revenue of its sampled purchase. The per-period lists ``steps`` and
    ``assortments`` are built from these on each read; ``assortments``
    builds one tuple per distinct offer, and its level-set tuples share one
    int object per item id, about 9 bytes an id.
    ``policy`` is the finished policy, for its records (``interval_history``,
    ``epochs_closed``, its estimates); it is not compared or shown.
    """

    policy_name: str
    seed: int
    optimal_value: float
    offers: list = field(default_factory=list)
    offer_index: array = field(default_factory=lambda: array("q"))
    rewards: array = field(default_factory=lambda: array("d"))
    levels: LevelSetOracle = None
    policy: object = field(default=None, repr=False, compare=False)

    @property
    def horizon(self) -> int:
        return len(self.offer_index)

    @property
    def steps(self) -> list:
        """(period, assortment size, expected revenue, regret) per period."""
        facts = [
            (len(o) if isinstance(o, tuple) else o, value, self.optimal_value - value)
            for o, value in self.offers
        ]
        return [(t, *facts[k]) for t, k in enumerate(self.offer_index, start=1)]

    @property
    def assortments(self) -> list:
        """The offer of each period as a tuple of item ids, one tuple object
        per distinct offer.

        A tuple offer is the policy's own tuple. A level-set size s reads as
        ``levels.prefix(s)``, the ascending ids of the first s items of
        ``levels.order``. Every such offer is a subset of the largest, so
        each id's int object is made once per read and shared by every
        offer holding it; ``levels`` is read only when some offer is a size.
        """
        sizes = [o for o, _ in self.offers if not isinstance(o, tuple)]
        if sizes:
            order = self.levels.order[: max(sizes)]
            ranks = order.argsort()  # revenue rank of each id, in id order
            ids = (order[ranks] + 1).tolist()
        # compress reads each mask as bytes, with no list of M bools built.
        offers = [
            o if isinstance(o, tuple) else tuple(compress(ids, (ranks < o).tobytes()))
            for o, _ in self.offers
        ]
        return [offers[k] for k in self.offer_index]

    @property
    def cumulative_regret(self) -> float:
        regrets = [self.optimal_value - value for _, value in self.offers]
        total = 0.0  # a left fold: the builtin sum is compensated from CPython 3.12
        for k in self.offer_index:
            total += regrets[k]
        return total


@dataclass
class RunConfig:
    """One experiment cell: generator, sizes, policy, and replication plan.

    Construction checks the types and ranges, then builds the first instance
    and the policy on its revenues: a bad cell raises ``ValueError``."""

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
        if not isinstance(self.policy_params, dict):
            raise ValueError(f"policy_params must be a dict, got {self.policy_params!r}")
        if min(self.n, self.horizon, self.replications) < 1:
            raise ValueError("n, horizon, and replications must all be >= 1")
        if self.generator not in GENERATOR_NAMES:
            raise ValueError(
                f"unknown generator {self.generator!r}; choose from {GENERATOR_NAMES}"
            )
        revenues = self.build_instance().revenues
        policy = make_policy(self.policy, revenues, self.horizon, params=self.policy_params)
        policy.close()  # freed now, not at the next garbage collection

    @property
    def key(self) -> str:
        """The cell's name in a summary: policy, N and T, then the generator
        unless it is the synthetic family."""
        key = f"{self.policy}:n={self.n}:t={self.horizon}"
        return key if self.generator == "synthetic" else f"{key}:g={self.generator}"

    def build_instance(self, replication: int = 0) -> Instance:
        tokens = ("instance", replication) if self.redraw_instance else ("instance",)
        seed = derive_seed(self.master_seed, *tokens)
        return _instance(self.generator, self.n, self.horizon, seed)

    def episode(self, replication: int = 0) -> EpisodeLog:
        """Replication ``replication`` of this cell, seeded from the master seed."""
        return run_episode(
            self.build_instance(replication),
            self.policy,
            self.horizon,
            derive_seed(self.master_seed, "replication", replication),
            policy_params=self.policy_params,
        )


@dataclass(frozen=True)
class AggregateSummary:
    """Replication-level regret summary of one cell, named by its config."""

    config: RunConfig
    mean_regret: float
    max_regret: float
    std_regret: float
    regrets: tuple

    def to_dict(self) -> dict:
        return {
            "policy": self.config.policy,
            "n": self.config.n,
            "t": self.config.horizon,
            "replications": self.config.replications,
            "mean_regret": self.mean_regret,
            "max_regret": self.max_regret,
            "std_regret": self.std_regret,
            "regrets": list(self.regrets),
        }


def run_episode(
    instance: Instance,
    policy_name: str,
    horizon: int,
    seed: int,
    *,
    policy_params=None,
) -> EpisodeLog:
    """Drive the policy for exactly ``horizon`` periods.

    Customer purchases and policy-internal randomness use independent
    streams derived from ``seed``; the customer stream serves the
    purchases one uniform each, in blocks of ``UNIFORM_BLOCK`` draws.
    Regret per period is the gap in expected revenue against the optimal
    assortment under the true instance.

    A period is served alone through ``next_offer()`` and ``observe``.
    When the policy's next offer is held for at least ``RUN_MIN`` periods
    (``Policy.held``) and that many remain in the block, the periods it
    holds within the block are served as one run: ``next_offer(k)`` hands
    them over, one ``PreparedOffer.purchase_revenues`` pass decides them
    from the block's next uniforms, they are logged in bulk and their
    revenues go to ``observe_run``. The offers, rewards and regrets are
    those of period-by-period serving, bit for bit.

    One ``LevelSetOracle`` serves the episode: the policy reads its level
    sets off it and the optimal value is its best prefix. An offer must be
    a size, prepared unchecked from the oracle's sort, or a tuple, whose
    item ids are validated; each distinct one is valued once and found
    again by value. The two offers used most
    recently stay prepared in a ``functools.lru_cache`` (a level-set policy
    alternates two), so a repeated offer costs O(log |S|) a period; each
    item's ``PurchaseOutcome`` is built once.
    """
    customer_rng = np.random.default_rng(derive_seed(seed, "customer"))
    customers = SimpleNamespace()
    levels = LevelSetOracle(instance.revenues)
    policy_seed = derive_seed(seed, "policy")
    policy = make_policy(policy_name, levels, horizon, rng=policy_seed, params=policy_params)
    _, optimal_value = levels.best_prefix(lambda m: instance.utilities[levels.order[:m]])
    log = EpisodeLog(policy_name, seed, optimal_value, levels=levels, policy=policy)
    offers = log.offers
    add_index = log.offer_index.append
    add_reward = log.rewards.append
    n = instance.n
    outcomes: dict = {}  # shared by the episode's offers
    positions: dict = {}  # offer -> its index in offers

    @functools.lru_cache(maxsize=2)
    def prepare(offer):
        if isinstance(offer, tuple):
            prepared = PreparedOffer(instance, offer, outcomes)
        else:  # the oracle's own sort: valid indices by construction
            prepared = PreparedOffer.of_indices(instance, levels.prefix_indices(offer), outcomes)
        index = positions.get(offer)
        if index is None:
            value = expected_revenue(instance, prepared)
            index = positions[offer] = len(offers)
            offers.append((offer, value))
        return prepared, index

    kind = type(policy).__name__  # named in the error; `policy` stays a fast local

    def take(offer):
        if not (type(offer) is int and 0 <= offer <= n or isinstance(offer, tuple)):
            raise TypeError(
                f"policy {policy_name!r} ({kind}) offered a "
                f"{type(offer).__name__}; offers must be sizes in [0, {n}] or tuples"
            )
        return prepare(offer)

    last = object()  # no policy's offer, so the first period always prepares
    for start in range(0, horizon, UNIFORM_BLOCK):
        block = customer_rng.random(min(UNIFORM_BLOCK, horizon - start))
        customer_stream = iter(block.tolist())
        customers.random = customer_stream.__next__
        size = block.size
        periods = iter(range(size))
        for p in periods:
            if policy.held < RUN_MIN or size - p < RUN_MIN:
                offer = policy.next_offer()
                if offer is not last:
                    last = offer
                    prepared, index = take(offer)
                outcome = sample_purchase(instance, prepared, customers)
                policy.observe(outcome)
                add_index(index)
                add_reward(outcome.revenue)
                continue
            k = min(policy.held, size - p)
            last = offer = policy.next_offer(k)
            prepared, index = take(offer)  # a cache hit when the offer repeats
            revenues = prepared.purchase_revenues(block[p : p + k])
            policy.observe_run(revenues)
            log.offer_index.extend(array("q", (index,)) * k)
            log.rewards.frombytes(revenues.tobytes())
            # The run's uniforms and periods are spent.
            next(islice(customer_stream, k, k), None)
            next(islice(periods, k - 1, k - 1), None)
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
        config=config,
        mean_regret=float(arr.mean()),
        max_regret=float(arr.max()),
        std_regret=float(arr.std()),
        regrets=tuple(float(r) for r in regrets),
    )


def fitted_exponent(rows):
    """The log-log least-squares slope a of mean regret ~ c T^a over
    (T, mean_regret) rows, or None where the fit is undefined: fewer than
    two distinct T, or any mean regret <= 0 (an always-optimal policy).

    The closed-form slope over centred logs, each sum a correctly rounded
    ``math.fsum``, so its bits do not depend on the interpreter's builtin
    ``sum``.
    """
    if len({t for t, _ in rows}) < 2 or any(m <= 0.0 for _, m in rows):
        return None
    xs = [math.log(t) for t, _ in rows]
    ys = [math.log(m) for _, m in rows]
    x_bar, y_bar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dxs = [x - x_bar for x in xs]
    return math.fsum(dx * (y - y_bar) for dx, y in zip(dxs, ys)) / math.fsum(dx * dx for dx in dxs)


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
    """Stable JSON rendering of batch summaries keyed by their cells' keys."""
    payload = {s.config.key: s.to_dict() for s in summaries}
    return json.dumps(payload, sort_keys=True, indent=2)
