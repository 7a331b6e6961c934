"""The benchmark's workloads: inputs built from a seed, one timed pass, and
the checks on what the program returned.

Every workload is a batch job driven from one process, in a closed loop:
the next episode starts when the previous one has returned.

- ``estimator-epochs``: UCB and Thompson at N=1000, T=1000, run serially,
  6 replications each on a fresh instance. One ``oracle_optimal`` call per
  epoch dominates and each episode offers about a hundred distinct sets.
  Its episodes are short (0.1-0.3 s) so that a run repeats each of them
  several times.
- ``table2-pool``: the paper's Table 2 as users run it,
  ``assortbench bench --config table2 --parallel 2``. Short episodes, so
  per-episode and per-cell costs (policy construction, instance build,
  a new process pool per cell, CLI output) dominate; its level-set cells
  offer only a few distinct sets, the opposite use of the environment
  layer from ``estimator-epochs``.

A pass runs ``probe_s`` between its timed units, outside them: a fixed
piece of work that gauges how fast the machine runs at that moment (see
``run.py``, which scales each unit's time by it).

Every pass is checked on its own seed. Besides, each run re-runs a few
episodes at the workload's default seed and compares them bit for bit with
``reference.json`` (``spot_check``), whatever seed the run measures.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from assortbench import cli, core, harness
from assortbench.harness import RunConfig, derive_seed
from perfbench.tracer import distinct_offers

NAMES = ("estimator-epochs", "table2-pool")
DEFAULT_SEEDS = {"estimator-epochs": 4000, "table2-pool": 20240817}
LEVEL_SET_POLICIES = frozenset({"trisection", "adaptive-trisection", "grs"})
TABLE2_WORKERS = 2
# A period's regret may dip below 0 by rounding only.
REGRET_FLOOR = -1e-12
# The probe's input, how often it makes its random draws and how often it
# builds its Python objects (about 11 ms in all).
_PROBE_VALUES = np.random.default_rng(0).random(1000)
_PROBE_DRAWS = 30
_PROBE_BUILDS = 6


def probe_s() -> float:
    """Wall time of a fixed piece of work in the program's own mix: numpy
    random draws over a thousand items, as ``core.sample_purchase`` and the
    Thompson sampling policy make, and building, sorting and summing small
    Python objects, as the policies' bookkeeping does. It calls nothing in
    the library, so a change to the program cannot move it. Of the mixes
    tried on a shared two-vCPU Xeon VM, this one's time followed the
    simulator's most nearly in proportion as the machine's speed changed."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    weights = _PROBE_VALUES / _PROBE_VALUES.sum()
    for _ in range(_PROBE_DRAWS):
        rng.beta(1.0 + _PROBE_VALUES, 2.0 - _PROBE_VALUES)
        rng.random(_PROBE_VALUES.size)
        rng.choice(_PROBE_VALUES.size, p=weights)
    for _ in range(_PROBE_BUILDS):
        items = {i: (x, [x]) for i, x in enumerate(_PROBE_VALUES.tolist())}
        sorted(items.items(), key=lambda item: item[1][0])
        sum(value[0] for value in items.values())
    return time.perf_counter() - start


@dataclass
class Pass:
    """What one timed pass did and what the checks found."""

    wall_s: float
    periods: int
    unit_s: list  # wall time of each unit (episode or bench cell), in a fixed order
    cell_s: list
    episodes: int
    # Per unit, the mean probe time just before and just after it; empty
    # when the pass ran without probes (traced passes).
    probe_s: list = field(default_factory=list)
    failed: set = field(default_factory=set)  # (cell, replication) ids
    problems: list = field(default_factory=list)  # one line per finding
    regrets: dict = field(default_factory=dict)  # cell -> regrets
    digest: str | None = None  # SHA-256 of bench_summaries.json
    evidence: object = None  # what the checks read; dropped once checked

    def fail(self, episode, problem: str) -> None:
        self.failed.add(episode)
        self.problems.append(f"{episode}: {problem}")


def cell_key(config: RunConfig) -> str:
    """A cell's key, as ``summaries_to_json`` writes it."""
    return f"{config.policy}:n={config.n}:t={config.horizon}"


@dataclass
class Episode:
    """What the checks need from one episode's log."""

    steps: int
    offers_logged: int
    offers: set  # distinct offers
    regret: np.ndarray  # per period
    cumulative_regret: float

    @classmethod
    def of(cls, log) -> "Episode":
        return cls(
            steps=len(log.steps),
            offers_logged=len(log.assortments),
            offers=distinct_offers(log.assortments),
            regret=np.array([step[3] for step in log.steps], dtype=float),
            cumulative_regret=log.cumulative_regret,
        )


def episode_problems(instance, policy: str, horizon: int, episode: Episode) -> list:
    """What is wrong with one episode; empty when it passes."""
    problems = []
    if episode.steps != horizon or episode.offers_logged != horizon:
        problems.append(f"{episode.steps} steps, expected {horizon}")
    for offer in episode.offers:
        if not isinstance(offer, tuple) or not all(isinstance(i, int) for i in offer):
            problems.append(f"offer is not a tuple of ints: {offer!r:.80}")
            continue
        if any(a >= b for a, b in zip(offer, offer[1:])):
            problems.append("offer is not strictly increasing")
        elif offer and (offer[0] < 1 or offer[-1] > instance.n):
            problems.append(f"offer leaves [1, {instance.n}]")
        elif policy in LEVEL_SET_POLICIES and offer:
            theta = float(instance.revenues[np.asarray(offer) - 1].min())
            if core.level_set(instance, theta) != offer:
                problems.append(f"offer of size {len(offer)} is not a level set")
    regret = episode.regret
    if regret.size and not (np.all(np.isfinite(regret)) and regret.min() >= REGRET_FLOOR):
        problems.append("a period's regret is not finite or is below -1e-12")
    return problems


@dataclass(frozen=True)
class SerialSpec:
    n: int
    horizon: int
    policies: tuple  # (name, params)
    replications: int


ESTIMATOR_EPOCHS = SerialSpec(1000, 1000, (("ucb", {}), ("thompson", {})), 6)


class SerialWorkload:
    """Cells of one (policy, N, T) each, run episode by episode through
    ``harness.run_episode`` exactly as ``run_batch`` does with one worker.
    Each replication draws its own instance, so that a run's time averages
    over instances instead of riding on one draw."""

    # Each episode lasts 0.1-0.3 s, so a pass lasts 2-4 s and a run of 30 s
    # repeats each episode about ten times; the median of its repeats, each
    # scaled to the reference speed, is the one counted.
    min_passes = 5

    def __init__(self, spec: SerialSpec, seed: int):
        self.configs = [
            RunConfig(
                policy=policy,
                n=spec.n,
                horizon=spec.horizon,
                policy_params=dict(params),
                replications=spec.replications,
                master_seed=seed,
                redraw_instance=True,
            )
            for policy, params in spec.policies
        ]
        self.instances = [
            [config.build_instance(k) for k in range(config.replications)]
            for config in self.configs
        ]

    def run_pass(self, out_root: Path, span=contextlib.nullcontext, probe=probe_s) -> Pass:
        """Time each episode, with a probe between episodes; condensing a
        log for the checks is not timed."""
        episodes, episode_s, cell_s = [], [], []
        probes = [probe()] if probe else []
        for config, instances in zip(self.configs, self.instances):
            for k, instance in enumerate(instances):
                seed = derive_seed(config.master_seed, "replication", k)
                start = time.perf_counter()
                log = harness.run_episode(
                    instance, config.policy, config.horizon, seed, policy_params=config.policy_params
                )
                episode_s.append(time.perf_counter() - start)
                if probe:
                    probes.append(probe())
                episodes.append(Episode.of(log))
                del log
            cell_s.append(sum(episode_s[-len(instances):]))
        return Pass(
            wall_s=sum(episode_s),
            periods=sum(c.replications * c.horizon for c in self.configs),
            unit_s=episode_s,
            cell_s=cell_s,
            probe_s=around(probes),
            episodes=len(episodes),
            evidence=episodes,
        )

    def check(self, result: Pass) -> None:
        episodes, result.evidence = iter(result.evidence), None
        for config, instances in zip(self.configs, self.instances):
            regrets = result.regrets[cell_key(config)] = []
            for k, instance in enumerate(instances):
                episode = next(episodes)
                regrets.append(episode.cumulative_regret)
                for problem in episode_problems(instance, config.policy, config.horizon, episode):
                    result.fail((cell_key(config), k), problem)


def around(probes: list) -> list:
    """Per unit, the mean of the probes before and after it."""
    return [(a + b) / 2 for a, b in zip(probes, probes[1:])]


class _LineClock:
    """Stand-in for stdout that notes when each of the first ``lines``
    lines is completed, then runs ``probe``. The next unit of work starts
    when the probe returns."""

    def __init__(self, lines: int, probe):
        self.lines = lines
        self.probe = probe
        self.ends: list = []  # when each line was completed
        self.resumes: list = []  # when the probe after it returned
        self.probes: list = []
        self._partial = ""

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            _, self._partial = self._partial.split("\n", 1)
            self.ends.append(time.perf_counter())
            if self.probe and len(self.ends) <= self.lines:
                self.probes.append(self.probe())
            self.resumes.append(time.perf_counter())
        return len(text)

    def flush(self) -> None:
        pass


class Table2Workload:
    """``bench --config table2 --parallel 2`` through ``cli.main``. The CLI
    prints one line per finished cell; their times give each cell's wall
    time without touching the program."""

    # One pooled pass takes 25-40 s on 2 vCPUs, about a whole run; a run
    # makes a second only when the first was shorter than ``--seconds``.
    min_passes = 1

    def __init__(self, seed: int):
        self.seed = seed
        bench = cli.builtin_config("table2")
        self.configs = [
            RunConfig(
                policy=cell["policy"],
                n=cell["n"],
                horizon=cell["t"],
                policy_params=cell.get("params", {}),
                replications=bench["replications"],
                master_seed=seed,
            )
            for cell in bench["cells"]
        ]

    def argv(self, out: str) -> list:
        return [
            "bench",
            "--config",
            "table2",
            "--parallel",
            str(TABLE2_WORKERS),
            "--out",
            out,
            "--seed",
            str(self.seed),
        ]

    def run_pass(self, out_root: Path, span=contextlib.nullcontext, probe=probe_s) -> Pass:
        """One ``bench`` run; the probes after the cells' lines are left
        out of the cell and pass times."""
        out_root.mkdir(parents=True, exist_ok=True)
        out = tempfile.mkdtemp(prefix="table2-", dir=out_root)
        clock = _LineClock(len(self.configs), probe)
        probes = [probe()] if probe else []
        code, error = None, None
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(clock), span("cli.bench"):
                try:
                    code = cli.main(self.argv(out))
                except Exception as exc:  # counted as failed episodes below
                    error = f"cli.main raised {exc!r}"
            wall = time.perf_counter() - start - sum(clock.probes)
            summary_path = Path(out, "bench_summaries.json")
            data = summary_path.read_bytes() if summary_path.exists() else None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        starts = [start] + clock.resumes
        cell_s = [b - a for a, b in zip(starts, clock.ends[: len(self.configs)])]
        result = Pass(
            wall_s=wall,
            periods=sum(c.replications * c.horizon for c in self.configs),
            unit_s=cell_s,
            cell_s=cell_s,
            probe_s=around(probes + clock.probes),
            episodes=sum(c.replications for c in self.configs),
        )
        if code != 0 or data is None or len(result.cell_s) != len(self.configs):
            result.evidence = error or f"bench exited {code} after {len(result.cell_s)} cells"
        else:
            result.digest = hashlib.sha256(data).hexdigest()
            result.evidence = json.loads(data)
        return result

    def check(self, result: Pass) -> None:
        """Bounds on every pooled regret, then one replication per cell
        re-run serially and compared with the pool's value."""
        summaries, result.evidence = result.evidence, None
        if isinstance(summaries, str):  # the run itself failed
            for config in self.configs:
                for k in range(config.replications):
                    result.fail((cell_key(config), k), summaries)
            return
        pick = np.random.default_rng(self.seed)
        for config in self.configs:
            key = cell_key(config)
            regrets = summaries.get(key, {}).get("regrets", [])
            result.regrets[key] = regrets
            if len(regrets) != config.replications:
                for k in range(config.replications):
                    result.fail((key, k), f"{len(regrets)} regrets in the summary")
                continue
            for k, regret in enumerate(regrets):
                if not (math.isfinite(regret) and regret >= REGRET_FLOOR * config.horizon):
                    result.fail((key, k), f"regret {regret!r} out of range")
            k = int(pick.integers(config.replications))
            instance, log = rerun(config, k)
            for problem in episode_problems(instance, config.policy, config.horizon, Episode.of(log)):
                result.fail((key, k), problem)
            if log.cumulative_regret != regrets[k]:
                result.fail((key, k), f"serial re-run gives {log.cumulative_regret!r}")


def rerun(config: RunConfig, k: int):
    """Replication ``k`` of a cell, run serially as ``run_batch`` runs it:
    (instance, episode log)."""
    instance = config.build_instance(k)
    log = harness.run_episode(
        instance,
        config.policy,
        config.horizon,
        derive_seed(config.master_seed, "replication", k),
        policy_params=config.policy_params,
    )
    return instance, log


def setup(name: str, seed: int):
    """Build a workload's configs and instances from its seed."""
    if name == "table2-pool":
        return Table2Workload(seed)
    if name == "estimator-epochs":
        return SerialWorkload(ESTIMATOR_EPOCHS, seed)
    raise KeyError(name)


def reference_problems(result: Pass, reference: dict) -> list:
    """Compare a pass at the default seed with the recorded outputs; marks
    each mismatching episode failed and returns the other mismatches."""
    other = []
    for key, expected in reference["regrets"].items():
        got = result.regrets.get(key, [])
        for k, value in enumerate(expected):
            if k >= len(got) or got[k] != value:
                result.fail((key, k), "regret differs from the reference")
    if reference.get("sha256") and result.digest != reference["sha256"]:
        other.append("bench_summaries.json differs from the reference")
    return other


def spot_check(name: str, reference: dict, pick: int) -> tuple:
    """Re-run replication ``pick`` (modulo the replications) of every cell
    at the default seed, serially and outside the timed region, and compare
    each regret with the reference bit for bit. Returns (episodes run,
    findings as "cell/k: problem" lines, one per failed episode)."""
    findings = []
    configs = setup(name, reference["seed"]).configs
    for config in configs:
        key, k = cell_key(config), pick % config.replications
        instance, log = rerun(config, k)
        problems = episode_problems(instance, config.policy, config.horizon, Episode.of(log))
        expected = reference["regrets"].get(key, [])
        if k >= len(expected) or log.cumulative_regret != expected[k]:
            problems.append(f"regret {log.cumulative_regret!r} differs from the reference")
        if problems:
            findings.append(f"default seed {key}/{k}: {'; '.join(problems)}")
    return len(configs), findings
