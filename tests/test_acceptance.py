"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing output capture so the lines
always appear in the run log) and asserts its criterion at the stated
tolerance.
"""

import contextlib
import json

import numpy as np
import pytest

from assortbench import properties
from assortbench.cli import main as cli_main
from assortbench.core import Instance, build_potential_profile
from assortbench.harness import RunConfig, fitted_exponent, run_batch


# Set by the autouse fixture below so PASS/FAIL lines bypass output capture
# and always land in the run log.
_UNCAPTURED = contextlib.nullcontext


@pytest.fixture(autouse=True)
def _live_report(capfd):
    global _UNCAPTURED
    _UNCAPTURED = capfd.disabled
    yield
    _UNCAPTURED = contextlib.nullcontext


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with _UNCAPTURED():
        print(f"{status} criterion {number}: {name}{suffix}", flush=True)


def _criterion(number, name, condition, detail=""):
    _report(number, name, bool(condition), detail)
    assert condition, f"criterion {number}: {name} {detail}"


def _random_instances(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 13))
        yield Instance(rng.random(n), rng.random(n))


def test_criterion_1_level_set_optimum_matches_subset_optimum():
    worst = 0.0
    for inst in _random_instances(500, 101):
        worst = max(worst, properties.optimum_gap(inst, build_potential_profile(inst)))
    _criterion(1, "level-set optimum equals subset optimum", worst <= properties.TOL,
               f"max gap {worst:.2e}")


def test_criterion_2_potential_structure():
    grid = np.linspace(0.0, 1.0, 1000)
    profiles = (build_potential_profile(inst) for inst in _random_instances(500, 202))
    ok = all(
        properties.profile_is_fixed_point(profile)
        and properties.geometry_holds(profile, grid)
        and properties.is_unimodal(profile.values)
        for profile in profiles
    )
    _criterion(2, "potential fixed point, monotone geometry, unimodality", ok)


def test_criterion_3_kl_bound_on_hard_pair():
    violations = properties.kl_violations((16, 100, 10_000))
    _criterion(3, "KL between hard-pair purchase laws within 1/(18T)", not violations,
               f"violations {violations}")


def _cell_mean(policy, n, t, params=None, seed=2024):
    config = RunConfig(
        policy=policy,
        n=n,
        horizon=t,
        policy_params=params or {},
        replications=20,
        master_seed=seed,
    )
    return run_batch(config).mean_regret


REFERENCE_REGRETS = [
    # (policy, params, N, T, reference mean regret)
    ("trisection", None, 100, 500, 7.68),
    ("adaptive-trisection", {"ci_scale": 0.1}, 100, 500, 1.99),
    ("trisection", None, 1000, 1000, 9.77),
    ("adaptive-trisection", {"ci_scale": 0.1}, 1000, 1000, 3.97),
    ("ucb", None, 1000, 1000, 160.8),
]


def test_criterion_4_benchmark_regrets_match_references():
    ok = True
    details = []
    for policy, params, n, t, reference in REFERENCE_REGRETS:
        mean = _cell_mean(policy, n, t, params)
        details.append(f"{policy}@({n},{t})={mean:.2f} ref {reference}")
        if not reference / 3.0 <= mean <= reference * 3.0:
            ok = False
    _criterion(4, "20-replication mean regrets within 3x of references",
               ok, "; ".join(details))


def test_criterion_5_dimension_independence():
    adaptive = [
        _cell_mean("adaptive-trisection", n, 1000, {"ci_scale": 0.1})
        for n in (100, 250, 500, 1000)
    ]
    spread = max(adaptive) / min(adaptive)
    ucb_small = _cell_mean("ucb", 100, 1000)
    ucb_large = _cell_mean("ucb", 1000, 1000)
    ratio = ucb_large / ucb_small
    ok = spread <= 1.5 and ratio >= 1.5
    _criterion(5, "adaptive regret flat in N while UCB grows",
               ok, f"spread {spread:.2f}, UCB ratio {ratio:.2f}")


def test_criterion_6_sqrt_horizon_scaling():
    configs = [
        RunConfig(policy="adaptive-trisection", n=500, horizon=t, replications=20, master_seed=123)
        for t in (1000, 4000, 16000)
    ]
    rows = [(c.horizon, run_batch(c).mean_regret) for c in configs]
    alpha = fitted_exponent(rows)
    ok = alpha is not None and 0.3 <= alpha <= 0.7
    shown = "undefined" if alpha is None else f"{alpha:.3f}"
    detail = f"alpha {shown}, means " + ", ".join(f"{m:.1f}" for _, m in rows)
    _criterion(6, "fitted regret exponent in [0.3, 0.7]", ok, detail)


def _runs_keeping_fixed_point(horizon):
    """Trisection on criterion 7's 100 synthetic instances (N=100) at
    ``horizon``: how many runs keep θ* in every epoch's [a, b], and the
    fewest epochs a run records."""
    config = RunConfig(policy="trisection", n=100, horizon=horizon, replications=100,
                       master_seed=707, redraw_instance=True)
    good, fewest = 0, horizon
    for k in range(config.replications):
        theta_star = build_potential_profile(config.build_instance(k)).f_star
        history = config.episode(k).policy.interval_history
        good += all(a <= theta_star <= b for a, b in history)
        fewest = min(fewest, len(history))
    return good, fewest


def test_criterion_7_trisection_interval_contains_fixed_point():
    # At T=1000 the first epoch's budget (2000) exceeds T, so every run
    # records only [0, 1]: this cannot fail. Criterion 11 can.
    good, _ = _runs_keeping_fixed_point(1000)
    _criterion(7, "interval contains the fixed point every epoch",
               good >= 99, f"{good}/100 runs")


def test_criterion_8_uniform_concentration_coverage():
    coverage = properties.coverage(np.random.default_rng(808))
    _criterion(8, "adaptive-radius coverage at least 0.99",
               coverage >= properties.MIN_COVERAGE, f"coverage {coverage:.4f}")


def test_criterion_9_benchmark_determinism_across_parallelism(tmp_path):
    config = {
        "master_seed": 909,
        "replications": 4,
        "cells": [
            {"policy": "thompson", "n": 20, "t": 200, "params": {}},
            {"policy": "adaptive-trisection", "n": 20, "t": 200,
             "params": {"ci_scale": 0.1}},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    payloads = []
    for k, workers in enumerate(("1", "4")):
        out = tmp_path / f"out{k}"
        code = cli_main(
            ["bench", "--config", str(cfg_path), "--out", str(out),
             "--parallel", workers]
        )
        assert code == 0
        payloads.append((out / "bench_summaries.json").read_bytes())
    _criterion(9, "bench summaries byte-identical across worker counts",
               payloads[0] == payloads[1])


def test_criterion_11_fixed_point_kept_past_the_first_epoch():
    # Criterion 7's protocol at T=16000, where every run must leave its
    # first epoch, so that a wrong interval update can show.
    good, fewest = _runs_keeping_fixed_point(16_000)
    _criterion(11, "interval contains the fixed point every epoch at T=16000",
               good >= 99 and fewest >= 2, f"{good}/100 runs, fewest epochs {fewest}")
