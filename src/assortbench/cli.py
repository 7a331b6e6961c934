"""Benchmark command line.

Subcommands:
  run          one episode, per-period CSV
  bench        a grid of (policy, N, T) cells, JSON + CSV summaries
  scaling      mean regret across horizons with a fitted log-log exponent
  verify       randomized property suites over the library's invariants
  lower-bound  diagnostics on the hard two-item instance pair

Exit codes: 0 success, 1 configuration/usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import core, properties
from .generators import GENERATOR_NAMES, generate_lower_bound, lower_bound_tester
from .harness import (
    RunConfig,
    derive_seed,
    regret_scaling_study,
    run_batch,
    run_episode,
    summaries_to_json,
    worker_pool,
    write_episode_csv,
)
from .policies import POLICY_NAMES, make_policy

__all__ = ["main", "build_parser", "builtin_config"]

_TABLE2_GRID = [
    (100, 500),
    (250, 500),
    (500, 500),
    (1000, 500),
    (100, 1000),
    (250, 1000),
    (500, 1000),
    (1000, 1000),
]


def builtin_config(name: str) -> dict:
    """Named built-in bench configs; currently only 'table2'."""
    if name != "table2":
        raise KeyError(name)
    cells = []
    for n, t in _TABLE2_GRID:
        for policy in ("ucb", "thompson", "grs", "trisection", "adaptive-trisection"):
            params = {"ci_scale": 0.1} if policy == "adaptive-trisection" else {}
            cells.append({"policy": policy, "n": n, "t": t, "params": params})
    return {"master_seed": 20240817, "replications": 20, "cells": cells}


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_assortment(text: str) -> tuple:
    if not text.strip():
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _count(text: str) -> int:
    """A count flag's value: an integer >= 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="assortbench", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--policy", choices=POLICY_NAMES, default="adaptive-trisection")
        p.add_argument("--n", type=int, default=100, help="number of items")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument(
            "--ci-scale",
            type=float,
            default=None,
            help="adaptive confidence-interval scale (2 theoretical, 0.1 tuned)",
        )

    p_run = sub.add_parser("run", help="run one episode and write its CSV log")
    common(p_run)
    p_run.add_argument("--out", type=Path, default=None, help="output directory")
    p_run.add_argument("--t", type=int, default=1000, help="horizon")
    p_run.add_argument("--generator", choices=GENERATOR_NAMES, default="synthetic")
    p_run.add_argument(
        "--assortment",
        type=_parse_assortment,
        default=None,
        help="comma-separated item ids for the static policy (default: the oracle's optimum)",
    )

    p_bench = sub.add_parser("bench", help="run a grid of cells from a config")
    p_bench.add_argument("--config", required=True, help="JSON path or built-in name")
    p_bench.add_argument("--out", type=Path, default=None)
    p_bench.add_argument("--parallel", type=_count, default=1, help="worker processes")
    p_bench.add_argument("--reps", type=_count, default=None, help="override replications")
    p_bench.add_argument("--seed", type=int, default=None, help="override master seed")

    p_scale = sub.add_parser("scaling", help="regret scaling across horizons")
    common(p_scale)
    p_scale.add_argument("--out", type=Path, default=None, help="output directory")
    p_scale.add_argument("--t", default="1000,4000,16000", help="comma-separated horizons")
    p_scale.add_argument("--reps", type=_count, default=20)
    p_scale.add_argument("--parallel", type=_count, default=1)

    p_verify = sub.add_parser("verify", help="randomized property suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--instances", type=_count, default=500)

    p_lb = sub.add_parser("lower-bound", help="hard-pair diagnostics")
    common(p_lb)
    p_lb.add_argument("--t", type=int, default=1000, help="horizon")
    p_lb.add_argument("--reps", type=_count, default=20)

    return parser


def _out_dir(arg) -> Path:
    path = arg if arg is not None else Path.cwd()
    path.mkdir(parents=True, exist_ok=True)
    return path


def _policy_params(args) -> dict:
    params = {}
    if getattr(args, "ci_scale", None) is not None:
        if args.policy != "adaptive-trisection":
            raise ValueError("--ci-scale only applies to adaptive-trisection")
        params["ci_scale"] = args.ci_scale
    return params


def _cmd_run(args) -> int:
    if args.assortment is not None and args.policy != "static":
        raise ValueError("--assortment only applies to static")
    config = RunConfig(
        policy=args.policy,
        n=args.n,
        horizon=args.t,
        generator=args.generator,
        policy_params=_policy_params(args),
        master_seed=args.seed,
    )
    if args.policy == "static":
        assortment = args.assortment
        if assortment is None:
            assortment, _ = core.oracle_optimal(config.build_instance())
        config.policy_params["assortment"] = assortment
    log = config.episode()
    out = _out_dir(args.out) / f"episode_{args.policy}_n{args.n}_t{args.t}.csv"
    write_episode_csv(log, out)
    print(f"cumulative regret {log.cumulative_regret:.4f} -> {out}")
    return 0


def _load_bench_config(name_or_path: str) -> dict:
    try:
        return builtin_config(name_or_path)
    except KeyError:
        pass
    path = Path(name_or_path)
    if not path.exists():
        raise ValueError(f"no such config: {name_or_path}")
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"bench config {name_or_path} is not a JSON object")
    return config


def _bench_cells(config: dict, master_seed: int, replications: int) -> list:
    """Every cell's RunConfig, each checked by building its policy on zero
    revenues at the cell's N and T, so that a bad cell fails before any
    cell runs."""
    cells = config.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("bench config needs a nonempty list of cells")
    generator = config.get("generator", "synthetic")
    configs = []
    for k, cell in enumerate(cells):
        try:
            rc = RunConfig(
                policy=cell["policy"],
                n=cell["n"],
                horizon=cell["t"],
                generator=cell.get("generator", generator),
                policy_params=cell.get("params", {}),
                replications=replications,
                master_seed=master_seed,
            )
            make_policy(rc.policy, np.zeros(rc.n), rc.horizon, params=rc.policy_params)
        except KeyError as exc:
            raise ValueError(f"cell {k} {json.dumps(cell)}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"cell {k} {json.dumps(cell)}: {exc}") from None
        configs.append(rc)
    return configs


def _cmd_bench(args) -> int:
    config = _load_bench_config(args.config)
    master_seed = args.seed if args.seed is not None else config.get("master_seed", 0)
    replications = args.reps if args.reps is not None else config.get("replications", 20)
    configs = _bench_cells(config, master_seed, replications)
    summaries = []
    # One pool for every cell; run_batch returns only when all of a cell's
    # replications have finished, so cells never overlap.
    with worker_pool(args.parallel) as pool:
        for rc in configs:
            summary = run_batch(rc, pool=pool)
            summaries.append(summary)
            print(
                f"{summary.policy_name:22s} N={summary.n:5d} T={summary.horizon:6d} "
                f"mean={summary.mean_regret:8.2f} max={summary.max_regret:8.2f}"
            )
    out = _out_dir(args.out)
    (out / "bench_summaries.json").write_text(summaries_to_json(summaries))
    with open(out / "bench_summaries.csv", "w", encoding="utf-8") as fh:
        fh.write("policy,n,t,replications,mean_regret,max_regret,std_regret\n")
        for s in summaries:
            fh.write(
                f"{s.policy_name},{s.n},{s.horizon},{s.replications},"
                f"{s.mean_regret!r},{s.max_regret!r},{s.std_regret!r}\n"
            )
    print(f"wrote {out / 'bench_summaries.json'}")
    return 0


def _cmd_scaling(args) -> int:
    horizons = [int(tok) for tok in str(args.t).split(",")]
    rows, alpha = regret_scaling_study(
        args.policy,
        args.n,
        horizons,
        args.reps,
        args.seed,
        policy_params=_policy_params(args),
        workers=args.parallel,
    )
    out = _out_dir(args.out) / f"scaling_{args.policy}_n{args.n}.csv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("t,mean_regret\n")
        for t, mean in rows:
            fh.write(f"{t},{mean!r}\n")
    for t, mean in rows:
        print(f"T={t:7d}  mean regret {mean:.4f}")
    print("fitted exponent:", "undefined" if alpha is None else f"{alpha:.3f}")
    return 0


def _cmd_verify(args) -> int:
    failures = properties.failures(args.seed, args.instances)
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return 2
    print(f"all properties passed ({args.instances} instances)")
    return 0


def _cmd_lower_bound(args) -> int:
    p0 = generate_lower_bound("P0", args.n, args.t)
    p1 = generate_lower_bound("P1", args.n, args.t)
    for assortment in ((1,), (1, 2)):
        kl = core.kl_purchase_distributions(p0, p1, assortment)
        print(f"KL(P0||P1) on S={assortment}: {kl:.3e} (bound {1/(18*args.t):.3e})")
    params = _policy_params(args)
    outputs = []
    for variant, inst in (("P0", p0), ("P1", p1)):
        for k in range(args.reps):
            log = run_episode(
                inst,
                args.policy,
                args.t,
                derive_seed(args.seed, variant, k),
                policy_params=params,
            )
            outputs.append((variant, lower_bound_tester(log.assortments)))
    for variant in ("P0", "P1"):
        votes = [o for v, o in outputs if v == variant]
        frac0 = votes.count(0) / len(votes)
        print(f"{variant}: tester output 0 in {frac0:.0%} of {len(votes)} runs")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "bench": _cmd_bench,
        "scaling": _cmd_scaling,
        "verify": _cmd_verify,
        "lower-bound": _cmd_lower_bound,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
