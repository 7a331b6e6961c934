"""Benchmark command line.

Subcommands:
  run      one episode, per-period CSV
  bench    a grid of (policy, N, T, generator) cells, JSON + CSV summaries,
           and the fitted log-log regret exponent of every T-series; the
           built-in ``table2`` and ``hardpair`` grids
  verify   randomized property suites over the library's invariants

``run`` and ``bench`` describe their work as ``RunConfig``s, which check
themselves, and create ``--out`` where they write one, before any episode
runs; ``bench`` runs its cells on one worker pool.

Exit codes: 0 success, 1 configuration/usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import core, properties
from .harness import (
    GENERATOR_NAMES,
    RunConfig,
    fitted_exponent,
    run_batch,
    summaries_to_json,
    worker_pool,
    write_episode_csv,
)
from .policies import POLICY_NAMES

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
_POLICIES = ("ucb", "thompson", "grs", "trisection", "adaptive-trisection")


def _cell(policy: str, n: int, t: int) -> dict:
    params = {"ci_scale": 0.1} if policy == "adaptive-trisection" else {}
    return {"policy": policy, "n": n, "t": t, "params": params}


def builtin_config(name: str) -> dict:
    """Named built-in bench configs: 'table2', the paper's Table 2 grid, and
    'hardpair', its policies at N=2 on both sides of the hard pair."""
    if name == "table2":
        cells = [_cell(p, n, t) for n, t in _TABLE2_GRID for p in _POLICIES]
    elif name == "hardpair":
        cells = [
            {**_cell(p, 2, t), "generator": g}
            for t in (1000, 4000, 16000)
            for p in _POLICIES
            for g in ("lower_bound_p0", "lower_bound_p1")
        ]
    else:
        raise KeyError(name)
    return {"master_seed": 20240817, "replications": 20, "cells": cells}


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_assortment(text: str) -> tuple:
    """An assortment flag's value: comma-separated item ids, or none."""
    if not text.strip():
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated item ids, got {text!r}"
        ) from None


def _count(text: str) -> int:
    """A count flag's value: an integer >= 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="assortbench", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one episode and write its CSV log")
    p_run.add_argument("--policy", choices=POLICY_NAMES, default="adaptive-trisection")
    p_run.add_argument("--n", type=int, default=100, help="number of items")
    p_run.add_argument("--seed", type=int, default=0, help="master seed")
    p_run.add_argument(
        "--ci-scale",
        type=float,
        default=None,
        help="adaptive confidence-interval scale (2 theoretical, 0.1 tuned)",
    )
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

    p_verify = sub.add_parser("verify", help="randomized property suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--instances", type=_count, default=500)

    return parser


def _out_dir(arg) -> Path:
    path = arg if arg is not None else Path.cwd()
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(args) -> int:
    if args.assortment is not None and args.policy != "static":
        raise ValueError("--assortment only applies to static")
    # A RunConfig rejects --ci-scale on a policy without it.
    params = {} if args.ci_scale is None else {"ci_scale": args.ci_scale}
    if args.policy == "static":
        params["assortment"] = args.assortment or ()
    config = RunConfig(
        policy=args.policy,
        n=args.n,
        horizon=args.t,
        generator=args.generator,
        policy_params=params,
        master_seed=args.seed,
    )
    if args.policy == "static" and args.assortment is None:
        best, _ = core.oracle_optimal(config.build_instance())
        config = dataclasses.replace(config, policy_params={**params, "assortment": best})
    name = f"episode_{args.policy}_n{args.n}_t{args.t}"
    if args.generator != "synthetic":  # the hard pair's two sides get two files
        name += f"_{args.generator}"
    out = _out_dir(args.out) / f"{name}.csv"
    log = config.episode()
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
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bench config {name_or_path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"bench config {name_or_path} is not a JSON object")
    return config


def _check_keys(mapping: dict, allowed: tuple, what: str) -> None:
    """Reject a key outside ``allowed``, which would otherwise be ignored."""
    for key in mapping:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r}; {what} takes {', '.join(allowed)}")


def _bench_cells(config: dict, master_seed: int, replications: int) -> list:
    """Every cell's RunConfig, each checked as it is built, so that a bad
    cell, or a key that the config or a cell does not take, fails before any
    cell runs. Summaries are keyed by ``RunConfig.key``, so a cell that
    repeats an earlier cell's key is a bad cell too."""
    _check_keys(config, ("master_seed", "replications", "cells"), "a config")
    cells = config.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("bench config needs a nonempty list of cells")
    configs = []
    first_with_key: dict = {}  # key -> the first cell with it
    for k, cell in enumerate(cells):
        try:
            if not isinstance(cell, dict):
                raise ValueError("a cell must be a JSON object")
            _check_keys(cell, ("policy", "n", "t", "generator", "params"), "a cell")
            rc = RunConfig(
                policy=cell["policy"],
                n=cell["n"],
                horizon=cell["t"],
                generator=cell.get("generator", "synthetic"),
                policy_params=cell.get("params", {}),
                replications=replications,
                master_seed=master_seed,
            )
            first = first_with_key.setdefault(rc.key, k)
            if first != k:
                raise ValueError(f"same key {rc.key} as cell {first}; summaries are keyed by it")
        except KeyError as exc:
            raise ValueError(f"cell {k} {json.dumps(cell)}: missing key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"cell {k} {json.dumps(cell)}: {exc}") from None
        configs.append(rc)
    return configs


def _run_cells(configs, workers: int) -> list:
    """Run every cell on one pool of ``workers``, printing one line per cell
    as it finishes, and return the cells' summaries in order. run_batch
    returns only when all of a cell's replications have finished, so cells
    never overlap."""
    summaries = []
    width = max(len(rc.key) for rc in configs)
    with worker_pool(workers) as pool:
        for rc in configs:
            summary = run_batch(rc, pool=pool)
            summaries.append(summary)
            print(
                f"{rc.key:{width}s}  "
                f"mean={summary.mean_regret:8.2f} max={summary.max_regret:8.2f}"
            )
    return summaries


def _cmd_bench(args) -> int:
    config = _load_bench_config(args.config)
    master_seed = args.seed if args.seed is not None else config.get("master_seed", 0)
    replications = args.reps if args.reps is not None else config.get("replications", 20)
    configs = _bench_cells(config, master_seed, replications)
    out = _out_dir(args.out)
    summaries = _run_cells(configs, args.parallel)
    (out / "bench_summaries.json").write_text(summaries_to_json(summaries))
    with open(out / "bench_summaries.csv", "w", encoding="utf-8") as fh:
        fh.write("policy,n,t,generator,replications,mean_regret,max_regret,std_regret\n")
        for s in summaries:
            rc = s.config
            fh.write(
                f"{rc.policy},{rc.n},{rc.horizon},{rc.generator},{rc.replications},"
                f"{s.mean_regret!r},{s.max_regret!r},{s.std_regret!r}\n"
            )
    # A T-series is two or more cells equal in all but T: one exponent line
    # each, fitted in T order, in the order the series first appear.
    series: dict = {}  # (key without ":t=…", params) -> (T, mean regret) rows
    for s in summaries:
        rc = s.config
        label = rc.key.replace(f":t={rc.horizon}", "")
        params = json.dumps(rc.policy_params, sort_keys=True)
        series.setdefault((label, params), []).append((rc.horizon, s.mean_regret))
    for (label, _), rows in series.items():
        if len(rows) > 1:
            alpha = fitted_exponent(sorted(rows))
            print(f"{label}  fitted exponent", "undefined" if alpha is None else f"{alpha:.3f}")
    print(f"wrote {out / 'bench_summaries.json'}")
    return 0


def _cmd_verify(args) -> int:
    failures = properties.failures(args.seed, args.instances)
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return 2
    print(f"all properties passed ({args.instances} instances)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
