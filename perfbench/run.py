"""Benchmark of the assortbench simulator: simulated periods per host second.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports the library from ``src/`` of the same checkout. A run makes the
workload's minimum number of timed passes (five of estimator-epochs, one
of table2-pool), and more until ``--seconds`` of them have been measured.
Every pass runs the same units of work on the same inputs. The outputs of
every pass are checked (see ``workloads``), outside the timed region.

End-to-end metrics: ``periods_per_ref_s``, ``setup_s`` and
``peak_rss_mb``.

``periods_per_ref_s`` is simulated periods (replications x T summed over
the cells) per second of wall time at a fixed reference speed of the
machine. A shared two-vCPU Xeon VM was seen to run the same code up to
1.5 times slower or faster from one half-minute to the next (an identical
episode took 91 to 183 ms within one minute), with both vCPUs and every
kind of code in the simulator slowing together. So a probe, a fixed piece
of the benchmark's own code (``workloads.probe_s``), runs before and after
every unit of work (an episode, or a bench cell), and each unit's wall time
is scaled by ``PROBE_REF_S`` over the probe time around it. A unit's scaled
time is its median over the run's passes; a pass at reference speed is the
sum of these. The unscaled wall-clock throughput, ``periods_per_s``, and
the machine's speed (``PROBE_REF_S`` over the median probe time of the
passes) are printed beside it.

``setup_s`` is the median of twelve fresh processes, from process start to
the first episode, half of them before the timed passes and half after.
Each is scaled to the reference speed by the probe time around it, as a
unit of work is; the unscaled median, ``setup_wall_s``, is printed beside
it. Also printed: ``failed_frac``, and the median and tail cell time where a
run has enough cells for a percentile with ten cells beyond it
(table2-pool).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` measures
untraced passes for half of ``--seconds`` (at least one), then as many
passes under the span tracer, and prints the per-layer metrics;
``trace.overhead_frac`` compares the two at the reference speed. Each run
prints its metrics one per line with units, then one JSON line:
``correct``, ``attempted`` and ``failed`` (episodes) and ``metrics``. Run
metadata, every metric and the spans are also written under
``.perfbench/`` in the checkout.

``--record-reference`` runs one pass at the workload's default seed and
stores its regrets (and, for table2-pool, the digest of
``bench_summaries.json``) in ``reference.json``. Passes at the default
seed must reproduce them bit for bit, and every run, whatever its seed,
re-runs one replication per cell at the default seed and compares it with
them. Record again only when a change is meant to alter simulated
behaviour. A run whose outputs fail a check exits with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Set-up is timed this many times, half before the timed passes and half
# after, so that its median does not rest on one moment of the machine.
SETUP_REPEATS = 12
# Probe time that defines the reference speed: about its median on a
# two-vCPU Xeon VM.
PROBE_REF_S = 0.011
# Percentiles considered for a tail timing, highest first.
PERCENTS = (99, 95, 90, 75, 50)
MIN_BEYOND = 10

# Child process that times set-up from its own start: import the library,
# build the workload's configs and instances, print the clock. The parent
# reads the clock just before starting it; perf_counter is system-wide.
_SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[1] + "/src"]
from perfbench import workloads
workloads.setup(sys.argv[2], int(sys.argv[3]))
print(repr(time.perf_counter()))
"""


def nearest_rank(values, percent: float):
    """Nearest-rank percentile of ``values`` and how many samples lie beyond
    its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(values, min_beyond: int = MIN_BEYOND):
    """The highest of ``PERCENTS`` with at least ``min_beyond`` samples
    beyond it: (percent, value, samples beyond), or None when even the
    median has fewer."""
    for percent in PERCENTS:
        value, beyond = nearest_rank(values, percent)
        if beyond >= min_beyond:
            return percent, value, beyond
    return None


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(workload: str, seed: int) -> dict:
    """Where and on what a result was measured."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    source = hashlib.sha256()
    for path in sorted((SRC / "assortbench").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if sha else None,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def setup_seconds(workload: str, seed: int, repeats: int) -> list:
    """Set-up time of ``repeats`` fresh processes, from process start to
    the first episode, each with the probe time around it: a list of
    (wall seconds, probe seconds)."""
    from perfbench import workloads

    times, probes = [], [workloads.probe_s()]
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(ROOT), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
        probes.append(workloads.probe_s())
    return list(zip(times, workloads.around(probes)))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any process it waited for
    (pool workers and set-up children), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Checked:
    """Episode counts and findings over all passes of a run."""

    def __init__(self, workload: str, seed: int):
        from perfbench import workloads

        self._workloads = workloads
        # Outputs recorded at the workload's default seed; a pass is compared
        # with them in full when it runs at that seed.
        self.recorded = {}
        if REFERENCE.exists():
            self.recorded = json.loads(REFERENCE.read_text()).get(workload, {})
        self.reference = self.recorded if self.recorded.get("seed") == seed else None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add_spot_check(self, episodes: int, findings: list) -> None:
        self.attempted += episodes
        self.failed += len(findings)
        self.problems += findings

    def add(self, result) -> None:
        if self.reference is not None:
            self.problems += self._workloads.reference_problems(result, self.reference)
        self.attempted += result.episodes
        self.failed += len(result.failed)
        self.problems += result.problems

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def run_passes(workload, seconds: float, passes: int, checked: Checked) -> list:
    """At least ``passes`` timed passes and ``seconds`` of measured time,
    each pass checked after it."""
    results = []
    while len(results) < passes or sum(r.wall_s for r in results) < seconds:
        results.append(workload.run_pass(OUT))
        workload.check(results[-1])
        checked.add(results[-1])
    return results


def traced_passes(workload_name: str, seed: int, passes: int, tracer, checked: Checked) -> list:
    """Set-up and ``passes`` timed passes under ``tracer``; the checks run
    after it is uninstalled, so their episodes leave no spans. The probe
    runs between passes only, since inside a pass it would land in the
    spans; every unit of a pass gets the probe times around the pass."""
    from perfbench import workloads

    with tracer.installed():
        with tracer.span("bench.setup"):
            workload = workloads.setup(workload_name, seed)
        results, probes = [], [workloads.probe_s()]
        for _ in range(passes):
            results.append(workload.run_pass(OUT, tracer.span, probe=None))
            probes.append(workloads.probe_s())
    for result, probe in zip(results, workloads.around(probes)):
        result.probe_s = [probe] * len(result.unit_s)
    for result in results:
        workload.check(result)
        checked.add(result)
    return results


def reference_s(result) -> float:
    """One pass's own time at the reference speed."""
    return sum(u * PROBE_REF_S / p for u, p in zip(result.unit_s, result.probe_s))


def reference_pass_s(results) -> float:
    """Time of one pass at the reference speed: each unit's wall time times
    ``PROBE_REF_S`` over the probe time around it, its median over the
    passes (which repeat the same units on the same inputs), summed over
    the units."""
    units = zip(*(r.unit_s for r in results))
    probes = zip(*(r.probe_s for r in results))
    return sum(
        statistics.median(u * PROBE_REF_S / p for u, p in zip(times, around))
        for times, around in zip(units, probes)
    )


def end_to_end(results, setup_times) -> dict:
    """The metrics the benchmark bounds, from the untraced passes."""
    return {
        "periods_per_ref_s": (results[0].periods / reference_pass_s(results), "periods/s"),
        "setup_s": (statistics.median(wall * PROBE_REF_S / probe for wall, probe in setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def wall_clock(results, setup_times) -> dict:
    """Printed beside the bounded metrics: the unscaled throughput and
    set-up time, and the speed of the machine during the run, relative to
    the reference."""
    periods = sum(r.periods for r in results)
    probes = [p for r in results for p in r.probe_s]
    return {
        "periods_per_s": (periods / sum(sum(r.unit_s) for r in results), "periods/s", "wall clock, not bounded"),
        "setup_wall_s": (statistics.median(wall for wall, _ in setup_times), "s", "wall clock, not bounded"),
        "machine_speed": (PROBE_REF_S / statistics.median(probes), "ratio", "reference = 1"),
    }


def cell_metrics(results) -> dict:
    """Median cell wall time and the highest percentile with at least
    ``MIN_BEYOND`` cells beyond it; empty when a run has too few cells for
    that (the serial workloads have two or three)."""
    cells = [c for r in results for c in r.cell_s]
    tail = tail_percentile(cells)
    if tail is None:
        return {}
    percent, value, beyond = tail
    return {
        "cell_s_p50": (nearest_rank(cells, 50)[0], "s", f"median of {len(cells)} cells"),
        f"cell_s_p{percent}": (value, "s", f"{beyond} of {len(cells)} cells beyond"),
    }


def per_layer(tracer, traced, untraced) -> dict:
    """Layer metrics from the spans of the traced passes (and the traced
    set-up, for the generator). ``unattributed_s`` is the traced wall time
    outside every root span: the benchmark's own loop and the tracer's
    bookkeeping between library calls. On table2-pool the replication
    spans come from the traced 2-worker pass itself, so
    ``harness.pool.busy_frac`` is measured against that pass's wall time."""
    from perfbench.tracer import self_times
    from perfbench.workloads import TABLE2_WORKERS

    names, start, end, parent = tracer.arrays()
    own = self_times(start, end, parent)
    duration = end - start

    def calls(name):
        return int((names == name).sum())

    def self_s(name):
        return float(own[names == name].sum())

    def per_call_us(name):
        return self_s(name) / calls(name) * 1e6 if calls(name) else 0.0

    periods = sum(r.periods for r in traced)
    episodes = tracer.episodes
    episode_ms = duration[names == "harness.run_episode"] * 1e3
    batch_wall = float(duration[names == "harness.run_batch"].sum())
    busy = float(duration[names == "harness.replication"].sum())
    traced_wall = sum(r.wall_s for r in traced)
    metrics = {
        "core.sample_purchase.calls": (calls("core.sample_purchase"), "count"),
        "core.sample_purchase.self_s": (self_s("core.sample_purchase"), "s"),
        "core.sample_purchase.us_per_call": (per_call_us("core.sample_purchase"), "us"),
        "core.mean_offer_size": (sum(e[3] for e in episodes) / periods, "items"),
        "core.expected_revenue.calls": (calls("core.expected_revenue"), "count"),
        "core.expected_revenue.self_s": (self_s("core.expected_revenue"), "s"),
        "harness.revenue_cache.hit_ratio": (1.0 - calls("core.expected_revenue") / periods, "ratio"),
        "core.oracle_optimal.calls": (calls("core.oracle_optimal"), "count"),
        "core.oracle_optimal.self_s": (self_s("core.oracle_optimal"), "s"),
        "core.oracle_optimal.us_per_call": (per_call_us("core.oracle_optimal"), "us"),
        "policies.next_assortment.self_s": (self_s("policies.next_assortment"), "s"),
        "policies.observe.self_s": (self_s("policies.observe"), "s"),
        "policies.make_policy.self_s": (self_s("policies.make_policy"), "s"),
        "policies.epochs_started": (sum(e[4] for e in episodes), "count"),
        "policies.distinct_offers": (sum(e[2] for e in episodes), "count"),
    }
    for policy in ("trisection", "adaptive-trisection", "ucb", "thompson", "grs"):
        epochs = [e[4] for e in episodes if e[0] == policy]
        metrics[f"policies.epochs_per_episode.{policy}"] = (
            sum(epochs) / len(epochs) if epochs else 0.0,
            "epochs",
        )
    metrics.update(
        {
            "concentration.ci.calls": (calls("concentration.ci"), "count"),
            "concentration.ci.self_s": (self_s("concentration.ci"), "s"),
            "generators.generate_synthetic.calls": (calls("generators.generate_synthetic"), "count"),
            "generators.generate_synthetic.self_s": (self_s("generators.generate_synthetic"), "s"),
            "harness.run_episode.calls": (calls("harness.run_episode"), "count"),
            "harness.run_episode.self_s": (self_s("harness.run_episode"), "s"),
            "harness.run_episode.ms_p50": (float(statistics.median(episode_ms)), "ms"),
            "harness.run_episode.ms_max": (float(episode_ms.max()), "ms"),
            "harness.run_batch.wall_s": (batch_wall, "s"),
            "harness.pool.busy_frac": (
                busy / (TABLE2_WORKERS * batch_wall) if batch_wall else 0.0,
                "ratio",
            ),
            "cli.bench.self_s": (self_s("cli.bench"), "s"),
            "harness.periods": (periods, "periods"),
            "harness.episodes": (len(episodes), "count"),
            "unattributed_s": (traced_wall - float(duration[(parent < 0) & (names != "bench.setup")].sum()), "s"),
            "trace.overhead_frac": (
                sum(map(reference_s, traced)) / sum(map(reference_s, untraced)) - 1.0,
                "ratio",
            ),
        }
    )
    return metrics


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")


def _write_spans(tracer, path: Path) -> None:
    _, start, end, parent = tracer.arrays()
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name_id=np.frombuffer(tracer.name_id, dtype=np.uint16),
        start=start,
        end=end,
        parent=parent,
    )


def record_reference(workload_name: str) -> int:
    from perfbench import workloads

    seed = workloads.DEFAULT_SEEDS[workload_name]
    checked = Checked(workload_name, seed)
    checked.reference = None
    result = run_passes(workloads.setup(workload_name, seed), 0, 1, checked)[0]
    if not checked.correct:
        print("\n".join(checked.problems), file=sys.stderr)
        return 1
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[workload_name] = {"seed": seed, "regrets": result.regrets, "sha256": result.digest}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload_name} at seed {seed} in {REFERENCE.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "assortbench" / "__init__.py").is_file():
        print(f"error: no assortbench package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    os.environ.pop("ASSORT_BENCH_OUT", None)  # the CLI would write there instead
    import assortbench
    from perfbench import workloads
    from perfbench.tracer import Tracer

    if not Path(assortbench.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: assortbench imported from {assortbench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args.workload)
    OUT.mkdir(exist_ok=True)

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    meta = metadata(args.workload, seed)
    checked = Checked(args.workload, seed)
    if not checked.recorded:
        print(f"error: no reference outputs for {args.workload} in {REFERENCE}", file=sys.stderr)
        return 2
    checked.add_spot_check(*workloads.spot_check(args.workload, checked.recorded, seed))
    setup_times = setup_seconds(args.workload, seed, SETUP_REPEATS // 2)
    workload = workloads.setup(args.workload, seed)
    if args.trace:  # the untraced passes are the baseline of trace.overhead_frac
        untraced = run_passes(workload, args.seconds / 2, 1, checked)
    else:
        untraced = run_passes(workload, args.seconds, workload.min_passes, checked)
    setup_times += setup_seconds(args.workload, seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    report = {
        "meta": meta,
        "setup_s": setup_times,
        "end_to_end": end_to_end(untraced, setup_times),
        "wall_clock": wall_clock(untraced, setup_times),
        "cells": cell_metrics(untraced),
    }
    if args.trace:
        tracer = Tracer()
        traced = traced_passes(args.workload, seed, len(untraced), tracer, checked)
        for before, after in zip(untraced, traced):
            if before.regrets != after.regrets:
                checked.problems.append("traced pass returned other regrets than the untraced one")
        report["per_layer"] = per_layer(tracer, traced, untraced)
        _write_spans(tracer, OUT / f"spans-{args.workload}.npz")

    print(f"# {json.dumps(meta)}")
    print(f"# {len(untraced)} untraced pass(es), {checked.attempted} episodes checked")
    _print_metrics(report["end_to_end"])
    for name, (value, unit, note) in {**report["wall_clock"], **report["cells"]}.items():
        print(f"{name} = {value!r} {unit} ({note})")
    print(f"failed_frac = {checked.failed / checked.attempted!r} ratio ({checked.failed} of {checked.attempted} episodes)")
    if args.trace:
        _print_metrics(report["per_layer"])
    for problem in checked.problems[:20]:
        print(f"# FAIL {problem}")
    report["checks"] = {"attempted": checked.attempted, "failed": checked.failed, "problems": checked.problems}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1, default=str))
    metrics = report["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": checked.correct,
                "attempted": checked.attempted,
                "failed": checked.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if checked.correct else 1


if __name__ == "__main__":
    sys.exit(main())
