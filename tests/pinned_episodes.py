"""The pinned long and wide episodes: regret bits, peak RSS and read-back offers.

Each pin runs ``run_episode(generate_synthetic(n, seed=3), policy, horizon,
seed=7, policy_params=params)`` and must reproduce the ``repr`` of its
cumulative regret, so that the offers and the random streams stay
bit-identical across refactors. A pin with ``peak_mb`` bounds the episode's
peak RSS; one with ``offers`` also reads the offers back and counts the
distinct ones.

Run as a script (``python tests/pinned_episodes.py``, with ``assortbench``
importable) it runs every pin in its own fresh interpreter, so that
``ru_maxrss`` is that episode's alone, prints one line per pin, and exits 1
naming each pin that failed.
"""

import multiprocessing
import resource
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

from assortbench.harness import generate_synthetic, run_episode


class Pin(NamedTuple):
    policy: str
    n: int
    horizon: int
    regret: str  # repr of the cumulative regret
    peak_mb: float | None = None
    offers: int | None = None  # distinct offers in log.assortments
    params: dict | None = None

    def __str__(self):
        params = f" {self.params}" if self.params else ""
        return f"{self.policy} N={self.n} T={self.horizon}{params}"


PINS = [
    # Each re-solve reads only the leading revenue ranks it can choose, and
    # must choose what a solve over all N ranks chooses.
    Pin("ucb", 100_000, 1000, "370.44568468041365"),
    # 11765 epochs: about 10^4 re-solves through best_prefix's bound, each new
    # level set prepared unchecked from the oracle's sort.
    Pin("ucb", 100, 100_000, "716.8220984722183"),
    # The log keeps each distinct offer once and, per period, only the
    # offer's index and the realized reward (16 bytes).
    Pin("thompson", 1000, 300_000, "10.712166809657152", peak_mb=200),
    # Its runs cross block boundaries; the regret is the one that serving
    # every period alone gives. It peaks at about 53 MB.
    Pin(
        "adaptive-trisection", 1000, 1_000_000, "2228.74497836608", peak_mb=100,
        params={"ci_scale": 0.1},
    ),
    # The final incumbent is one run of nearly 10^6 periods, drawn a block of
    # uniforms at a time. It peaks at about 53 MB.
    Pin("grs", 1000, 1_000_000, "3143.4365698761467", peak_mb=100),
    # An offer is a level-set size, so the log, the oracle and the episode loop
    # hold no tuple of N-order length per distinct offer. It peaks at about 55 MB.
    Pin("thompson", 100_000, 2000, "182.91139381127888", peak_mb=100),
    # Reading the offers back builds one tuple per distinct offer, here holding
    # 6.7 million item ids; the level-set tuples share one int object per item.
    Pin("thompson", 10_000, 20_000, "97.31305968247256", peak_mb=150, offers=1329),
]


def measure(pin):
    """The pin's regret ``repr``, peak RSS in MB and distinct offers (or None)."""
    instance = generate_synthetic(pin.n, seed=3)
    log = run_episode(instance, pin.policy, pin.horizon, seed=7, policy_params=pin.params)
    offers = None if pin.offers is None else len(set(log.assortments))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return repr(log.cumulative_regret), peak_mb, offers


def main(pins=PINS):
    """Run and check each pin; return 1 if any failed, else 0."""
    failed = []
    for pin in pins:
        try:
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as fresh:
                regret, peak_mb, offers = fresh.submit(measure, pin).result()
        except Exception:  # report it and go on to the next pin
            traceback.print_exc()
            print(f"FAIL {pin}: raised", flush=True)
            failed.append(pin)
            continue
        faults = [f"pinned {pin.regret}"] if regret != pin.regret else []
        if pin.peak_mb is not None and peak_mb > pin.peak_mb:
            faults.append(f"above {pin.peak_mb} MB")
        if offers != pin.offers:
            faults.append(f"pinned {pin.offers} distinct offers")
        shown = "" if offers is None else f", {offers} distinct offers"
        status = "FAIL" if faults else "ok"
        line = f"{status} {pin}: cumulative regret {regret}{shown}, peak RSS {peak_mb:.0f} MB"
        print(line, *faults, sep="; ", flush=True)
        if faults:
            failed.append(pin)
    if failed:
        print("failed pins:", "; ".join(map(str, failed)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
