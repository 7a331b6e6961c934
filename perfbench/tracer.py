"""Span tracer for the benchmark's traced run.

The tracer records a span around every call into a layer of the library by
replacing the module attributes the library calls through (and two methods
of ``Policy``) with timing wrappers, and puts every original back when it is
uninstalled. Nothing under ``src/`` is edited, so an untraced run measures
the untouched program.

Spans live in flat arrays: name id, start, end and parent index (-1 for a
root). Replications that run in pool workers are traced in the worker and
their spans are adopted by the parent as children of the span that was open
when the result came back (``harness.run_batch``). ``perf_counter`` is the
system-wide monotonic clock on Linux, so worker and parent times compare.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

# (owner, attribute, span name). The owner is the module or class whose
# attribute the library looks up at call time; ``pkg.mod:Class`` names a class.
TARGETS = (
    ("assortbench.harness", "sample_purchase", "core.sample_purchase"),
    ("assortbench.harness", "expected_revenue", "core.expected_revenue"),
    ("assortbench.harness", "oracle_optimal", "core.oracle_optimal"),
    ("assortbench.policies", "oracle_optimal", "core.oracle_optimal"),
    ("assortbench.policies", "fixed_ci", "concentration.ci"),
    ("assortbench.policies", "adaptive_ci", "concentration.ci"),
    ("assortbench.policies:Policy", "next_assortment", "policies.next_assortment"),
    ("assortbench.policies:Policy", "observe", "policies.observe"),
    ("assortbench.harness", "make_policy", "policies.make_policy"),
    ("assortbench.harness", "generate_synthetic", "generators.generate_synthetic"),
    ("assortbench.harness", "run_episode", "harness.run_episode"),
    ("assortbench.cli", "run_batch", "harness.run_batch"),
    # The pool: each replication is traced in its worker (``traced_call``).
    ("assortbench.harness", "ProcessPoolExecutor", None),
)
REPLICATION = "harness.replication"

# Marks a wrapper and holds what it wraps, so a worker forked from a traced
# parent wraps the original function instead of the parent's wrapper.
_ORIGINAL = "_perfbench_original"


def resolve_owner(path: str):
    """The module ``pkg.mod``, or the class ``pkg.mod:Class``, named by path."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def distinct_offers(assortments) -> set:
    """The distinct offers of an episode. Policies reuse one tuple while an
    offer repeats, so deduplicating by identity first avoids hashing every
    period's tuple."""
    return set({id(a): a for a in assortments}.values())


def epochs_started(policy) -> int:
    """Epochs a policy has started: trisection intervals, estimator epochs
    (closed ones plus the open one), or golden-ratio probe levels (one level
    set is cached per probed threshold)."""
    if hasattr(policy, "interval_history"):
        return len(policy.interval_history)
    if hasattr(policy, "epochs_closed"):
        return policy.epochs_closed + 1
    return len(policy._level_set_cache)


class Tracer:
    """In-memory span recorder; install with ``installed()``."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list = []
        # One row per episode: (policy, horizon, distinct offers,
        # summed offer size, epochs started).
        self.episodes: list = []
        self._last_policy = None

    # -- recording --------------------------------------------------------

    def _code(self, name: str) -> int:
        code = self._name_ids.get(name)
        if code is None:
            code = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return code

    def _open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._code(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return wrapper

    def _wrap_make_policy(self, name: str, fn):
        inner = self._wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._last_policy = inner(*args, **kwargs)
            return self._last_policy

        return wrapper

    def _wrap_run_episode(self, name: str, fn):
        inner = self._wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(instance, policy_name, horizon, *args, **kwargs):
            log = inner(instance, policy_name, horizon, *args, **kwargs)
            self.episodes.append(
                (
                    policy_name,
                    horizon,
                    len(distinct_offers(log.assortments)),
                    sum(step[1] for step in log.steps),
                    epochs_started(self._last_policy),
                )
            )
            return log

        return wrapper

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            def map(self, fn, *iterables, **kwargs):
                traced = functools.partial(traced_call, fn)
                for result, export in super().map(traced, *iterables, **kwargs):
                    tracer.adopt(export)
                    yield result

        return TracedPool

    def adopt(self, export) -> None:
        """Append spans and episodes exported by a worker's tracer, with its
        roots attached to the span open here."""
        names, name_id, start, end, parent, episodes = export
        codes = np.array([self._code(name) for name in names], dtype=np.uint16)
        parent = np.frombuffer(parent, dtype=np.int64)
        root = self._stack[-1] if self._stack else -1
        parent = np.where(parent < 0, root, parent + len(self.start))
        self.name_id.frombytes(codes[np.frombuffer(name_id, dtype=np.uint16)].tobytes())
        self.start.extend(start)
        self.end.extend(end)
        self.parent.frombytes(parent.tobytes())
        self.episodes.extend(episodes)

    def export(self):
        return (self.names, self.name_id, self.start, self.end, self.parent, self.episodes)

    # -- installing -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target attribute; restore all of them on exit."""
        saved = []
        try:
            for owner_path, attr, name in TARGETS:
                owner = resolve_owner(owner_path)
                current = owner.__dict__[attr]
                original = getattr(current, _ORIGINAL, current)
                wrapper = self._wrapper(attr, name, original)
                setattr(wrapper, _ORIGINAL, original)
                saved.append((owner, attr, current))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, current in reversed(saved):
                setattr(owner, attr, current)

    def _wrapper(self, attr: str, name, original):
        if name is None:
            return self._traced_pool(original)
        if attr == "make_policy":
            return self._wrap_make_policy(name, original)
        if attr == "run_episode":
            return self._wrap_run_episode(name, original)
        return self._wrap(name, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: names (object), start, end, parent."""
        names = np.array(self.names, dtype=object)
        return (
            names[np.frombuffer(self.name_id, dtype=np.uint16)],
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64),
        )


def traced_call(fn, *args):
    """Pool-worker entry: run ``fn`` under a fresh tracer rooted at a
    replication span; return its result and the exported spans."""
    tracer = Tracer()
    with tracer.installed(), tracer.span(REPLICATION):
        result = fn(*args)
    return result, tracer.export()


def _union_length(start, end) -> float:
    """Length of the union of intervals sorted by start."""
    total, reach = 0.0, -np.inf
    for s, e in zip(start, end):
        s = max(s, reach)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent. Children of one process never
    overlap, so their durations add up; children that overlap (replications
    from concurrent pool workers) count their union once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    p = parent[kids]
    s = np.maximum(start[kids], start[p])
    e = np.minimum(end[kids], end[p])
    covered = np.bincount(p, weights=np.maximum(e - s, 0.0), minlength=start.size)
    overlapping = (p[1:] == p[:-1]) & (s[1:] < e[:-1])
    for q in np.unique(p[1:][overlapping]):
        mine = p == q
        covered[q] = _union_length(s[mine], e[mine])
    return (end - start) - covered

