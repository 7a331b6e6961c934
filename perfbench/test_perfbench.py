"""Tests of the benchmark itself: self times, the tail-percentile rule,
the tracer's clean uninstall, failure counting and the reference check."""

import json
import math

import pytest

from assortbench import harness
from assortbench.harness import RunConfig
from perfbench import workloads
from perfbench.run import PROBE_REF_S, REFERENCE, Checked, nearest_rank, reference_pass_s, tail_percentile
from perfbench.tracer import REPLICATION, TARGETS, Tracer, resolve_owner, self_times


def test_self_time_subtracts_nested_and_overlapping_children():
    # 0 root [0, 10]: children 1 and 3
    # 1   [1, 4]: child 2 [2, 3]
    # 3   [5, 9]
    # 4 root [20, 30]: overlapping children (concurrent workers) and one
    #   that runs past its parent's end
    spans = [
        (0.0, 10.0, -1),
        (1.0, 4.0, 0),
        (2.0, 3.0, 1),
        (5.0, 9.0, 0),
        (20.0, 30.0, -1),
        (21.0, 25.0, 4),
        (23.0, 27.0, 4),
        (28.0, 31.0, 4),
    ]
    start, end, parent = zip(*spans)
    got = self_times(start, end, parent)
    # Root 4 covers [21, 27] and [28, 30] through its children: 8 of 10.
    assert got.tolist() == pytest.approx([3.0, 2.0, 1.0, 4.0, 2.0, 4.0, 4.0, 3.0])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(range(40)) == (75, 29, 10)
    assert tail_percentile(range(39)) == (50, 19, 19)
    assert tail_percentile(range(1000)) == (99, 989, 10)
    assert tail_percentile(range(15)) is None
    assert nearest_rank([3.0, 1.0, 2.0], 75) == (3.0, 0)


def test_reference_pass_scales_each_unit_by_its_probe():
    # Unit 0 ran at half speed in the first pass and at reference speed in
    # the second and third; unit 1 ran at reference speed throughout.
    ref = PROBE_REF_S
    passes = [
        workloads.Pass(wall_s=0.0, periods=1, unit_s=u, cell_s=[], episodes=1, probe_s=p)
        for u, p in (([4.0, 1.0], [2 * ref, ref]), ([2.0, 1.0], [ref, ref]), ([2.2, 1.0], [ref, ref]))
    ]
    assert reference_pass_s(passes) == pytest.approx(3.0)


def test_probes_bracket_every_unit(tmp_path):
    calls = iter(range(1, 100))
    result = _tiny_serial().run_pass(tmp_path, probe=lambda: float(next(calls)))
    assert result.probe_s == [1.5, 2.5, 3.5, 4.5]
    assert len(result.unit_s) == 4


def _targets():
    owners = [(resolve_owner(o), a) for o, a, _ in TARGETS]
    return [(owner, attr, owner.__dict__[attr]) for owner, attr in owners]


def test_tracer_restores_every_wrapped_attribute():
    before = _targets()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(owner.__dict__[attr] is not orig for owner, attr, orig in before)
            instance = RunConfig(policy="grs", n=20, horizon=50).build_instance()
            harness.run_episode(instance, "grs", 50, 1)
            raise RuntimeError("leave the block early")
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in before)
    names = set(tracer.names)
    assert {"harness.run_episode", "core.sample_purchase", "policies.observe"} <= names
    assert len(tracer.episodes) == 1


def test_pool_replications_are_adopted_as_children():
    tracer = Tracer()
    config = RunConfig(policy="grs", n=20, horizon=50, replications=4)
    with tracer.installed(), tracer.span("batch"):
        harness.run_batch(config, workers=2)
    names, start, end, parent = tracer.arrays()
    replications = (names == REPLICATION).nonzero()[0]
    assert len(replications) == 4
    assert all(parent[replications] == 0)
    assert (names == "harness.run_episode").sum() == 4
    assert len(tracer.episodes) == 4
    assert all(s >= -1e-9 for s in self_times(start, end, parent))


def _tiny_serial(seed=3):
    spec = workloads.SerialSpec(30, 200, (("trisection", {}), ("ucb", {})), 2)
    return workloads.SerialWorkload(spec, seed)


def test_corrupted_regret_is_counted_as_failed(tmp_path):
    workload = _tiny_serial()
    result = workload.run_pass(tmp_path)
    result.evidence[1].regret[7] = -1.0
    workload.check(result)
    checked = Checked("no-such-workload", 0)
    checked.add(result)
    assert (checked.attempted, checked.failed) == (4, 1)
    assert not checked.correct


def test_clean_pass_matches_its_own_reference(tmp_path):
    workload = _tiny_serial()
    first = workload.run_pass(tmp_path)
    workload.check(first)
    assert not first.failed and not first.problems
    second = workload.run_pass(tmp_path)
    workload.check(second)
    assert workloads.reference_problems(second, {"regrets": first.regrets}) == []
    assert not second.failed


def test_corrupted_pooled_regret_is_counted_as_failed():
    workload = workloads.Table2Workload(seed=11)
    workload.configs = [
        RunConfig(policy=c.policy, n=20, horizon=60, policy_params=c.policy_params, replications=3, master_seed=11)
        for c in workload.configs[:5]
    ]
    summaries = {workloads.cell_key(c): harness.run_batch(c).to_dict() for c in workload.configs}
    summaries[workloads.cell_key(workload.configs[2])]["regrets"][1] = math.nan
    result = workloads.Pass(wall_s=1.0, periods=900, unit_s=[0.2] * 5, cell_s=[0.2] * 5, episodes=15, evidence=summaries)
    workload.check(result)
    assert len(result.failed) == 1


def test_spot_check_compares_default_seed_with_reference():
    recorded = json.loads(REFERENCE.read_text())["estimator-epochs"]
    assert workloads.spot_check("estimator-epochs", recorded, pick=19) == (2, [])
    key = workloads.cell_key(workloads.setup("estimator-epochs", recorded["seed"]).configs[1])
    recorded["regrets"][key][19 % workloads.ESTIMATOR_EPOCHS.replications] += 1e-12
    episodes, findings = workloads.spot_check("estimator-epochs", recorded, pick=19)
    assert episodes == 2 and len(findings) == 1 and key in findings[0]
