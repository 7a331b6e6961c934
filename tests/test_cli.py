import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import assortbench
from assortbench import core, harness, properties
from assortbench.cli import builtin_config, main


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


class TestRun:
    def test_static_oracle_all_zero_regret(self, tmp_path, capsys):
        code = run_cli(
            ["run", "--policy", "static", "--n", "1", "--t", "10", "--out", str(tmp_path)]
        )
        assert code == 0
        csv_files = list(tmp_path.glob("episode_static_*.csv"))
        assert len(csv_files) == 1
        rows = csv_files[0].read_text().strip().splitlines()[1:]
        assert len(rows) == 10
        assert all(float(row.split(",")[3]) == 0.0 for row in rows)

    def test_csv_name_holds_the_generator_off_the_synthetic_family(self, tmp_path, capsys):
        # The hard pair's two sides write two files; a synthetic run's name
        # has no generator part.
        args = ["run", "--policy", "grs", "--n", "2", "--t", "50", "--out", str(tmp_path)]
        for generator in ("lower_bound_p0", "lower_bound_p1", "synthetic"):
            assert run_cli([*args, "--generator", generator]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "episode_grs_n2_t50.csv",
            "episode_grs_n2_t50_lower_bound_p0.csv",
            "episode_grs_n2_t50_lower_bound_p1.csv",
        ]

    def test_run_adaptive(self, tmp_path):
        code = run_cli(
            [
                "run",
                "--policy",
                "adaptive-trisection",
                "--ci-scale",
                "0.1",
                "--n",
                "20",
                "--t",
                "50",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0

    def test_unknown_policy_exits_one(self, tmp_path, capsys):
        assert run_cli(["run", "--policy", "bogus", "--out", str(tmp_path)]) == 1

    def test_unknown_subcommand_exits_one(self):
        assert run_cli(["frobnicate"]) == 1

    def test_ci_scale_on_wrong_policy_exits_one(self, tmp_path, capsys):
        code = run_cli(
            ["run", "--policy", "ucb", "--ci-scale", "0.1", "--n", "5", "--t", "10",
             "--out", str(tmp_path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: policy 'ucb' got an unexpected keyword argument 'ci_scale'"
        ]
        assert not list(tmp_path.iterdir())

    def test_assortment_on_wrong_policy_exits_one(self, tmp_path, capsys):
        code = run_cli(
            ["run", "--policy", "ucb", "--assortment", "1,2", "--n", "5", "--t", "10",
             "--out", str(tmp_path)]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: --assortment only applies to static"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("ids", ["a", "1.5", "1,,2"])
    def test_bad_assortment_exits_one_naming_the_flag(self, tmp_path, ids, capsys):
        code = run_cli(
            ["run", "--policy", "static", "--assortment", ids, "--n", "5", "--t", "10",
             "--out", str(tmp_path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: assortbench run")
        assert lines[-1] == (
            f"error: argument --assortment: expected comma-separated item ids, got {ids!r}"
        )
        assert not list(tmp_path.iterdir())

    def test_empty_assortment_offers_the_empty_set(self, tmp_path):
        # Nothing is bought, so each period's regret is the optimal value.
        args = ["run", "--policy", "static", "--assortment=", "--n", "5", "--t", "10"]
        assert run_cli([*args, "--out", str(tmp_path)]) == 0
        config = harness.RunConfig(
            policy="static", n=5, horizon=10, policy_params={"assortment": ()}
        )
        _, optimal = core.oracle_optimal(config.build_instance())
        rows = (tmp_path / "episode_static_n5_t10.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 10
        for row in rows:
            _, size, revenue, regret, _ = row.split(",")
            assert (int(size), float(revenue), float(regret)) == (0, 0.0, optimal)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bench", "--config", "table2", "--reps", "0"], "--reps"),
        (["verify", "--instances", "-5"], "--instances"),
        (["bench", "--config", "table2", "--parallel", "0"], "--parallel"),
    ],
)
def test_count_flags_reject_values_below_one(argv, flag, capsys):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: assortbench")
    assert lines[-1].startswith(f"error: argument {flag}: expected an integer >= 1")


def test_cli_imports_no_third_party_module_but_numpy():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import assortbench.cli\n"
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n"
    )
    src = str(Path(assortbench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    third_party = set(out) - set(sys.stdlib_module_names) - {"assortbench", "__mp_main__"}
    assert third_party == {"numpy"}


class TestBench:
    @pytest.fixture
    def tiny_config(self, tmp_path):
        cfg = {
            "master_seed": 11,
            "replications": 3,
            "cells": [
                {"policy": "grs", "n": 10, "t": 60, "params": {}},
                {"policy": "adaptive-trisection", "n": 10, "t": 60,
                 "params": {"ci_scale": 0.1}},
            ],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_bench_writes_summaries(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        assert run_cli(["bench", "--config", str(tiny_config), "--out", str(out)]) == 0
        payload = json.loads((out / "bench_summaries.json").read_text())
        assert len(payload) == 2
        for entry in payload.values():
            assert entry["replications"] == 3
            assert entry["max_regret"] >= entry["mean_regret"] >= 0.0
        assert (out / "bench_summaries.csv").exists()

    def test_parallel_determinism(self, tmp_path, tiny_config):
        outs = []
        for k, workers in enumerate(("1", "3")):
            out = tmp_path / f"out{k}"
            code = run_cli(
                ["bench", "--config", str(tiny_config), "--out", str(out),
                 "--parallel", workers]
            )
            assert code == 0
            outs.append((out / "bench_summaries.json").read_bytes())
        assert outs[0] == outs[1]

    def test_one_pool_serves_every_cell(self, tmp_path, tiny_config, monkeypatch):
        cfg = json.loads(tiny_config.read_text())
        cfg["cells"].append({"policy": "thompson", "n": 10, "t": 60})
        tiny_config.write_text(json.dumps(cfg))
        constructed = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                constructed.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}"
            args = ["bench", "--config", str(tiny_config), "--out", str(out), "--parallel", workers]
            assert run_cli(args) == 0
            outs.append((out / "bench_summaries.json").read_bytes())
        assert constructed == [{"max_workers": 2}]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "bad_cell, named",
        [
            ({"policy": "trisection", "n": 10, "t": 60, "params": {"ci_scale": 0.1}},
             "policy 'trisection' got an unexpected keyword argument 'ci_scale'"),
            ({"n": 10, "t": 60}, "'policy'"),
            ({"policy": "adaptive-trisection", "n": 10, "t": 60, "params": {"ci_scale": -1}},
             "ci_scale must be positive"),
            ({"policy": "static", "n": 10, "t": 60, "params": {"assortment": [11]}}, "out of range"),
            ({"policy": "static", "n": 10, "t": 60, "params": {"assortment": [1.7]}},
             "must be integers"),
            ({"policy": "adaptive-trisection", "n": 10, "t": 60,
              "params": {"ci_scale": float("inf")}}, "ci_scale must be positive and finite"),
            ({"policy": "adaptive-trisection", "n": 10, "t": 60, "params": {"ci_scale": "0.1"}},
             "ci_scale must be a number, got '0.1'"),
            ({"policy": "adaptive-trisection", "n": 10, "t": 60, "params": {"ci_scale": True}},
             "ci_scale must be a number, got True"),
            ({"policy": "grs", "n": 10, "t": 10.5}, "horizon must be an integer"),
            ({"policy": "grs", "n": 1, "t": 60, "generator": "lower_bound_p0"}, "n >= 2"),
            ({"policy": "ucb", "n": 10, "t": 50, "replications": 7}, "unknown key 'replications'"),
            ({"policy": "ucb", "n": 10, "t": 50, "generater": "lower_bound_p0"},
             "unknown key 'generater'"),
            ({"policy": "ucb", "n": 10, "t": 50, "parms": {"ci_scale": 0.1}}, "unknown key 'parms'"),
            ({"policy": "static", "n": 10, "t": 60},
             "policy 'static' missing 1 required positional argument: 'assortment'"),
            ({"policy": "static", "n": 10, "t": 60, "params": {"assortment": 5}},
             "item ids must be integers in a flat sequence"),
            ({"policy": "thompson", "n": 10, "t": 60, "params": {"rng": 3}},
             "policy 'thompson' got multiple values for keyword argument 'rng'"),
            ("policy", "a cell must be a JSON object"),
            (["policy", "n"], "a cell must be a JSON object"),
            ({"policy": "grs", "n": 10, "t": 60, "params": [1]}, "policy_params must be a dict"),
            ({"policy": "grs", "n": 10, "t": 60, "params": "x"}, "policy_params must be a dict"),
            ({"policy": "grs", "n": 10, "t": 60, "params": None},
             "policy_params must be a dict, got None"),
            ({"policy": ["ucb"], "n": 3, "t": 5}, "unknown policy ['ucb']; choose from ("),
        ],
    )
    def test_bad_cell_fails_before_any_cell_runs(self, tmp_path, tiny_config, capsys, bad_cell, named):
        cfg = json.loads(tiny_config.read_text())
        cfg["cells"].append(bad_cell)
        tiny_config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli(["bench", "--config", str(tiny_config), "--out", str(out), "--parallel", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cell 2 ") and named in lines[0]
        assert "__init__" not in lines[0] and "object is not iterable" not in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, start, named",
        [
            ({"replications": 2.5}, "error: cell 0 ", "replications must be an integer"),
            ({"replications": True}, "error: cell 0 ", "replications must be an integer"),
            ({"master_seed": "x"}, "error: cell 0 ", "master_seed must be an integer"),
            ({"master-seed": 5}, "error: unknown key 'master-seed'", "a config takes master_seed"),
            # A cell's family is named in the cell, or is synthetic.
            ({"generator": "lower_bound_p1"}, "error: unknown key 'generator'",
             "a config takes master_seed, replications, cells"),
        ],
    )
    def test_bad_config_number_fails_before_any_cell_runs(self, tmp_path, capsys, change, start, named):
        cfg = {"master_seed": 11, "replications": 2, "cells": [{"policy": "grs", "n": 10, "t": 60}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, **change}))
        out = tmp_path / "out"
        assert run_cli(["bench", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(start) and named in lines[0]
        assert not out.exists()

    def test_repeated_summary_key_fails_before_any_cell_runs(self, tmp_path, capsys):
        # The first config's cells differ only in params; the second's are one
        # cell on the hard pair's P1 side. Each pair would write one
        # bench_summaries.json entry.
        configs = (
            ({"cells": [
                {"policy": "adaptive-trisection", "n": 10, "t": 200, "params": {"ci_scale": 2.0}},
                {"policy": "adaptive-trisection", "n": 10, "t": 200, "params": {"ci_scale": 0.1}},
            ]}, "adaptive-trisection:n=10:t=200"),
            ({"cells": [
                {"policy": "grs", "n": 2, "t": 200, "generator": "lower_bound_p1"},
                {"policy": "grs", "n": 2, "t": 200, "generator": "lower_bound_p1"},
            ]}, "grs:n=2:t=200:g=lower_bound_p1"),
        )
        for cfg, key in configs:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"replications": 2, **cfg}))
            out = tmp_path / "out"
            assert run_cli(["bench", "--config", str(path), "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("error: cell 1 ")
            assert f"same key {key} as cell 0" in lines[0]
            assert not out.exists()

    def test_empty_cell_list_fails(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"replications": 2.5, "master_seed": "x", "cells": []}))
        out = tmp_path / "out"
        assert run_cli(["bench", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: bench config needs a nonempty list of cells"]
        assert not out.exists()

    def test_lower_bound_generator_cell(self, tmp_path, capsys):
        # The two sides of one (policy, N, T) are two cells, keyed apart by
        # their generators.
        path = tmp_path / "cfg.json"
        cfg = {"replications": 2,
               "cells": [{"policy": "adaptive-trisection", "n": 2, "t": 200,
                          "generator": "lower_bound_p1"},
                         {"policy": "adaptive-trisection", "n": 2, "t": 200,
                          "generator": "lower_bound_p0"}]}
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli(["bench", "--config", str(path), "--out", str(out)]) == 0
        keys = ["adaptive-trisection:n=2:t=200:g=lower_bound_p1",
                "adaptive-trisection:n=2:t=200:g=lower_bound_p0"]
        assert [line.split()[0] for line in capsys.readouterr().out.splitlines()[:2]] == keys
        payload = json.loads((out / "bench_summaries.json").read_text())
        assert sorted(payload) == sorted(keys)
        assert all(len(payload[key]["regrets"]) == 2 for key in keys)
        rows = (out / "bench_summaries.csv").read_text().splitlines()
        assert rows[0] == "policy,n,t,generator,replications,mean_regret,max_regret,std_regret"
        assert [row.split(",")[:5] for row in rows[1:]] == [
            ["adaptive-trisection", "2", "200", "lower_bound_p1", "2"],
            ["adaptive-trisection", "2", "200", "lower_bound_p0", "2"],
        ]

    def test_exponent_line_per_t_series(self, tmp_path, capsys):
        # Cells listed out of T order; a ucb cell alone at its (policy, N);
        # two adaptive series that differ only in params; a static series
        # at the optimum, whose zero regret has no fit.
        cells = [
            {"policy": "grs", "n": 20, "t": 400},
            {"policy": "ucb", "n": 20, "t": 100},
            {"policy": "grs", "n": 20, "t": 100},
            {"policy": "adaptive-trisection", "n": 10, "t": 100, "params": {"ci_scale": 2.0}},
            {"policy": "adaptive-trisection", "n": 10, "t": 300, "params": {"ci_scale": 0.1}},
            {"policy": "adaptive-trisection", "n": 10, "t": 200, "params": {"ci_scale": 2.0}},
            {"policy": "adaptive-trisection", "n": 10, "t": 400, "params": {"ci_scale": 0.1}},
            {"policy": "static", "n": 1, "t": 10, "params": {"assortment": [1]}},
            {"policy": "static", "n": 1, "t": 20, "params": {"assortment": [1]}},
        ]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"master_seed": 3, "replications": 2, "cells": cells}))
        out = tmp_path / "out"
        assert run_cli(["bench", "--config", str(path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(cells) + 5
        payload = json.loads((out / "bench_summaries.json").read_text())
        mean = {(v["policy"], v["t"]): v["mean_regret"] for v in payload.values()}

        def fit(policy, *horizons):
            alpha = harness.fitted_exponent([(t, mean[policy, t]) for t in horizons])
            return f"{alpha:.3f}"

        assert lines[len(cells):] == [
            f"grs:n=20  fitted exponent {fit('grs', 100, 400)}",
            f"adaptive-trisection:n=10  fitted exponent {fit('adaptive-trisection', 100, 200)}",
            f"adaptive-trisection:n=10  fitted exponent {fit('adaptive-trisection', 300, 400)}",
            "static:n=1  fitted exponent undefined",
            f"wrote {out / 'bench_summaries.json'}",
        ]
        assert mean["static", 10] == mean["static", 20] == 0.0

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_csv_bytes_are_pinned(self, tmp_path, workers):
        path = tmp_path / "cfg.json"
        cells = [{"policy": "grs", "n": 10, "t": t} for t in (50, 100, 200)]
        path.write_text(json.dumps({"master_seed": 5, "replications": 3, "cells": cells}))
        args = ["bench", "--config", str(path), "--parallel", workers, "--out", str(tmp_path)]
        assert run_cli(args) == 0
        digest = hashlib.sha256((tmp_path / "bench_summaries.csv").read_bytes()).hexdigest()
        assert digest == "b8d31614958136560d02859d6a659123b6904e993a9acf81385a93b1384acde4"

    def test_missing_config_exits_one(self, tmp_path):
        assert run_cli(["bench", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{", "is not valid JSON: Expecting property name enclosed in double quotes"),
            ("[1, 2]", "is not a JSON object"),
        ],
    )
    def test_config_that_is_not_a_json_object_is_named(self, tmp_path, text, message, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run_cli(["bench", "--config", str(path), "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: bench config {path} {message}")

    def test_builtin_table_config(self):
        cfg = builtin_config("table2")
        assert cfg["replications"] == 20
        pairs = {(c["n"], c["t"]) for c in cfg["cells"]}
        assert (100, 500) in pairs and (1000, 1000) in pairs
        adaptive = [c for c in cfg["cells"] if c["policy"] == "adaptive-trisection"]
        assert all(c["params"] == {"ci_scale": 0.1} for c in adaptive)

    def test_table2_keys_and_order(self):
        # Every table2 cell is synthetic, so its key has no generator part.
        cfg = builtin_config("table2")
        keys = [harness.RunConfig(policy=c["policy"], n=c["n"], horizon=c["t"],
                                  generator=c.get("generator", "synthetic"),
                                  policy_params=c["params"]).key
                for c in cfg["cells"]]
        expected = [
            f"{policy}:n={n}:t={t}"
            for t in (500, 1000)
            for n in (100, 250, 500, 1000)
            for policy in ("ucb", "thompson", "grs", "trisection", "adaptive-trisection")
        ]
        assert keys == expected and len(keys) == 40

    def test_builtin_hardpair_config(self):
        cfg = builtin_config("hardpair")
        assert cfg["replications"] == 20
        assert {c["n"] for c in cfg["cells"]} == {2}
        keys = [harness.RunConfig(policy=c["policy"], n=c["n"], horizon=c["t"],
                                  generator=c["generator"], policy_params=c["params"]).key
                for c in cfg["cells"]]
        assert len(set(keys)) == len(keys) == 30
        policies = ("ucb", "thompson", "grs", "trisection", "adaptive-trisection")
        assert {key.rsplit(":g=", 1)[0] for key in keys} == {
            f"{policy}:n=2:t={t}" for policy in policies for t in (1000, 4000, 16000)
        }
        sides = {key.rsplit(":g=", 1)[1] for key in keys}
        assert sides == {"lower_bound_p0", "lower_bound_p1"}
        table2 = {c["policy"]: c["params"] for c in builtin_config("table2")["cells"]}
        assert all(c["params"] == table2[c["policy"]] for c in cfg["cells"])


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--config", "CFG"],
        ["run", "--policy", "grs", "--n", "10", "--t", "50"],
    ],
)
def test_unusable_out_fails_before_any_compute(tmp_path, capsys, monkeypatch, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replications": 2, "cells": [{"policy": "grs", "n": 10, "t": 60}]}))
    out = tmp_path / "taken"
    out.write_text("")
    ran = []
    monkeypatch.setattr(harness, "run_episode", lambda *a, **k: ran.append(a))
    argv = [str(cfg) if arg == "CFG" else arg for arg in argv]
    assert run_cli([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [Errno 17] File exists")
    assert ran == []


class TestVerify:
    def test_verify_passes_on_small_suite(self, capsys):
        assert run_cli(["verify", "--instances", "30", "--seed", "3"]) == 0
        assert "all properties passed" in capsys.readouterr().out

    def test_verify_takes_a_negative_seed(self, capsys):
        assert run_cli(["verify", "--instances", "10", "--seed", "-1"]) == 0
        assert capsys.readouterr().out == "all properties passed (10 instances)\n"

    @pytest.mark.parametrize("seed", ["1.5", "x"])
    def test_seed_must_be_an_integer_before_any_check_runs(self, monkeypatch, seed, capsys):
        def no_checks(*args):
            raise AssertionError("the property suite ran")

        monkeypatch.setattr(properties, "failures", no_checks)
        assert run_cli(["verify", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: assortbench verify")
        assert lines[-1] == f"error: argument --seed: invalid int value: {seed!r}"

    def test_verify_fails_when_the_fixed_point_is_off(self, monkeypatch, capsys):
        build = core.build_potential_profile

        def off_by_1e9(instance):
            profile = build(instance)
            return dataclasses.replace(profile, f_star=profile.f_star + 1e-9)

        monkeypatch.setattr(core, "build_potential_profile", off_by_1e9)
        assert run_cli(["verify", "--instances", "20"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("FAIL ") for line in lines)

    def test_verify_fails_when_the_coverage_falls_short(self, monkeypatch, capsys):
        monkeypatch.setattr(properties, "coverage", lambda rng: 0.5)
        assert run_cli(["verify", "--instances", "1"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["FAIL uniform concentration coverage 0.5 < 0.99"]

    def test_verify_fails_when_the_kl_bound_is_exceeded(self, monkeypatch, capsys):
        monkeypatch.setattr(core, "kl_purchase_distributions", lambda p0, p1, assortment: 1.0)
        assert run_cli(["verify", "--instances", "1"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"FAIL KL bound violated at T={horizon}, S={assortment}"
            for horizon in (16, 100, 10_000)
            for assortment in ((1,), (1, 2))
        ]
