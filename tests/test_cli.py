import dataclasses
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import assortbench
from assortbench import core, harness
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

    def test_ci_scale_on_wrong_policy_exits_one(self, tmp_path):
        code = run_cli(
            ["run", "--policy", "ucb", "--ci-scale", "0.1", "--n", "5", "--t", "10",
             "--out", str(tmp_path)]
        )
        assert code == 1

    def test_assortment_on_wrong_policy_exits_one(self, tmp_path, capsys):
        code = run_cli(
            ["run", "--policy", "ucb", "--assortment", "1,2", "--n", "5", "--t", "10",
             "--out", str(tmp_path)]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: --assortment only applies to static"]
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["lower-bound", "--reps", "0"], "--reps"),
        (["verify", "--instances", "-5"], "--instances"),
        (["bench", "--config", "table2", "--parallel", "0"], "--parallel"),
        (["scaling", "--parallel", "-2"], "--parallel"),
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
            ({"policy": "trisection", "n": 10, "t": 60, "params": {"ci_scale": 0.1}}, "ci_scale"),
            ({"n": 10, "t": 60}, "'policy'"),
            ({"policy": "adaptive-trisection", "n": 10, "t": 60, "params": {"ci_scale": -1}},
             "ci_scale must be positive"),
            ({"policy": "static", "n": 10, "t": 60, "params": {"assortment": [11]}}, "out of range"),
            ({"policy": "static", "n": 10, "t": 60, "params": {"assortment": [1.7]}},
             "must be integers"),
            ({"policy": "adaptive-trisection", "n": 10, "t": 60,
              "params": {"ci_scale": float("inf")}}, "ci_scale must be positive and finite"),
            ({"policy": "grs", "n": 10, "t": 10.5}, "horizon must be an integer"),
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
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"replications": 2.5}, "replications must be an integer"),
            ({"replications": True}, "replications must be an integer"),
            ({"master_seed": "x"}, "master_seed must be an integer"),
        ],
    )
    def test_bad_config_number_fails_before_any_cell_runs(self, tmp_path, capsys, change, named):
        cfg = {"master_seed": 11, "replications": 2, "cells": [{"policy": "grs", "n": 10, "t": 60}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, **change}))
        out = tmp_path / "out"
        assert run_cli(["bench", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cell 0 ") and named in lines[0]
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

    def test_lower_bound_generator_cell(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = {"generator": "lower_bound_p1", "replications": 2,
               "cells": [{"policy": "adaptive-trisection", "n": 2, "t": 200}]}
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli(["bench", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "bench_summaries.json").read_text())
        assert list(payload) == ["adaptive-trisection:n=2:t=200"]
        assert len(payload["adaptive-trisection:n=2:t=200"]["regrets"]) == 2
        assert (out / "bench_summaries.csv").read_text().count("\n") == 2

    def test_missing_config_exits_one(self, tmp_path):
        assert run_cli(["bench", "--config", str(tmp_path / "nope.json")]) == 1

    def test_builtin_table_config(self):
        cfg = builtin_config("table2")
        assert cfg["replications"] == 20
        pairs = {(c["n"], c["t"]) for c in cfg["cells"]}
        assert (100, 500) in pairs and (1000, 1000) in pairs
        adaptive = [c for c in cfg["cells"] if c["policy"] == "adaptive-trisection"]
        assert all(c["params"] == {"ci_scale": 0.1} for c in adaptive)


class TestScaling:
    def test_scaling_writes_table(self, tmp_path, capsys):
        code = run_cli(
            ["scaling", "--policy", "grs", "--n", "10", "--t", "50,100",
             "--reps", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fitted exponent" in out
        csv = (tmp_path / "scaling_grs_n10.csv").read_text().splitlines()
        assert csv[0] == "t,mean_regret"
        assert len(csv) == 3


class TestVerify:
    def test_verify_passes_on_small_suite(self, capsys):
        assert run_cli(["verify", "--instances", "30", "--seed", "3"]) == 0
        assert "all properties passed" in capsys.readouterr().out

    def test_verify_fails_when_the_fixed_point_is_off(self, monkeypatch, capsys):
        build = core.build_potential_profile

        def off_by_1e9(instance):
            profile = build(instance)
            return dataclasses.replace(profile, f_star=profile.f_star + 1e-9)

        monkeypatch.setattr(core, "build_potential_profile", off_by_1e9)
        assert run_cli(["verify", "--instances", "20"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("FAIL ") for line in lines)


class TestLowerBound:
    def test_diagnostics_run(self, capsys):
        code = run_cli(
            ["lower-bound", "--policy", "grs", "--n", "2", "--t", "64", "--reps", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "KL(P0||P1)" in out
        assert "tester output 0" in out
