"""Config schema and command-line behavior: exit codes, artifacts, determinism."""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from cellbranch import _sampling, experiments, verify
from cellbranch.cli import main
from cellbranch.config import ConfigError, load_config
from cellbranch.laws import FiniteLaw, HeavyTailLaw
from cellbranch.presets import subcritical_geometric
from cellbranch.runio import write_csv

BASE_MODEL = {
    "environment": {
        "builder": "binomial_split",
        "z": {"kind": "finite", "values": [1], "probs": [1.0]},
        "p_values": [[0.5, 1.0]],
    },
    "immigration": {
        "y0": {"kind": "finite", "values": [0, 1], "probs": [0.5, 0.5]},
        "y1": {"kind": "finite", "values": [0], "probs": [1.0]},
    },
    "k0": 0,
}


_GEOMETRIC = subcritical_geometric()[1].y1
GEOMETRIC = {"kind": "finite", "values": list(_GEOMETRIC.values), "probs": list(_GEOMETRIC.probs)}


def write_config(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestConfigParsing:
    def test_binomial_split_round_trip(self):
        cfg = load_config({"seed": 5, "model": BASE_MODEL})
        assert cfg.seed == 5
        assert cfg.k0 == 0
        assert len(cfg.env.components) == 1
        assert isinstance(cfg.imm.y0, FiniteLaw)

    def test_uniform_grid_p_values(self):
        model = json.loads(json.dumps(BASE_MODEL))
        model["environment"]["p_values"] = {"uniform_grid": 8}
        cfg = load_config({"model": model})
        assert len(cfg.env.components) == 8

    def test_explicit_bivariate(self):
        model = {
            "environment": {
                "builder": "explicit_bivariate",
                "components": [{"support": [[1, 0, 0.5], [0, 1, 0.5]], "weight": 1.0}],
            },
            "immigration": {"mode": "zero"},
        }
        cfg = load_config({"model": model})
        assert cfg.imm.is_zero_pair

    def test_integral_float_atoms_accepted(self):
        model = {
            "environment": {
                "builder": "explicit_bivariate",
                "components": [{"support": [[1.0, 0, 0.5], [0, 2.0, 0.5]]}],
            },
            "immigration": {"mode": "state_independent",
                            "y0": {"kind": "finite", "values": [0, 2.0], "probs": [0.5, 0.5]}},
        }
        cfg = load_config({"model": model})
        assert cfg.env.laws[0].support == (((1, 0), 0.5), ((0, 2), 0.5))
        assert cfg.imm.y0.values == (0, 2)

    def test_cluster_split_and_heavy_tail(self):
        model = {
            "environment": {
                "builder": "cluster_split",
                "z": {"kind": "finite", "values": [2], "probs": [1.0]},
                "p_values": [[0.5, 1.0]],
            },
            "immigration": {
                "y0": {"kind": "finite", "values": [0, 1], "probs": [0.5, 0.5]},
                "y1": {"kind": "heavy_tail"},
            },
        }
        cfg = load_config({"model": model})
        assert isinstance(cfg.imm.y1, HeavyTailLaw)

    def test_state_independent_mode(self):
        model = json.loads(json.dumps(BASE_MODEL))
        model["immigration"] = {
            "mode": "state_independent",
            "y0": {"kind": "finite", "values": [1], "probs": [1.0]},
        }
        cfg = load_config({"model": model})
        assert cfg.imm.y0 is cfg.imm.y1

    def test_missing_builder_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"model": {"environment": {}, "immigration": {"mode": "zero"}}})

    def test_unknown_kind_rejected(self):
        model = json.loads(json.dumps(BASE_MODEL))
        model["immigration"]["y0"] = {"kind": "poisson"}
        with pytest.raises(ConfigError):
            load_config({"model": model})

    def test_inadmissible_contamination_rejected(self):
        model = json.loads(json.dumps(BASE_MODEL))
        model["immigration"]["y0"] = {"kind": "finite", "values": [1], "probs": [1.0]}
        with pytest.raises(ConfigError, match="P\\(Y0=0\\)"):
            load_config({"model": model})


class TestCli:
    def lineage_config(self, tmp_path: Path, out_name: str = "out") -> Path:
        return write_config(
            tmp_path,
            {
                "seed": 11,
                "model": BASE_MODEL,
                "experiment": {"kind": "lineage", "n": 8, "replicates": 4000},
                "output": {"dir": str(tmp_path / out_name)},
            },
        )

    def test_lineage_run_writes_artifacts(self, tmp_path, capsys):
        cfg = self.lineage_config(tmp_path)
        assert main(["lineage", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "lineage_states.csv").exists()
        assert (out / "lineage_summary.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert len(manifest["config_sha256"]) == 64

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = self.lineage_config(tmp_path)
        assert main(["lineage", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["lineage", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "lineage_states.csv").read_bytes()
        b = (tmp_path / "b" / "lineage_states.csv").read_bytes()
        assert a == b

    def test_worker_count_does_not_change_results(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 3,
                "model": BASE_MODEL,
                "experiment": {"kind": "lineage", "n": 6, "replicates": 20_000},
            },
        )
        assert main(["lineage", "--config", str(cfg), "--out", str(tmp_path / "w1")]) == 0
        assert main(
            ["lineage", "--config", str(cfg), "--out", str(tmp_path / "w2"), "--workers", "2"]
        ) == 0
        assert (tmp_path / "w1" / "lineage_states.csv").read_bytes() == (
            tmp_path / "w2" / "lineage_states.csv"
        ).read_bytes()

    def test_tree_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 2,
                "model": BASE_MODEL,
                "experiment": {"kind": "tree", "n": 5, "replicates": 8, "traversal": "bfs"},
            },
        )
        assert main(["tree", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
        lines = (tmp_path / "t" / "tree_ledgers.csv").read_text().splitlines()
        assert lines[0] == "run_id,n,k,count"
        # every run ledger covers all of generations 0..5
        total = sum(int(line.split(",")[3]) for line in lines[1:])
        assert total == 8 * (2**6 - 1)

    def test_oracle_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 1,
                "model": BASE_MODEL,
                "experiment": {"kind": "oracle", "K": 64, "n": 30},
            },
        )
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        for name in (
            "oracle_pmf.csv",
            "oracle_renewal.json",
            "oracle_stationary.csv",
            "oracle_stationary.json",
            "oracle_hitting_tail.csv",
        ):
            assert (tmp_path / "o" / name).exists()
        renewal = json.loads((tmp_path / "o" / "oracle_renewal.json").read_text())
        assert renewal["u_infinity"] == pytest.approx(1.0 / renewal["expected_return_time"])

    @pytest.mark.parametrize("immigration, escapes", [
        ({"y0": BASE_MODEL["immigration"]["y0"], "y1": {"kind": "heavy_tail"}}, True),
        ({"y0": GEOMETRIC, "y1": GEOMETRIC}, False),
    ], ids=["heavy-tail", "subcritical-geometric"])
    def test_oracle_stationary_counters(self, tmp_path, immigration, escapes):
        model = dict(BASE_MODEL, immigration=immigration)
        experiment = {"kind": "oracle", "K": 512, "n": 10, "quantities": ["stationary"]}
        cfg = write_config(tmp_path, {"model": model, "experiment": experiment})
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        counters = json.loads((tmp_path / "o" / "oracle_stationary.json").read_text())
        assert set(counters) == {"escape_rate", "iterations", "route_gap"}
        assert counters["iterations"] >= 1
        assert 0.0 <= counters["route_gap"] <= 1.0
        if escapes:
            assert counters["escape_rate"] > 0.0
        else:
            assert counters["escape_rate"] < 1e-12

    def test_classify(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": BASE_MODEL})
        assert main(["classify", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "subcritical"
        assert payload["log_immigration_finite"] == [True, True]

    def test_invalid_immigration_exits_two(self, tmp_path, capsys):
        model = json.loads(json.dumps(BASE_MODEL))
        model["immigration"]["y0"] = {"kind": "finite", "values": [2], "probs": [1.0]}
        cfg = write_config(tmp_path, {"model": model, "experiment": {"kind": "lineage"}})
        assert main(["lineage", "--config", str(cfg)]) == 2
        assert "P(Y0=0)" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", "--config", str(path)]) == 2

    def test_kind_mismatch_exits_two(self, tmp_path):
        cfg = self.lineage_config(tmp_path)
        assert main(["tree", "--config", str(cfg)]) == 2

    def test_unknown_suite_exits_two(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_verify_suite_passes(self, tmp_path, capsys):
        code = main(["verify", "--suite", "geometric-tail", "--out", str(tmp_path)])
        assert code == 0
        assert "[PASS] geometric-tail/ratio" in capsys.readouterr().out
        report = json.loads((tmp_path / "verify_geometric-tail.json").read_text())
        assert report["results"][0]["passed"] is True

    def test_negative_checkpoint_exits_two(self, tmp_path, capsys):
        experiment = {"kind": "lineage", "n": 5, "replicates": 100, "checkpoints": [-1, 5]}
        cfg = write_config(tmp_path, {"model": BASE_MODEL, "experiment": experiment})
        assert main(["lineage", "--config", str(cfg), "--out", str(tmp_path / "l")]) == 2
        assert "nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "l" / "lineage_states.csv").exists()

    @pytest.mark.parametrize("traversal", ["bfs", "dfs"])
    def test_negative_tree_depth_exits_two(self, tmp_path, capsys, deadline, traversal):
        experiment = {"kind": "tree", "n": -1, "replicates": 2, "traversal": traversal}
        cfg = write_config(tmp_path, {"model": BASE_MODEL, "experiment": experiment})
        # the depth-first walk once never returned here, so it runs under a deadline
        with deadline(2.0):
            assert main(["tree", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("traversal, n", [("bfs", 63), ("dfs", 63)])
    def test_tree_depth_past_traversal_bound_exits_two(
        self, tmp_path, capsys, deadline, traversal, n
    ):
        experiment = {"kind": "tree", "n": n, "replicates": 2, "traversal": traversal}
        cfg = write_config(tmp_path, {"model": BASE_MODEL, "experiment": experiment})
        # rejected before anything is simulated, so a depth-n tree never starts
        with deadline(2.0):
            assert main(["tree", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
        assert "bound" in capsys.readouterr().err
        assert not (tmp_path / "t" / "tree_ledgers.csv").exists()

    @pytest.mark.parametrize(
        "experiment, message",
        [
            ({"kind": "lineage", "n": 5, "replicates": 0}, "replicates"),
            ({"kind": "lineage", "n": 5, "replicates": -3}, "replicates"),
            ({"kind": "lineage", "n": 5, "replicates": 100, "checkpoints": []}, "checkpoints"),
            ({"kind": "tree", "n": 3, "replicates": 0}, "replicates"),
            ({"kind": "tree", "n": 3, "replicates": -2}, "replicates"),
            ({"kind": "oracle", "K": 16, "n": 10, "quantities": ["pmf", "nope"]}, "'nope'"),
            ({"kind": "oracle", "K": 16, "n": 10, "cap": 0, "quantities": ["pmf", "renewal"]},
             "cap must be at least 1"),
            ({"kind": "oracle", "K": 16, "n": 10, "cap": -1, "quantities": ["pmf", "renewal"]},
             "cap must be at least 1"),
        ],
        ids=["lineage-0", "lineage-neg", "no-checkpoints", "tree-0", "tree-neg", "quantity",
             "cap-0", "cap-neg"],
    )
    def test_config_asking_for_nothing_exits_two(self, tmp_path, capsys, experiment, message):
        cfg = write_config(tmp_path, {"model": BASE_MODEL, "experiment": experiment})
        out = tmp_path / "o"
        assert main([experiment["kind"], "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key", ["n", "K"])
    def test_negative_oracle_horizon_or_truncation_exits_two(self, tmp_path, capsys, key):
        experiment = {"kind": "oracle", "K": 16, "n": 10, key: -3}
        cfg = write_config(tmp_path, {"model": BASE_MODEL, "experiment": experiment})
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "o" / "oracle_pmf.csv").exists()

    @pytest.mark.parametrize("quantities", [["pmf"], ["hitting_tail"], ["stationary", "pmf"]],
                             ids=["pmf", "hitting-tail", "stationary-and-pmf"])
    def test_oracle_start_past_the_truncation_exits_two(
        self, tmp_path, capsys, monkeypatch, quantities
    ):
        monkeypatch.setattr(experiments, "build_kernel", None)  # refused before any kernel
        model = dict(BASE_MODEL, k0=600)
        experiment = {"kind": "oracle", "K": 64, "n": 10, "quantities": quantities}
        cfg = write_config(tmp_path, {"model": model, "experiment": experiment})
        out = tmp_path / "o"
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 2
        assert "k0=600, past the truncation K=64" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_oracle_start_past_the_truncation_is_fine_when_unused(self, tmp_path):
        model = dict(BASE_MODEL, k0=600)
        experiment = {"kind": "oracle", "K": 64, "n": 10, "quantities": ["stationary"]}
        cfg = write_config(tmp_path, {"model": model, "experiment": experiment})
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "oracle_stationary.csv").exists()

    def test_tree_over_the_row_budget_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(_sampling, "_ROW_BUDGET", 2**10)
        model = {"environment": {"builder": "binomial_split",
                                 "z": {"kind": "finite", "values": [4], "probs": [1.0]},
                                 "p_values": [[0.5, 1.0]]},
                 "immigration": {"mode": "zero"}, "k0": 1}
        experiment = {"kind": "tree", "n": 20, "replicates": 1}
        cfg = write_config(tmp_path, {"model": model, "experiment": experiment})
        assert main(["tree", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 1
        assert "simulation error: DepthTooLarge" in capsys.readouterr().err
        assert not (tmp_path / "t" / "tree_ledgers.csv").exists()

    @pytest.mark.parametrize(
        "command, path, value, message",
        [
            ("lineage", ("model", "environment", "p_values"), [0.5],
             "model.environment.p_values[0] must be a [p, weight] list, got 0.5"),
            ("lineage", ("model", "environment", "p_values"), {"uniform_grid": 2.5}, "integer"),
            ("lineage", ("model", "environment", "z", "values"), 2, "bad environment"),
            ("lineage", ("model", "environment"),
             {"builder": "explicit_bivariate", "components": [{"support": [5]}]}, "environment"),
            ("lineage", ("experiment", "n"), "five", "integer"),
            ("lineage", ("model", "immigration"), [1], "JSON object"),
            ("lineage", ("output",), 5, "JSON object"),
            ("oracle", ("experiment", "overflow_budget"), "tiny", "overflow_budget"),
            ("oracle", ("experiment", "overflow_budget"), -1, "overflow_budget"),
            ("tree", ("experiment", "traversal"), ["bfs"], "traversal must be a string"),
            ("oracle", ("experiment", "quantities"), "pmf", "quantities must be a list"),
            ("lineage", ("model", "environment", "z", "values"), [2.7],
             "model.environment.z.values must be an integer, got 2.7"),
            ("lineage", ("model", "environment", "z", "values"), ["3"],
             "model.environment.z.values must be an integer, got '3'"),
            ("lineage", ("model", "environment"),
             {"builder": "explicit_bivariate", "components": [{"support": [[0.9, 1.6, 1.0]]}]},
             "model.environment.components[0].support must be an integer, got 0.9"),
            ("lineage", ("model", "environment", "z", "values"), [True],
             "model.environment.z.values must be an integer, got True"),
            ("lineage", ("model", "k0"), True, "model.k0 must be an integer, got True"),
            ("lineage", ("seed",), True, "seed must be an integer, got True"),
            ("lineage", ("experiment", "n"), False, "experiment.n must be an integer, got False"),
            ("tree", ("experiment", "replicates"), True,
             "experiment.replicates must be an integer, got True"),
            ("oracle", ("experiment", "K"), True, "experiment.K must be an integer, got True"),
            ("lineage", ("model", "environment", "p_values"), {"uniform_grid": True},
             "model.environment.p_values.uniform_grid must be an integer, got True"),
            ("lineage", ("model", "environment", "z", "probs"), ["1.0"],
             "model.environment.z.probs must be a number, got '1.0'"),
            ("lineage", ("model", "environment", "z", "probs"), [True],
             "model.environment.z.probs must be a number, got True"),
            ("lineage", ("model", "environment", "z", "probs"), [float("nan")],
             "bad finite law in model.environment.z: finite law: probabilities must lie in"),
            ("lineage", ("model", "immigration", "y0", "probs"), ["0.5", 0.5],
             "model.immigration.y0.probs must be a number, got '0.5'"),
            ("lineage", ("model", "environment", "p_values"), [["0.5", "1"]],
             "model.environment.p_values must be a number, got '0.5'"),
            ("lineage", ("model", "environment", "p_values"), [[True, 1]],
             "model.environment.p_values must be a number, got True"),
            ("lineage", ("model", "environment"),
             {"builder": "explicit_bivariate", "components": [{"support": [[0, 1, "1.0"]]}]},
             "model.environment.components[0].support must be a number, got '1.0'"),
            ("lineage", ("model", "environment"),
             {"builder": "explicit_bivariate",
              "components": [{"support": [[0, 1, 1.0]], "weight": "1"}]},
             "model.environment.components[0].weight must be a number, got '1'"),
            ("lineage", ("model", "environment", "p_values"), [{"p": 0.5, "w": 1}],
             "model.environment.p_values[0] must be a [p, weight] list, got {'p': 0.5, 'w': 1}"),
            ("lineage", ("model", "environment", "p_values"), ["ab"],
             "model.environment.p_values[0] must be a [p, weight] list, got 'ab'"),
            ("lineage", ("model", "environment", "p_values"), [[0.5, 1.0], [0.5]],
             "model.environment.p_values[1] must be a [p, weight] list, got [0.5]"),
            ("lineage", ("model", "environment", "p_values"), [[0.5, 1.0, 2.0]],
             "model.environment.p_values[0] must be a [p, weight] list, got [0.5, 1.0, 2.0]"),
            ("lineage", ("model", "environment"),
             {"builder": "explicit_bivariate",
              "components": [{"support": [[0, 1, 0.5], [1, 0, 0.25], [1, 1]]}]},
             "model.environment.components[0].support[2] must be a [j, k, prob] list, got [1, 1]"),
            ("lineage", ("model", "environment"),
             {"builder": "explicit_bivariate", "components": [{"support": [[0, 1, 1.0, 2]]}]},
             "model.environment.components[0].support[0] must be a [j, k, prob] list"),
            ("lineage", ("model", "environment"),
             {"builder": "explicit_bivariate",
              "components": [{"support": [{"j": 0, "k": 1, "p": 1.0}]}]},
             "model.environment.components[0].support[0] must be a [j, k, prob] list"),
            ("lineage", ("model", "environment", "builder"), "nope", "unknown builder 'nope'"),
            ("lineage", ("model", "immigration", "mode"), "nope",
             "unknown immigration mode 'nope'"),
            ("lineage", ("model", "environment", "z"), {"kind": "heavy_tail"},
             "reproduction law must be finite"),
            ("lineage", ("model", "environment", "p_values"), 0.5,
             "p_values in model.environment must be a list or {'uniform_grid': n}"),
            ("lineage", ("experiment", "checkpoints"), 5, "checkpoints must be a list, got 5"),
        ],
        ids=["p-value-not-a-pair", "grid-not-an-int", "z-values-not-a-list", "support-not-triples",
             "n-not-an-int", "immigration-not-an-object", "output-not-an-object",
             "budget-not-a-number", "budget-negative", "traversal-not-a-string",
             "quantities-not-a-list", "z-value-fractional", "z-value-a-string",
             "support-atom-fractional", "z-value-a-bool", "k0-a-bool", "seed-a-bool",
             "n-a-bool", "replicates-a-bool", "K-a-bool", "grid-a-bool", "prob-a-string",
             "prob-a-bool", "prob-nan", "y0-prob-a-string", "p-value-a-string", "p-value-a-bool", "support-prob-a-string",
             "weight-a-string", "p-value-an-object", "p-value-a-two-letter-string",
             "p-value-short-second-entry", "p-value-a-triple", "support-short-third-entry",
             "support-entry-of-four", "support-entry-an-object", "unknown-builder",
             "unknown-immigration-mode", "z-heavy-tail", "p-values-a-number",
             "checkpoints-not-a-list"],
    )
    def test_wrong_json_type_exits_two(self, tmp_path, capsys, command, path, value, message):
        config = {
            "model": json.loads(json.dumps(BASE_MODEL)),
            "experiment": {"kind": command, "n": 5, "replicates": 10},
        }
        *parents, key = path
        section = config
        for name in parents:
            section = section[name]
        section[key] = value
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, {"model": BASE_MODEL})
        monkeypatch.setenv("CELLBRANCH_OUT", str(tmp_path / "envout"))
        assert main(["classify", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "classify.json").exists()

    def test_seed_override_changes_manifest(self, tmp_path):
        cfg = self.lineage_config(tmp_path)
        assert main(
            ["lineage", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "s")]
        ) == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["seed"] == 99


COIN = {"kind": "finite", "values": [0, 1], "probs": [0.5, 0.5]}
DYING = {"builder": "explicit_bivariate", "components": [{"support": [[0, 0, 1.0]]}]}


def csv_rows(path: Path) -> list[list[int]]:
    return [[int(x) for x in line.split(",")] for line in path.read_text().splitlines()[1:]]


class TestArtifactRows:
    """CSV rows and the summaries read from them: order, merges, and totals past int64."""

    def run(self, tmp_path, model, experiment, *flags, out="o"):
        cfg = write_config(tmp_path, {"seed": 4, "model": model, "experiment": experiment})
        assert main([experiment["kind"], "--config", str(cfg), "--out", str(tmp_path / out),
                     *flags]) == 0
        return tmp_path / out

    def test_tree_summary_is_exact_past_int64(self, tmp_path):
        dying = {"builder": "explicit_bivariate", "components": [{"support": [[0, 0, 1.0]]}]}
        model = {"environment": dying, "immigration": {"mode": "state_independent", "y0": COIN}}
        out = self.run(tmp_path, model, {"kind": "tree", "n": 62, "replicates": 4})
        rows = csv_rows(out / "tree_ledgers.csv")
        assert rows == sorted(rows)
        cells, infected = [0] * 63, [0] * 63
        for _, g, k, c in rows:
            cells[g] += c
            infected[g] += c if k > 0 else 0
        assert cells[62] == 2**64  # four runs of 2**62 cells: an int64 total wraps to 0
        summary = json.loads((out / "tree_summary.json").read_text())
        assert summary["mean_infected_fraction"] == {
            str(g): infected[g] / cells[g] for g in range(63)
        }

    @pytest.mark.parametrize(
        "model, experiment",
        [
            (BASE_MODEL, {"kind": "tree", "n": 6, "replicates": 5, "traversal": "dfs"}),
            # one contaminating parasite in every daughter: no generation has a k = 0 row
            ({"environment": DYING, "k0": 1, "immigration": {
                "mode": "state_independent", "y0": {"kind": "finite", "values": [1], "probs": [1.0]}}},
             {"kind": "tree", "n": 5, "replicates": 3}),
            # the root's parasites leave no offspring: every later cell is free
            ({"environment": DYING, "k0": 2, "immigration": {"mode": "zero"}},
             {"kind": "tree", "n": 5, "replicates": 3}),
        ],
        ids=["dfs-last-generation-only", "no-free-cell", "infection-dies-out"],
    )
    def test_tree_summary_matches_the_ledger_rows(self, tmp_path, model, experiment):
        out = self.run(tmp_path, model, experiment)
        rows = csv_rows(out / "tree_ledgers.csv")
        cells, infected = {}, {}
        for _, g, k, c in rows:
            cells[g] = cells.get(g, 0) + c
            infected[g] = infected.get(g, 0) + (c if k > 0 else 0)
        fractions = json.loads((out / "tree_summary.json").read_text())["mean_infected_fraction"]
        assert fractions == {str(g): infected[g] / cells[g] for g in cells}
        n = experiment["n"]
        if experiment.get("traversal") == "dfs":
            assert list(fractions) == [str(n)]
        elif model["k0"] == 1:
            assert all(k > 0 for _, _, k, _ in rows) and set(fractions.values()) == {1.0}
        else:
            assert fractions == {"0": 1.0, **{str(g): 0.0 for g in range(1, n + 1)}}

    def test_lineage_rows_merge_across_blocks(self, tmp_path):
        # 20,000 paths are three blocks of at most 8,192
        experiment = {"kind": "lineage", "n": 12, "replicates": 20_000, "checkpoints": [12, 3]}
        out = self.run(tmp_path, BASE_MODEL, experiment)
        rows = csv_rows(out / "lineage_states.csv")
        keys = [(cp, state) for cp, state, _ in rows]
        assert keys == sorted(set(keys))
        for cp in (3, 12):
            assert sum(c for t, _, c in rows if t == cp) == 20_000

    def test_saturated_lineage_mean_is_exact(self, tmp_path):
        model = {
            "environment": {"builder": "cluster_split",
                            "z": {"kind": "finite", "values": [4096], "probs": [1.0]},
                            "p_values": [[0.5, 1.0]]},
            "immigration": {"y0": COIN, "y1": COIN},
            "k0": 1,
        }
        out = self.run(tmp_path, model, {"kind": "lineage", "n": 8, "replicates": 4096})
        rows = csv_rows(out / "lineage_states.csv")
        assert rows[-1][1] == 2**53  # saturated states
        total = sum(state * c for _, state, c in rows)
        assert total >= 2**63
        summary = json.loads((out / "lineage_summary.json").read_text())
        assert summary["8"]["mean"] == total / 4096

    def test_tree_worker_count_does_not_change_artifacts(self, tmp_path):
        # 150 runs at depth 5 are three blocks of at most 64
        experiment = {"kind": "tree", "n": 5, "replicates": 150}
        one = self.run(tmp_path, BASE_MODEL, experiment, "--workers", "1", out="w1")
        two = self.run(tmp_path, BASE_MODEL, experiment, "--workers", "2", out="w2")
        for name in ("tree_ledgers.csv", "tree_summary.json"):
            assert (one / name).read_bytes() == (two / name).read_bytes()


class TestWriteCsv:
    """The block-formatted array path writes what ``csv.writer`` writes."""

    HEADER = ("run_id", "n", "k", "count")

    def reference(self, tmp_path, rows) -> bytes:
        path = tmp_path / "reference.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.HEADER)
            writer.writerows(rows)
        return path.read_bytes()

    def written(self, tmp_path, rows) -> bytes:
        write_csv(tmp_path / "written.csv", self.HEADER, rows)
        return (tmp_path / "written.csv").read_bytes()

    @pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097])
    def test_int_rows_across_block_edges(self, tmp_path, n_rows):
        # six values cycled over four columns: each column holds each of them
        extremes = np.array([-1, -(2**63), 2**53, 2**53 + 1, 2**63 - 1, 0], np.int64)
        rows = np.resize(extremes, n_rows * 4).reshape(n_rows, 4)
        assert self.written(tmp_path, rows) == self.reference(tmp_path, rows.tolist())

    def test_float_rows(self, tmp_path):
        special = [0.1, -0.0, float("nan"), float("inf"), -float("inf"), 1e300, 5e-324, 1 / 3]
        rows = np.resize(np.array(special), 4097 * 4).reshape(4097, 4)
        written = self.written(tmp_path, rows)
        assert written == self.reference(tmp_path, rows.tolist())
        assert written.split(b"\r\n")[1] == b"0.1,-0.0,nan,inf"

    def test_line_ends_are_crlf(self, tmp_path):
        rows = np.array([[0, 1, -2, 2**62]])
        assert self.written(tmp_path, rows) == b"run_id,n,k,count\r\n0,1,-2,4611686018427387904\r\n"

    def test_tuple_rows_go_through_csv_writer(self, tmp_path):
        rows = [("overflow", repr(0.25), 3, "a,b"), ("1", "nan", -0.0, 'say "x"')]
        written = self.written(tmp_path, rows)
        assert written == self.reference(tmp_path, rows)
        assert written.endswith(b'1,nan,-0.0,"say ""x"""\r\n')


class TestNegativeSeed:
    """A negative seed is a configuration problem: exit 2, before anything runs."""

    def test_config_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": -5, "model": BASE_MODEL,
                                      "experiment": {"kind": "lineage", "n": 3, "replicates": 10}})
        assert main(["lineage", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="seed"):
            load_config({"seed": -5, "model": BASE_MODEL})

    @pytest.mark.parametrize(
        "experiment",
        [{"kind": "lineage", "n": 3, "replicates": 10}, {"kind": "tree", "n": 3, "replicates": 2},
         {"kind": "oracle", "K": 16, "n": 5}],
        ids=["lineage", "tree", "oracle"],
    )
    def test_seed_flag(self, tmp_path, capsys, experiment):
        cfg = write_config(tmp_path, {"model": BASE_MODEL, "experiment": experiment})
        out = tmp_path / "o"
        argv = [experiment["kind"], "--config", str(cfg), "--seed", "-2", "--out", str(out)]
        assert main(argv) == 2
        assert "--seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_seed_flag(self, capsys):
        assert main(["verify", "--suite", "oracle-equivalence", "--seed", "-1"]) == 2
        assert "--seed must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("k0, message", [(-1, "nonnegative"), (2**53 + 1, "at most"),
                                        (2**64, "at most")])
def test_start_state_outside_the_cap_exits_two(tmp_path, capsys, k0, message):
    experiment = {"kind": "lineage", "n": 3, "replicates": 10}
    cfg = write_config(tmp_path, {"model": {**BASE_MODEL, "k0": k0}, "experiment": experiment})
    assert main(["lineage", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "k0 must be" in err and message in err
    assert not (tmp_path / "o").exists()
    assert load_config({"model": {**BASE_MODEL, "k0": 2**53}}).k0 == 2**53


@pytest.mark.parametrize(
    "experiment",
    [{"kind": "lineage", "n": 3, "replicates": 20_000}, {"kind": "tree", "n": 3, "replicates": 20}],
    ids=["lineage", "tree"],
)
def test_worker_count_below_one_exits_two(tmp_path, capsys, experiment):
    cfg = write_config(tmp_path, {"model": BASE_MODEL, "experiment": experiment})
    for workers in ("0", "-3"):
        out = tmp_path / f"o{workers}"
        argv = [experiment["kind"], "--config", str(cfg), "--workers", workers, "--out", str(out)]
        assert main(argv) == 2
        assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()


def test_run_suite_counts_a_shared_computation_once(monkeypatch):
    def suite(seed):
        time.sleep(0.2)  # one computation behind both checks
        yield "shared/first", np.bool_(True), "m", "t"
        yield "shared/second", False, "m", "t"

    monkeypatch.setitem(verify.SUITES, "shared", suite)
    started = time.time()
    first, second = verify.run_suite("shared")
    assert first.seconds >= 0.2 > second.seconds
    assert first.seconds + second.seconds <= time.time() - started
    assert first.passed is True and second.passed is False
