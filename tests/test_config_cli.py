"""Config schema and command-line behavior: exit codes, artifacts, determinism."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cellbranch import verify
from cellbranch.cli import main
from cellbranch.config import ConfigError, load_config
from cellbranch.laws import FiniteLaw, HeavyTailLaw

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
            "oracle_hitting_tail.csv",
        ):
            assert (tmp_path / "o" / name).exists()
        renewal = json.loads((tmp_path / "o" / "oracle_renewal.json").read_text())
        assert renewal["u_infinity"] == pytest.approx(1.0 / renewal["expected_return_time"])

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

    @pytest.mark.parametrize("traversal, n", [("bfs", 23), ("dfs", 31)])
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
        ],
        ids=["lineage-0", "lineage-neg", "no-checkpoints", "tree-0", "tree-neg", "quantity"],
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
