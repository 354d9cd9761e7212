"""Command-line surface: config validation, artifacts, analyze, selftest."""

import json
import os

import numpy as np
import pytest

from ipsnn import cli, verification
from ipsnn.manifest import load_manifest, validate_manifest
from ipsnn.tensorio import load_tensors, save_tensors

TINY = {
    "family": "GNG-DR-2",
    "convergence_threshold": 0.05,
    "n_tasks": 2,
    "max_iters": 6,
    "min_iters": 2,
    "n_neurons": 8,
    "dt_ms": 100.0,
    "seed": 4,
    "checkpoint_every": 1,
    "record_every": 1,
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def train(config_file, out):
    return cli.main(["train", "--config", config_file, "--out", str(out)])


class TestConfigValidation:
    def test_dry_run_ok(self, config_file, capsys):
        assert cli.main(["train", "--config", config_file, "--dry-run"]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_missing_threshold_names_key(self, tmp_path, capsys):
        bad = dict(TINY)
        del bad["convergence_threshold"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = cli.main(["train", "--config", str(path), "--dry-run"])
        assert code == 2
        assert "convergence_threshold" in capsys.readouterr().err

    def test_missing_family_names_key(self, tmp_path, capsys):
        bad = dict(TINY)
        del bad["family"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli.main(["train", "--config", str(path), "--dry-run"]) == 2
        assert "family" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = dict(TINY, learning_rate=0.1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli.main(["train", "--config", str(path), "--dry-run"]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_retired_key_at_false_dropped(self, tmp_path):
        path = tmp_path / "old.json"
        for key in ("noise_scaled_by_leak", "reset_passthrough"):
            path.write_text(json.dumps(dict(TINY, **{key: False})))
            assert not hasattr(cli.load_config(str(path)), key)

    def test_retired_key_at_true_rejected(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        for key in ("noise_scaled_by_leak", "reset_passthrough"):
            path.write_text(json.dumps(dict(TINY, **{key: True})))
            assert cli.main(["train", "--config", str(path), "--dry-run"]) == 2
            assert key in capsys.readouterr().err

    def test_invalid_value_rejected(self, tmp_path):
        bad = dict(TINY, convergence_threshold=-1.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli.main(["train", "--config", str(path), "--dry-run"]) == 2

    @pytest.mark.parametrize("key, value", [
        ("trial_reduction", "median"), ("surrogate_width", 0), ("lambda_h", -1),
        ("alpha", 2.0), ("beta1", 1.5), ("n_neurons", 0), ("checkpoint_every", 0),
        ("record_every", 0), ("dt_ms", 3000),
    ])
    def test_dry_run_rejects_what_the_run_rejects(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(TINY, **{key: value})))
        assert cli.main(["train", "--config", str(path), "--dry-run"]) == 2
        assert "config ok" not in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert cli.main(["train", "--config", "/nope.json", "--dry-run"]) == 2

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == 2

    def test_cli_overrides(self, config_file, capsys):
        assert cli.main(["train", "--config", config_file, "--seed", "9",
                         "--variant", "vanilla", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "seed=9" in out and "variant=vanilla" in out


class TestTrain:
    def test_run_directory_contents(self, config_file, tmp_path):
        out = tmp_path / "run"
        assert train(config_file, out) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "events.log").exists()
        assert (out / "config.json").exists()
        manifest = load_manifest(str(out))
        assert manifest["seeds"] == {"experiment": 4}
        assert manifest["tasks_run"] == 2
        assert validate_manifest(str(out)) == []

    def test_manifest_detects_tampering(self, config_file, tmp_path):
        out = tmp_path / "run"
        train(config_file, out)
        with open(out / "metrics.csv", "a") as fh:
            fh.write("tampered\n")
        problems = validate_manifest(str(out))
        assert any("metrics.csv" in p for p in problems)

    def test_identical_seeds_identical_metrics(self, config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        train(config_file, out_a)
        train(config_file, out_b)
        assert (out_a / "metrics.csv").read_bytes() == \
               (out_b / "metrics.csv").read_bytes()

    def test_seed_pool_isolated_runs(self, config_file, tmp_path):
        out = tmp_path / "multi"
        assert cli.main(["train", "--config", config_file, "--out", str(out),
                         "--seeds", "1,2", "--workers", "2"]) == 0
        for seed in (1, 2):
            run_dir = out / f"seed-{seed}"
            assert (run_dir / "metrics.csv").exists()
            assert validate_manifest(str(run_dir)) == []

    def test_env_var_output_root(self, config_file, tmp_path, monkeypatch):
        monkeypatch.setenv("IPSNN_OUT_ROOT", str(tmp_path / "root"))
        assert cli.main(["train", "--config", config_file]) == 0
        assert (tmp_path / "root" / "gng-dr-2-ip2-4" / "metrics.csv").exists()


class TestAnalyze:
    @pytest.fixture
    def run_dir(self, config_file, tmp_path):
        out = tmp_path / "run"
        train(config_file, out)
        return str(out)

    def test_stats(self, run_dir):
        assert cli.main(["analyze", "stats", "--run", run_dir]) == 0
        lines = open(os.path.join(run_dir, "stats.csv")).read().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert len(lines) == 2 + TINY["n_tasks"]

    def test_modularity(self, run_dir):
        assert cli.main(["analyze", "modularity", "--run", run_dir,
                         "--window", "5", "--stride", "5"]) == 0
        assert os.path.exists(os.path.join(run_dir, "modularity.csv"))
        assert os.path.exists(os.path.join(run_dir, "allegiance.tens"))

    def test_pca(self, run_dir):
        assert cli.main(["analyze", "pca", "--run", run_dir]) == 0
        assert os.path.exists(os.path.join(run_dir, "pca.csv"))
        assert os.path.exists(os.path.join(run_dir, "pca_basis.tens"))

    def test_lesion(self, run_dir):
        assert cli.main(["analyze", "lesion", "--run", run_dir,
                         "--property", "tau_s"]) == 0
        lines = open(os.path.join(run_dir, "lesion.csv")).read().splitlines()
        assert len(lines) == 2 + 10  # header comment + header + ten bins

    def test_run_directory_with_retired_settings(self, run_dir):
        # rewrite the run directory the way earlier versions wrote it: the
        # retired keys at false in config.json, the leak-placement meta line
        # and no noise generator state in every checkpoint
        args = {"pca": [], "lesion": ["--property", "tau_s"]}
        before = {}
        for what, extra in args.items():
            assert cli.main(["analyze", what, "--run", run_dir] + extra) == 0
            before[what] = open(os.path.join(run_dir, f"{what}.csv")).readlines()
        cfg_path = os.path.join(run_dir, "config.json")
        with open(cfg_path) as fh:
            raw = json.load(fh)
        raw.update(noise_scaled_by_leak=False, reset_passthrough=False)
        with open(cfg_path, "w") as fh:
            json.dump(raw, fh, indent=2, sort_keys=True)
        ckpt_dir = os.path.join(run_dir, "checkpoints")
        for name in os.listdir(ckpt_dir):
            tensors, meta = load_tensors(os.path.join(ckpt_dir, name))
            del meta["noise_rng_state"]
            save_tensors(os.path.join(ckpt_dir, name), tensors,
                         dict(meta, noise_scaled_by_leak=False))
        for what, extra in args.items():
            assert cli.main(["analyze", what, "--run", run_dir] + extra) == 0
            after = open(os.path.join(run_dir, f"{what}.csv")).readlines()
            assert after[0] != before[what][0]  # the config hash stamp
            assert after[1:] == before[what][1:]

    def test_missing_recordings_listed(self, run_dir, capsys):
        for name in os.listdir(os.path.join(run_dir, "recordings")):
            os.remove(os.path.join(run_dir, "recordings", name))
        assert cli.main(["analyze", "stats", "--run", run_dir]) == 1
        assert "recordings" in capsys.readouterr().err

    def test_modularity_rejects_zero_restarts(self, run_dir, capsys):
        assert cli.main(["analyze", "modularity", "--run", run_dir,
                         "--window", "5", "--stride", "5",
                         "--restarts", "0"]) == 1
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(run_dir, "modularity.csv"))

    def test_rerun_identical_outputs(self, run_dir):
        cli.main(["analyze", "modularity", "--run", run_dir,
                  "--window", "5", "--stride", "5"])
        first = open(os.path.join(run_dir, "modularity.csv"), "rb").read()
        cli.main(["analyze", "modularity", "--run", run_dir,
                  "--window", "5", "--stride", "5"])
        second = open(os.path.join(run_dir, "modularity.csv"), "rb").read()
        assert first == second


class TestSelftest:
    def test_fast_mode_passes(self, capsys):
        assert cli.main(["selftest", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "PASS forward-replay" in out
        assert "PASS gradient-check" in out
        assert "SKIP noise-variance" in out

    def test_failure_names_check(self, monkeypatch, capsys):
        broken = [("gradient-check", lambda: (False, "injected failure"))]
        monkeypatch.setattr(verification, "SELFTEST_CHECKS", broken)
        assert cli.main(["selftest", "--fast"]) == 1
        captured = capsys.readouterr()
        assert "FAIL gradient-check" in captured.out
        assert "gradient-check" in captured.err
