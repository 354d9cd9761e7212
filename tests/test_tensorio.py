"""Tensor container format, checkpoints, and fixture export."""

import re

import numpy as np
import pytest

from ipsnn.core import NetworkConfig, forward_trial, init_weights
from ipsnn.plasticity import default_learnable_bank, default_fixed_bank
from ipsnn.tasks import generate_task
from ipsnn.tensorio import (export_task, load_checkpoint,
                            load_optimizer_moments, load_recording,
                            load_task, load_tensors, save_checkpoint,
                            save_recording, save_tensors)


class TestContainer:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a": rng.normal(size=(3, 4)),
            "b": rng.normal(size=(2, 3, 5)),
            "scalar": np.float64(np.pi),
            "vec": rng.normal(size=7) * 1e-300,  # subnormal-adjacent values
        }
        path = tmp_path / "t.tens"
        save_tensors(path, tensors, {"note": "x", "k": 3, "flag": True})
        loaded, meta = load_tensors(path)
        assert meta == {"note": "x", "k": 3, "flag": True}
        for name, arr in tensors.items():
            got = loaded[name]
            assert got.shape == np.shape(arr)
            assert np.array_equal(got, np.asarray(arr, dtype=np.float64))
            assert got.tobytes() == np.ascontiguousarray(
                arr, dtype=np.float64).tobytes()

    def test_declaration_order_preserved(self, tmp_path):
        path = tmp_path / "o.tens"
        save_tensors(path, {"z": np.ones(2), "a": np.zeros(3)})
        loaded, _ = load_tensors(path)
        assert list(loaded) == ["z", "a"]

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tens"
        path.write_bytes(b"not a container\nend\n")
        with pytest.raises(ValueError):
            load_tensors(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "t.tens"
        save_tensors(path, {"a": np.ones((4, 4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            load_tensors(path)

    def test_rejects_whitespace_names(self, tmp_path):
        with pytest.raises(ValueError):
            save_tensors(tmp_path / "x.tens", {"bad name": np.ones(1)})

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "t.tens"
        save_tensors(path, {"a": np.ones(1)})
        assert [p.name for p in tmp_path.iterdir()] == ["t.tens"]


class TestMalformedContainer:
    """Every malformed container fails with a ValueError naming its path."""

    @pytest.fixture
    def blob(self, tmp_path):
        path = tmp_path / "good.tens"
        save_tensors(path, {"a": np.arange(6.0).reshape(2, 3),
                            "s": np.float64(2.5), "e": np.zeros((0, 2))},
                     {"kind": "x", "note": "caf\u00e9", "k": [1, 2]})
        return path.read_bytes()

    def _rejects(self, path, data: bytes, match: str = ""):
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + match):
            load_tensors(path)

    def test_truncation_at_every_offset(self, tmp_path, blob):
        for cut in range(len(blob)):
            self._rejects(tmp_path / "bad.tens", blob[:cut])

    def test_trailing_bytes_rejected(self, tmp_path, blob):
        self._rejects(tmp_path / "bad.tens", blob + b"\x00", "trailing")

    def test_negative_dimension_rejected(self, tmp_path, blob):
        assert b"tensor a 2,3\n" in blob
        self._rejects(tmp_path / "bad.tens",
                      blob.replace(b"tensor a 2,3\n", b"tensor a -2,-3\n"),
                      "negative")

    def test_random_byte_flips_load_or_name_path(self, tmp_path, blob):
        rng = np.random.default_rng(2024)
        path = tmp_path / "flipped.tens"
        for _ in range(2000):
            data = bytearray(blob)
            for pos in rng.integers(0, len(data), size=rng.integers(1, 4)):
                data[pos] = int(rng.integers(0, 256))
            path.write_bytes(bytes(data))
            try:
                load_tensors(path)
            except ValueError as err:
                assert str(path) in str(err)


class TestCheckpoint:
    def test_round_trip_and_replay(self, tmp_path):
        config = NetworkConfig(n_neurons=6, n_dendrites=2, dt_ms=20.0,
                               rng_seed=3)
        weights = init_weights(config, 3, 3, seed=1)
        learnable = default_learnable_bank(config, 2)
        fixed = default_fixed_bank(config, 3)
        moments = {"m.w_in": np.random.default_rng(4).normal(
            size=weights.w_in.shape)}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, config, weights, learnable, fixed, (1, 1, 0),
                        sigma_h_sq=0.025, optimizer_moments=moments,
                        extra_meta={"task_index": 12})
        ckpt = load_checkpoint(path)
        assert ckpt.config == config
        assert ckpt.mask_bits == (1, 1, 0)
        assert ckpt.sigma_h_sq == 0.025
        assert ckpt.meta["task_index"] == 12
        for got, want in ((ckpt.weights.w_in, weights.w_in),
                          (ckpt.weights.mask_rec, weights.mask_rec),
                          (ckpt.learnable_bank.tau_d, learnable.tau_d),
                          (ckpt.fixed_bank.tau_s, fixed.tau_s)):
            assert np.array_equal(got, want)
        assert np.array_equal(load_optimizer_moments(path)["m.w_in"],
                              moments["m.w_in"])

        # forward replay from the loaded state is bit-exact
        x = np.random.default_rng(5).uniform(size=(30, 3))
        a = forward_trial(weights, learnable, config, x,
                          rng=np.random.default_rng(9))
        b = forward_trial(ckpt.weights, ckpt.learnable_bank, ckpt.config, x,
                          rng=np.random.default_rng(9))
        assert np.array_equal(a.readout, b.readout)
        assert np.array_equal(a.v, b.v)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "x.tens"
        save_tensors(path, {"a": np.ones(1)}, {"kind": "other"})
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestMissingKey:
    @staticmethod
    def write(kind, path):
        config = NetworkConfig(n_neurons=4, rng_seed=0)
        weights = init_weights(config, 2, 2, seed=1)
        props = default_learnable_bank(config, 2)
        if kind == "checkpoint":
            save_checkpoint(path, config, weights, props,
                            default_fixed_bank(config, 3), (1, 1, 0), 0.0)
            return load_checkpoint
        if kind == "recording":
            x = np.random.default_rng(3).uniform(size=(5, 2))
            save_recording(path, [forward_trial(weights, props, config, x)], 0)
            return load_recording
        export_task(path, generate_task("DMS", 0, seed=1, dt_ms=100.0))
        return load_task

    @pytest.mark.parametrize("kind, line, key", [
        ("checkpoint", "meta rng_seed", "rng_seed"),
        ("checkpoint", "tensor w_out", "w_out"),
        ("recording", "tensor trial0.trace", "trial0.trace"),
        ("task", "meta labels", "labels"),
    ])
    def test_missing_key_names_path_and_key(self, tmp_path, kind, line, key):
        path = tmp_path / f"x.{kind}"
        load = self.write(kind, path)
        blob = path.read_bytes()
        old = f"\n{line} ".encode()
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, f"\n{line}_renamed ".encode()))
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(path) in str(err.value) and repr(key) in str(err.value)


class TestTaskExport:
    def test_round_trip(self, tmp_path):
        task = generate_task("CD-DMS", 5, seed=8, dt_ms=50.0)
        path = tmp_path / "task.tens"
        export_task(path, task)
        loaded = load_task(path)
        assert loaded.family == "CD-DMS"
        assert loaded.task_index == 5
        assert loaded.schedule == task.schedule
        assert len(loaded.trials) == 4
        for a, b in zip(task.trials, loaded.trials):
            assert np.array_equal(a.inputs, b.inputs)
            assert np.array_equal(a.targets, b.targets)
            assert a.label == b.label and a.context == b.context


class TestRecording:
    def test_round_trip(self, tmp_path):
        config = NetworkConfig(n_neurons=4, rng_seed=0)
        weights = init_weights(config, 2, 2, seed=1)
        props = default_learnable_bank(config, 2)
        x = np.random.default_rng(3).uniform(size=(25, 2))
        recs = [forward_trial(weights, props, config, x,
                              rng=np.random.default_rng(7))]
        path = tmp_path / "r.rec"
        save_recording(path, recs, task_index=9, extra_meta={"family": "DMS"})
        trials, meta = load_recording(path)
        assert meta["task_index"] == 9 and meta["family"] == "DMS"
        assert np.array_equal(trials[0]["v"], recs[0].v)
        assert np.array_equal(trials[0]["readout"], recs[0].readout)
