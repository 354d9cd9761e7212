"""Unit tests for the spiking state machine."""

import numpy as np
import pytest

from ipsnn.core import (IntrinsicProperties, NetworkConfig, NetworkWeights,
                        dendrite_step, forward_trial, init_weights,
                        noise_step, readout, soma_step, spike_and_reset,
                        trace_step)


def make_props(n, d, tau_d=0.5, tau_s=0.5, theta=1.0):
    return IntrinsicProperties(
        tau_d=np.full((n, d), tau_d, dtype=float),
        tau_s=np.full(n, tau_s, dtype=float),
        theta=np.full(n, theta, dtype=float),
    )


class TestConfig:
    def test_defaults_valid(self):
        cfg = NetworkConfig(n_neurons=4)
        assert cfg.dendritic and cfg.n_dendrites == 2

    @pytest.mark.parametrize("kwargs", [
        dict(n_neurons=0), dict(n_neurons=4, dt_ms=0.0),
        dict(n_neurons=4, alpha=0.0), dict(n_neurons=4, alpha=1.5),
        dict(n_neurons=4, alpha_noise=0.0), dict(n_neurons=4, a_noise=-1.0),
        dict(n_neurons=4, n_dendrites=-1),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)


def first_step(v_reset, n=4, d=2):
    """Step 0 of a trial that keeps the initial state: tau_s = 1 holds v,
    zero weights give zero drive, and there is no noise."""
    cfg = NetworkConfig(n_neurons=n, n_dendrites=d, v_reset=v_reset,
                        noise_enabled=False)
    w = init_weights(cfg, 2, 2, seed=0)
    for arr in (w.w_in, w.w_rec, w.w_out):
        arr[...] = 0.0
    rec = forward_trial(w, make_props(n, d, tau_s=1.0), cfg, np.ones((1, 2)))
    return rec.v[0], rec.v_d[0], rec.trace[0]


class TestInitState:
    def test_all_zero_with_zero_reset(self):
        for arr in first_step(0.0):
            assert np.all(arr == 0.0)

    def test_v_starts_at_reset(self):
        v, v_d, trace = first_step(-0.2, n=1)
        assert v.tolist() == [-0.2]
        assert np.all(v_d == 0.0) and np.all(trace == 0.0)

    def test_deterministic(self):
        for d in (2, 0):
            a, b = first_step(-0.2, d=d), first_step(-0.2, d=d)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
            assert np.all(a[0] == -0.2)


class TestNoiseStep:
    def test_hand_value(self):
        # (1-0.5)*0.2 + sqrt(2*0.5)*0.05*1.0 = 0.15
        cfg = NetworkConfig(n_neurons=1, alpha_noise=0.5, a_noise=0.05)
        out = noise_step(np.array([0.2]), np.array([1.0]), cfg)
        assert out[0] == pytest.approx(0.15, abs=1e-15)

    def test_zero_amplitude_decays(self):
        cfg = NetworkConfig(n_neurons=3, alpha_noise=0.25, a_noise=0.0)
        n = np.array([1.0, -2.0, 0.5])
        out = noise_step(n, np.array([3.0, 1.0, -1.0]), cfg)
        assert np.allclose(out, 0.75 * n)

    def test_matches_reference_recursion(self):
        # independent scalar-arithmetic replay of the same AR(1) recursion
        cfg = NetworkConfig(n_neurons=1, alpha_noise=0.5, a_noise=0.05)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(10_000)
        state = np.zeros(1)
        got = np.empty(10_000)
        for t in range(10_000):
            state = noise_step(state, z[t:t + 1], cfg)
            got[t] = state[0]
        c = np.sqrt(2 * 0.5) * 0.05
        ref, acc = np.empty(10_000), 0.0
        for t in range(10_000):
            acc = (1 - 0.5) * acc + c * z[t]
            ref[t] = acc
        assert np.array_equal(got, ref)


class TestDendriteStep:
    def test_full_decay_holds_previous(self):
        cfg = NetworkConfig(n_neurons=2, n_dendrites=2)
        w = init_weights(cfg, 3, 1, seed=0)
        props = make_props(2, 2, tau_d=1.0)
        v_d = np.array([[0.3, -0.1], [0.2, 0.4]])
        out = dendrite_step(v_d, np.ones(3), np.ones(2), w, props, cfg)
        assert np.array_equal(out, v_d)

    def test_zero_drive_zero_decay(self):
        cfg = NetworkConfig(n_neurons=2, n_dendrites=2)
        w = init_weights(cfg, 3, 1, seed=0)
        props = make_props(2, 2, tau_d=0.0)
        out = dendrite_step(np.ones((2, 2)), np.zeros(3), np.zeros(2), w,
                            props, cfg)
        assert np.all(out == 0.0)

    def test_hand_value(self):
        # tau_d=0.5, V_d=1, drive=2 -> 0.5*1 + 0.5*2 = 1.5
        cfg = NetworkConfig(n_neurons=1, n_dendrites=1)
        w = NetworkWeights(w_in=np.full((1, 1, 1), 2.0),
                           w_rec=np.zeros((1, 1, 1)),
                           w_out=np.zeros((1, 1)),
                           mask_in=np.ones((1, 1, 1)),
                           mask_rec=np.ones((1, 1, 1)))
        props = make_props(1, 1, tau_d=0.5)
        out = dendrite_step(np.ones((1, 1)), np.ones(1), np.zeros(1), w,
                            props, cfg)
        assert out[0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_requires_dendrites(self):
        cfg = NetworkConfig(n_neurons=1, n_dendrites=0)
        w = init_weights(cfg, 1, 1, seed=0)
        with pytest.raises(ValueError):
            dendrite_step(np.zeros((1, 0)), np.zeros(1), np.zeros(1), w,
                          make_props(1, 0), cfg)


class TestSomaStep:
    def test_pure_hold(self):
        cfg = NetworkConfig(n_neurons=2)
        props = make_props(2, 2, tau_s=1.0)
        v = np.array([0.3, -0.6])
        out = soma_step(v, np.array([5.0, 5.0]), np.zeros(2), props, cfg)
        assert np.array_equal(out, v)

    def test_memoryless(self):
        cfg = NetworkConfig(n_neurons=2)
        props = make_props(2, 2, tau_s=0.0)
        drive = np.array([1.5, -2.0])
        out = soma_step(np.ones(2), drive, np.zeros(2), props, cfg)
        assert np.array_equal(out, drive)

    def test_hand_value(self):
        # 0.5*0.4 + 0.5*1.0 + 0.1 = 0.8 (noise added outside the leak factor)
        cfg = NetworkConfig(n_neurons=1)
        props = make_props(1, 2, tau_s=0.5)
        out = soma_step(np.array([0.4]), np.array([1.0]), np.array([0.1]),
                        props, cfg)
        assert out[0] == pytest.approx(0.8, abs=1e-15)


class TestSpikeAndReset:
    def test_above_threshold(self):
        cfg = NetworkConfig(n_neurons=1, v_reset=0.0)
        spikes, v = spike_and_reset(np.array([0.6]), make_props(1, 2, theta=0.5), cfg)
        assert spikes[0] == 1.0 and v[0] == 0.0

    def test_threshold_is_inclusive(self):
        cfg = NetworkConfig(n_neurons=1)
        spikes, _ = spike_and_reset(np.array([0.5]), make_props(1, 2, theta=0.5), cfg)
        assert spikes[0] == 1.0

    def test_subthreshold_untouched(self):
        cfg = NetworkConfig(n_neurons=1)
        spikes, v = spike_and_reset(np.array([0.49]), make_props(1, 2, theta=0.5), cfg)
        assert spikes[0] == 0.0 and v[0] == 0.49


class TestTraceStep:
    def test_spike_jump(self):
        cfg = NetworkConfig(n_neurons=1, alpha=0.01)
        out = trace_step(np.array([0.0]), np.array([1.0]), cfg)
        assert out[0] == pytest.approx(0.99, abs=1e-15)

    def test_no_spike_decay(self):
        cfg = NetworkConfig(n_neurons=1, alpha=0.01)
        out = trace_step(np.array([0.7]), np.array([0.0]), cfg)
        assert out[0] == pytest.approx(0.007, abs=1e-15)

    def test_fixed_point(self):
        cfg = NetworkConfig(n_neurons=1, alpha=0.3)
        out = trace_step(np.array([1.0]), np.array([1.0]), cfg)
        assert out[0] == 1.0


class TestReadout:
    def test_zero_trace(self):
        w = NetworkWeights(np.zeros((2, 3)), np.zeros((2, 2)), np.ones((4, 2)))
        assert np.all(readout(np.zeros(2), w) == 0.0)

    def test_identity(self):
        w = NetworkWeights(np.zeros((2, 3)), np.zeros((2, 2)), np.eye(2))
        trace = np.array([0.3, 0.8])
        assert np.array_equal(readout(trace, w), trace)

    def test_hand_dot(self):
        w = NetworkWeights(np.zeros((2, 3)), np.zeros((2, 2)),
                           np.array([[1.0, 2.0]]))
        assert readout(np.array([0.5, 0.25]), w)[0] == pytest.approx(1.0)


class TestWeights:
    def test_branch_exclusive_masks(self):
        cfg = NetworkConfig(n_neurons=5, n_dendrites=2)
        w = init_weights(cfg, 4, 3, seed=3)
        w.validate()
        assert np.all(w.mask_in.sum(axis=0) == 1.0)
        assert np.all(w.mask_rec.sum(axis=0) == 1.0)
        assert np.all(w.w_in * (1 - w.mask_in) == 0.0)

    def test_validate_rejects_double_branch(self):
        mask = np.ones((2, 1, 1))  # both branches claim the afferent
        w = NetworkWeights(np.ones((2, 1, 1)), np.ones((2, 1, 1)),
                           np.ones((1, 1)), mask, np.ones((2, 1, 1)) * [[ [1]], [[0]]])
        with pytest.raises(ValueError):
            w.validate()

    def test_validate_rejects_offbranch_weight(self):
        mask_in = np.zeros((2, 1, 1))
        mask_in[0] = 1.0
        w_in = np.ones((2, 1, 1))  # weight present on the masked-out branch
        mask_rec = np.zeros((2, 1, 1))
        mask_rec[0] = 1.0
        w = NetworkWeights(w_in, mask_rec.copy(), np.ones((1, 1)),
                           mask_in, mask_rec)
        with pytest.raises(ValueError):
            w.validate()


class TestForwardTrial:
    def test_dead_network(self):
        cfg = NetworkConfig(n_neurons=4, noise_enabled=False)
        w = init_weights(cfg, 2, 3, seed=0)
        w.w_in[...] = 0.0
        w.w_rec[...] = 0.0
        props = make_props(4, 2, theta=0.5)
        rec = forward_trial(w, props, cfg, np.ones((30, 2)))
        assert np.all(rec.spikes == 0.0)
        assert np.all(rec.readout == 0.0)

    def test_seeded_determinism(self):
        cfg = NetworkConfig(n_neurons=6, rng_seed=5)
        w = init_weights(cfg, 3, 2, seed=1)
        props = make_props(6, 2, tau_d=0.4, tau_s=0.7, theta=0.8)
        x = np.random.default_rng(2).uniform(size=(40, 3))
        a = forward_trial(w, props, cfg, x, rng=np.random.default_rng(77))
        b = forward_trial(w, props, cfg, x, rng=np.random.default_rng(77))
        for name in ("v", "v_d", "spikes", "trace", "readout"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_constant_suprathreshold_drive_spikes_every_step(self):
        # tau_s=0, theta=0.5, constant drive 1.0: V(t)=1 >= 0.5 at every step
        cfg = NetworkConfig(n_neurons=1, n_dendrites=0, noise_enabled=False)
        w = NetworkWeights(np.array([[1.0]]), np.zeros((1, 1)), np.ones((1, 1)))
        props = make_props(1, 0, tau_s=0.0, theta=0.5)
        rec = forward_trial(w, props, cfg, np.ones((10, 1)))
        assert np.all(rec.spikes == 1.0)
        # the trace lags spikes by one step: M(t) uses spikes from t-1
        assert rec.trace[0, 0] == 0.0
        assert rec.trace[1, 0] == pytest.approx(1 - cfg.alpha)

    def test_trace_bounded(self):
        cfg = NetworkConfig(n_neurons=8, rng_seed=1)
        w = init_weights(cfg, 3, 2, seed=4, gain_in=3.0, gain_rec=3.0)
        props = make_props(8, 2, tau_d=0.2, tau_s=0.3, theta=0.3)
        x = np.random.default_rng(0).uniform(size=(100, 3))
        rec = forward_trial(w, props, cfg, x, rng=np.random.default_rng(8))
        assert np.all(rec.trace >= 0.0) and np.all(rec.trace <= 1.0)

    def test_reset_applied_where_spiking(self):
        cfg = NetworkConfig(n_neurons=5, v_reset=0.0, rng_seed=2)
        w = init_weights(cfg, 2, 2, seed=9, gain_in=4.0)
        props = make_props(5, 2, tau_d=0.1, tau_s=0.5, theta=0.4)
        x = np.random.default_rng(1).uniform(size=(50, 2))
        rec = forward_trial(w, props, cfg, x, rng=np.random.default_rng(3))
        v_post = rec.v + (cfg.v_reset - rec.v) * rec.spikes_internal
        assert np.all(v_post[rec.spikes_internal == 1.0] == cfg.v_reset)

    def test_full_decay_freezes_membrane(self):
        cfg = NetworkConfig(n_neurons=3, noise_enabled=False)
        w = init_weights(cfg, 2, 2, seed=0, gain_in=0.3, gain_rec=0.3)
        props = make_props(3, 2, tau_d=0.5, tau_s=1.0, theta=10.0)
        x = np.random.default_rng(4).uniform(size=(20, 2))
        rec = forward_trial(w, props, cfg, x)
        # v stays at the initial reset value when tau_s = 1 and no noise
        assert np.all(rec.v == cfg.v_reset)

    def test_point_soma_equals_single_branch_collapse(self):
        rng = np.random.default_rng(11)
        n, in_dim, out_dim, t = 5, 3, 2, 40
        cfg_point = NetworkConfig(n_neurons=n, n_dendrites=0, noise_enabled=False)
        w_dense_in = rng.normal(size=(n, in_dim))
        w_dense_rec = rng.normal(size=(n, n))
        w_out = rng.normal(size=(out_dim, n))
        w_point = NetworkWeights(w_dense_in, w_dense_rec, w_out)
        props_point = make_props(n, 0, tau_s=0.6, theta=0.7)

        cfg_dend = NetworkConfig(n_neurons=n, n_dendrites=1, noise_enabled=False)
        w_dend = NetworkWeights(w_dense_in[None], w_dense_rec[None], w_out,
                                np.ones((1, n, in_dim)), np.ones((1, n, n)))
        props_dend = make_props(n, 1, tau_d=0.0, tau_s=0.6, theta=0.7)

        x = rng.uniform(size=(t, in_dim))
        a = forward_trial(w_point, props_point, cfg_point, x)
        b = forward_trial(w_dend, props_dend, cfg_dend, x)
        np.testing.assert_allclose(a.v, b.v, rtol=0, atol=1e-12)
        assert np.array_equal(a.spikes, b.spikes)
        np.testing.assert_allclose(a.readout, b.readout, rtol=0, atol=1e-12)

    def test_lesion_none_vs_all_false_bit_identical(self):
        cfg = NetworkConfig(n_neurons=6, rng_seed=3)
        w = init_weights(cfg, 2, 2, seed=6, gain_in=2.0)
        props = make_props(6, 2, tau_d=0.3, tau_s=0.5, theta=0.5)
        x = np.random.default_rng(5).uniform(size=(60, 2))
        a = forward_trial(w, props, cfg, x, rng=np.random.default_rng(1))
        b = forward_trial(w, props, cfg, x, rng=np.random.default_rng(1),
                          lesion_mask=np.zeros(6, dtype=bool))
        for name in ("v", "spikes", "trace", "readout"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_lesion_silences_emitted_spikes_only(self):
        cfg = NetworkConfig(n_neurons=4, rng_seed=3)
        w = init_weights(cfg, 2, 2, seed=6, gain_in=4.0)
        props = make_props(4, 2, tau_d=0.2, tau_s=0.4, theta=0.3)
        x = np.random.default_rng(5).uniform(size=(80, 2))
        lesion = np.array([True, False, False, False])
        rec = forward_trial(w, props, cfg, x, rng=np.random.default_rng(1),
                            lesion_mask=lesion)
        assert np.all(rec.spikes[:, 0] == 0.0)
        # membrane keeps running and crossing threshold internally
        assert rec.spikes_internal[:, 0].sum() > 0

    def test_rejects_wrong_input_width(self):
        cfg = NetworkConfig(n_neurons=2)
        w = init_weights(cfg, 3, 1, seed=0)
        with pytest.raises(ValueError):
            forward_trial(w, make_props(2, 2), cfg, np.zeros((10, 4)))
