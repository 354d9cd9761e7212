"""Differentiation machinery: surrogate, adjoint, FD oracle, Adam."""

import numpy as np
import pytest

from ipsnn.core import (IntrinsicProperties, NetworkConfig, forward_trial,
                        init_weights)
from ipsnn.gradients import (AdamState, DifferentiationMode, GradientError,
                             finite_difference_oracle,
                             surrogate_spike_derivative, task_gradients)
from ipsnn.objective import LossWeights
from ipsnn.plasticity import LearningMask
from ipsnn.tasks import generate_task
from ipsnn.verification import gradient_check, one_trial_task


class TestSurrogate:
    def test_peak_at_threshold(self):
        assert surrogate_spike_derivative(0.7, 0.7, 2.0) == 0.5

    def test_zero_outside_support(self):
        assert surrogate_spike_derivative(2.0, 0.5, 1.0) == 0.0
        assert surrogate_spike_derivative(-0.5, 0.5, 1.0) == 0.0

    def test_hand_value(self):
        assert surrogate_spike_derivative(1.0, 0.5, 1.0) == pytest.approx(0.5)

    def test_unit_integral(self):
        v = np.linspace(-3, 3, 60001)
        g = surrogate_spike_derivative(v, 0.0, 0.7)
        assert np.trapezoid(g, v) == pytest.approx(1.0, abs=1e-6)

    def test_compact_support(self):
        v = np.linspace(-5, 5, 1001)
        g = surrogate_spike_derivative(v, 0.3, 0.8)
        assert np.all(g[np.abs(v - 0.3) >= 0.8] == 0.0)


class TestFiniteDifferenceOracle:
    def test_quadratic(self):
        got = finite_difference_oracle(
            lambda p: float(p["x"] ** 2), {"x": np.array(3.0)}, h=1e-4)
        assert got["x"] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        got = finite_difference_oracle(
            lambda p: 42.0, {"x": np.ones((2, 2))}, h=1e-4)
        assert np.all(got["x"] == 0.0)


def one_trial_gradients(rec, inputs, targets, weights, props, config, mode,
                        loss_weights=None, learning_mask=None):
    """``task_gradients`` of a task consisting of one MSE trial."""
    _, grads = task_gradients([rec], one_trial_task(inputs, targets), weights,
                              props, config, mode, loss_weights or LossWeights(),
                              0.0, learning_mask=learning_mask)
    return grads


class TestBackwardTrial:
    """Gradients of one-trial tasks through ``task_gradients``."""

    def _setup(self, seed=0, mode="smooth", n=4, t=20):
        cfg = NetworkConfig(n_neurons=n, n_dendrites=2, noise_enabled=False)
        w = init_weights(cfg, 2, 2, seed=seed)
        rng = np.random.default_rng(seed + 100)
        props = IntrinsicProperties(rng.uniform(0.2, 0.9, (n, 2)),
                                    rng.uniform(0.2, 0.9, n),
                                    rng.uniform(0.4, 1.0, n))
        x = rng.uniform(size=(t, 2))
        tgt = rng.uniform(size=(t, 2))
        rec = forward_trial(w, props, cfg, x,
                            spike_mode="smooth" if mode == "smooth" else "hard")
        return cfg, w, props, x, tgt, rec

    def test_zero_upstream_means_zero_dynamic_grads(self):
        # zero targets and zero outputs: only regularizer terms remain
        cfg, w, props, x, _, _ = self._setup()
        w.w_out[...] = 0.0
        rec = forward_trial(w, props, cfg, x, spike_mode="smooth")
        lw = LossWeights(lambda_h=0.0)
        grads = one_trial_gradients(rec, x, np.zeros_like(rec.readout), w,
                                    props, cfg, DifferentiationMode("smooth"),
                                    loss_weights=lw)
        assert np.all(grads.d_tau_s == 0.0)
        assert np.all(grads.d_theta == 0.0)
        assert np.all(grads.d_w_out == 0.0)  # reg term is zero at w_out = 0

    def test_smooth_matches_fd_small_net(self):
        assert gradient_check(seed=5, n_neurons=4, t_steps=15) < 1e-4

    def test_deterministic(self):
        cfg, w, props, x, tgt, rec = self._setup(seed=3)
        mode = DifferentiationMode("smooth")
        a = one_trial_gradients(rec, x, tgt, w, props, cfg, mode)
        b = one_trial_gradients(rec, x, tgt, w, props, cfg, mode)
        for name in ("d_w_in", "d_w_rec", "d_w_out", "d_tau_d", "d_tau_s",
                     "d_theta"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_learning_mask_zeroes_groups(self):
        cfg, w, props, x, tgt, rec = self._setup(seed=1, mode="surrogate")
        grads = one_trial_gradients(rec, x, tgt, w, props, cfg,
                                    DifferentiationMode("surrogate"),
                                    learning_mask=LearningMask(1, 0, 0))
        assert np.all(grads.d_tau_s == 0.0)
        assert np.all(grads.d_theta == 0.0)
        assert np.any(grads.d_w_in != 0.0)

    def test_nonfinite_gradient_names_parameter(self):
        cfg, w, props, x, tgt, rec = self._setup(seed=2)
        rec.trace[5, 1] = np.nan
        with pytest.raises(GradientError) as err:
            one_trial_gradients(rec, x, tgt, w, props, cfg,
                                DifferentiationMode("smooth"))
        assert err.value.param_name in ("w_in", "w_rec", "w_out", "tau_d",
                                        "tau_s", "theta")

    def test_surrogate_mode_runs_on_task(self):
        task = generate_task("GNG-DR-2", 0, seed=4, dt_ms=100.0)
        cfg = NetworkConfig(n_neurons=6, n_dendrites=2, noise_enabled=False)
        w = init_weights(cfg, task.spec.input_dim, task.spec.output_dim, 5)
        rng = np.random.default_rng(6)
        props = IntrinsicProperties(rng.uniform(0.2, 0.9, (6, 2)),
                                    rng.uniform(0.2, 0.9, 6),
                                    rng.uniform(0.3, 0.8, 6))
        recs = [forward_trial(w, props, cfg, tr.inputs) for tr in task.trials]
        bd, grads = task_gradients(recs, task, w, props, cfg,
                                   DifferentiationMode("surrogate"),
                                   LossWeights(), 0.0)
        assert np.isfinite(bd.total)
        for name in ("d_w_in", "d_w_rec", "d_w_out"):
            assert np.all(np.isfinite(getattr(grads, name)))

    def test_masked_weights_receive_no_gradient(self):
        cfg, w, props, x, tgt, rec = self._setup(seed=7)
        grads = one_trial_gradients(rec, x, tgt, w, props, cfg,
                                    DifferentiationMode("smooth"))
        assert np.all(grads.d_w_in[w.mask_in == 0.0] == 0.0)
        assert np.all(grads.d_w_rec[w.mask_rec == 0.0] == 0.0)


class TestAdam:
    def test_first_step_hand_value(self):
        # g=1, lr=0.01, b1=0.1, b2=0.3: bias-corrected m=v=1 -> step ~ lr
        state = AdamState(lr=0.01, beta1=0.1, beta2=0.3, eps=1e-8)
        state.tick()
        out = state.step("p", np.array([1.0]), np.array([1.0]))
        assert out[0] == pytest.approx(1.0 - 0.01, abs=1e-9)
        assert state.step_count == 1

    def test_zero_gradient_is_noop(self):
        state = AdamState()
        param = np.array([0.3, -0.2])
        state.tick()
        out = state.step("p", param, np.zeros(2))
        assert np.array_equal(out, param)

    def test_requires_tick(self):
        state = AdamState()
        with pytest.raises(RuntimeError):
            state.step("p", np.zeros(1), np.zeros(1))

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            AdamState(beta1=1.0)

    def test_moments_accumulate(self):
        state = AdamState(lr=0.1, beta1=0.5, beta2=0.5)
        p = np.array([0.0])
        for _ in range(3):
            state.tick()
            p = state.step("p", p, np.array([1.0]))
        # constant gradient: bias-corrected m = v = 1 every step
        assert p[0] == pytest.approx(-0.3, abs=1e-6)
