"""Reverse-mode differentiation through the unrolled spiking dynamics.

The adjoint pass mirrors the forward recursion step by step. Two modes:

  surrogate  hard spikes in the forward pass; the backward pass substitutes
             a triangular pseudo-derivative for the threshold and detaches
             the reset (gradient flows only through the no-spike branch).
  smooth     sigmoid spikes forward and backward with the reset fully
             differentiated; the loss is then an exact smooth function of
             the parameters, so central finite differences verify the
             adjoint to machine-level accuracy.

Key indexing constraint baked into the recursion: the trace at step t
consumes the spikes of step t-1, so spike adjoints arrive one step late via
the carry ``c_spike``, and the last step's spikes never receive gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import objective
from .core import IntrinsicProperties, NetworkConfig, NetworkWeights, TrialRecording


class GradientError(RuntimeError):
    """Raised when a gradient turns non-finite; carries the parameter name."""

    def __init__(self, param_name: str):
        super().__init__(f"non-finite gradient in parameter {param_name!r}")
        self.param_name = param_name


@dataclass
class GradientSet:
    """Gradients matching the parameter layout of one network."""

    d_w_in: np.ndarray
    d_w_rec: np.ndarray
    d_w_out: np.ndarray
    d_tau_d: np.ndarray
    d_tau_s: np.ndarray
    d_theta: np.ndarray

    @classmethod
    def zeros_like(cls, weights: NetworkWeights, props: IntrinsicProperties) -> "GradientSet":
        return cls(np.zeros_like(weights.w_in), np.zeros_like(weights.w_rec),
                   np.zeros_like(weights.w_out), np.zeros_like(props.tau_d),
                   np.zeros_like(props.tau_s), np.zeros_like(props.theta))

    def add_(self, other: "GradientSet") -> "GradientSet":
        for name in _PARAM_NAMES:
            acc = getattr(self, "d_" + name)
            acc += getattr(other, "d_" + name)
        return self

    def check_finite(self) -> "GradientSet":
        for name in _PARAM_NAMES:
            if not np.all(np.isfinite(getattr(self, "d_" + name))):
                raise GradientError(name)
        return self


_PARAM_NAMES = ("w_in", "w_rec", "w_out", "tau_d", "tau_s", "theta")


@dataclass
class DifferentiationMode:
    mode: str = "surrogate"  # "surrogate" | "smooth"
    surrogate_width: float = 1.0

    def __post_init__(self):
        if self.mode not in ("surrogate", "smooth"):
            raise ValueError(f"unknown differentiation mode: {self.mode!r}")
        if self.surrogate_width <= 0:
            raise ValueError("surrogate_width must be positive")


def surrogate_spike_derivative(v, theta, width: float) -> np.ndarray:
    """Triangular pseudo-derivative: peak 1/width at threshold, support width."""
    return np.maximum(0.0, 1.0 - np.abs(np.asarray(v) - theta) / width) / width


def _spike_derivative(rec: TrialRecording, props: IntrinsicProperties,
                      mode: DifferentiationMode) -> np.ndarray:
    if mode.mode == "surrogate":
        return surrogate_spike_derivative(rec.v, props.theta, mode.surrogate_width)
    s = rec.spikes_internal
    return s * (1.0 - s) / mode.surrogate_width


def adjoint_trial(rec: TrialRecording, weights: NetworkWeights,
                  props: IntrinsicProperties, config: NetworkConfig,
                  mode: DifferentiationMode, g_readout: np.ndarray,
                  g_trace: np.ndarray,
                  lesion_mask: np.ndarray | None = None) -> GradientSet:
    """Backpropagate upstream gradients on the readout and trace histories.

    Returns parameter gradients for this trial only. The weight gradients
    are dense: ``task_gradients`` applies the branch masks, the regularizer
    terms and the learning-mask zeroing once per task.
    """
    t_steps, n = rec.v.shape
    d = config.n_dendrites
    tau_d, tau_s, theta = props.tau_d, props.tau_s, props.theta
    alpha = config.alpha
    s_int = rec.spikes_internal
    keep = np.ones(n) if lesion_mask is None else 1.0 - np.asarray(lesion_mask, float)

    # Replayed quantities. v_post is the post-reset potential of each step;
    # prepending the initial state aligns index t with "previous step".
    v_post = rec.v + (config.v_reset - rec.v) * s_int
    v_post_prev = np.vstack([np.full((1, n), config.v_reset), v_post[:-1]])
    trace_prev = np.vstack([np.zeros((1, n)), rec.trace[:-1]])
    ds_dv = _spike_derivative(rec, props, mode)
    reset_diff = mode.mode == "smooth"

    grads = GradientSet.zeros_like(weights, props)
    gm_from_readout = g_readout @ weights.w_out  # [T, n]
    grads.d_w_out += g_readout.T @ rec.trace

    if d > 0:
        v_d_prev = np.concatenate([np.zeros((1, n, d)), rec.v_d[:-1]], axis=0)
        # branch drive replay, [T, n, D]
        b_all = (np.einsum("dni,ti->tnd", weights.w_in, rec.inputs)
                 + np.einsum("dna,ta->tnd", weights.w_rec, trace_prev))
        drive_all = rec.v_d.sum(axis=2)
        w_rec_t = weights.w_rec.reshape(d * n, n)  # rows ordered (branch, neuron)
        g_b_all = np.zeros((t_steps, n, d))
    else:
        drive_all = (rec.inputs @ weights.w_in.T) + trace_prev @ weights.w_rec.T
        g_drive_all = np.zeros((t_steps, n))

    c_v_post = np.zeros(n)
    c_v_d = np.zeros((n, d))
    c_trace = np.zeros(n)
    c_spike = np.zeros(n)

    for t in range(t_steps - 1, -1, -1):
        g_vp = c_v_post
        g_m = gm_from_readout[t] + g_trace[t] + c_trace
        g_s = keep * c_spike
        if reset_diff:
            g_s = g_s + (config.v_reset - rec.v[t]) * g_vp
        spike_term = g_s * ds_dv[t]
        g_v = g_vp * (1.0 - s_int[t]) + spike_term
        grads.d_theta -= spike_term
        grads.d_tau_s += g_v * (v_post_prev[t] - drive_all[t])
        g_drive = g_v * (1.0 - tau_s)
        c_v_post = g_v * tau_s
        if d > 0:
            g_vd = c_v_d + g_drive[:, None]
            grads.d_tau_d += g_vd * (v_d_prev[t] - b_all[t])
            g_b = g_vd * (1.0 - tau_d)
            g_b_all[t] = g_b
            c_v_d = g_vd * tau_d
            c_trace = alpha * g_m + w_rec_t.T @ g_b.T.reshape(-1)
        else:
            g_drive_all[t] = g_drive
            c_trace = alpha * g_m + weights.w_rec.T @ g_drive
        c_spike = (1.0 - alpha) * g_m

    # Weight gradients batched over time (the loop only stored coefficients).
    if d > 0:
        grads.d_w_in += np.einsum("tnd,ti->dni", g_b_all, rec.inputs)
        grads.d_w_rec += np.einsum("tnd,ta->dna", g_b_all, trace_prev)
    else:
        grads.d_w_in += g_drive_all.T @ rec.inputs
        grads.d_w_rec += g_drive_all.T @ trace_prev
    return grads


def _reg_count(w: np.ndarray) -> int:
    # Branch-exclusive tensors have one real entry per (neuron, afferent)
    # pair; the structural zeros are not counted.
    return w.shape[-2] * w.shape[-1] if w.ndim == 3 else w.size


def task_loss(recordings: list[TrialRecording], task, weights: NetworkWeights,
              loss_weights: objective.LossWeights, sigma_h_sq: float,
              trial_reduction: str = "mean") -> objective.LossBreakdown:
    """Composite loss over a task's recorded trials."""
    if trial_reduction not in ("mean", "sum"):
        raise ValueError("trial_reduction must be 'mean' or 'sum'")
    scale = 1.0 / len(recordings) if trial_reduction == "mean" else 1.0
    base = 0.0
    for rec, trial in zip(recordings, task.trials):
        base += scale * objective.base_loss(
            rec.readout, trial.targets, task.spec.loss_kind,
            schedule=task.schedule, label=trial.label)
    traces = np.stack([rec.trace for rec in recordings])
    homeo = objective.homeostatic_loss(
        traces, objective.HomeostaticTarget(sigma_h_sq))
    reg_in = objective.weight_regularizer(weights.w_in, _reg_count(weights.w_in))
    reg_rec = objective.weight_regularizer(weights.w_rec, _reg_count(weights.w_rec))
    reg_out = objective.weight_regularizer(weights.w_out)
    return objective.total_loss(base, homeo, reg_in, reg_rec, reg_out, loss_weights)


def task_gradients(recordings: list[TrialRecording], task,
                   weights: NetworkWeights, props: IntrinsicProperties,
                   config: NetworkConfig, mode: DifferentiationMode,
                   loss_weights: objective.LossWeights, sigma_h_sq: float,
                   trial_reduction: str = "mean", learning_mask=None,
                   lesion_mask: np.ndarray | None = None,
                   ) -> tuple[objective.LossBreakdown, GradientSet]:
    """Loss breakdown and gradients of the composite loss over one task.

    The weight gradients are masked to the branch-exclusive layout.
    ``learning_mask`` (a 3-bit plasticity mask) zeroes the gradients of the
    property groups it marks fixed.
    """
    breakdown = task_loss(recordings, task, weights, loss_weights,
                          sigma_h_sq, trial_reduction)
    n_trials = len(recordings)
    scale = 1.0 / n_trials if trial_reduction == "mean" else 1.0

    # Homeostatic upstream gradient: d|A - target|/dM with A pooled over
    # trials, steps, and units; subgradient 0 exactly at the target.
    pooled = n_trials * recordings[0].trace.size
    mean_sq = objective.hidden_mean_square([r.trace for r in recordings])
    sign = np.sign(mean_sq - sigma_h_sq)
    homeo_coeff = loss_weights.lambda_h * sign * 2.0 / pooled

    total = GradientSet.zeros_like(weights, props)
    for rec, trial in zip(recordings, task.trials):
        _, g_y = objective.base_loss_grad(
            rec.readout, trial.targets, task.spec.loss_kind,
            schedule=task.schedule, label=trial.label)
        g_y = g_y * scale
        g_trace = homeo_coeff * rec.trace
        total.add_(adjoint_trial(rec, weights, props, config, mode,
                                 g_y, g_trace, lesion_mask=lesion_mask))

    total.d_w_in += loss_weights.lambda_in * 2.0 * weights.w_in / _reg_count(weights.w_in)
    total.d_w_rec += loss_weights.lambda_rec * 2.0 * weights.w_rec / _reg_count(weights.w_rec)
    total.d_w_out += loss_weights.lambda_out * 2.0 * weights.w_out / weights.w_out.size
    if weights.mask_in is not None:
        total.d_w_in *= weights.mask_in
        total.d_w_rec *= weights.mask_rec
    if learning_mask is not None:
        m1, m2, m3 = learning_mask.as_tuple()
        if not m1:
            total.d_tau_d[...] = 0.0
        if not m2:
            total.d_tau_s[...] = 0.0
        if not m3:
            total.d_theta[...] = 0.0
    return breakdown, total.check_finite()


def finite_difference_oracle(loss_fn, params: dict[str, np.ndarray],
                             h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradients, one coordinate at a time.

    ``loss_fn`` receives the (perturbed) parameter dict and must evaluate
    the loss deterministically, re-seeding any noise internally so both
    sides of each difference see identical draws.
    """
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn(params)
            p[idx] = orig - h
            down = loss_fn(params)
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


@dataclass
class AdamState:
    """Adam with bias correction; moments are kept per parameter group."""

    lr: float = 0.01
    beta1: float = 0.1
    beta2: float = 0.3
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")

    def tick(self) -> None:
        self.step_count += 1

    def step(self, name: str, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Return the updated parameter; moments keyed by group name."""
        if self.step_count < 1:
            raise RuntimeError("tick() must run before the first update")
        if name not in self.m:
            self.m[name] = np.zeros_like(param)
            self.v[name] = np.zeros_like(param)
        m = self.m[name]
        v = self.v[name]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad ** 2
        m_hat = m / (1.0 - self.beta1 ** self.step_count)
        v_hat = v / (1.0 - self.beta2 ** self.step_count)
        return param - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
