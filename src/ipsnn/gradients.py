"""Reverse-mode differentiation through the unrolled spiking dynamics.

The adjoint loop runs the recursion backwards in time and stores each step's
coefficients; the parameter gradients are reduced from them after it. Two modes:

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

``task_loss`` sums the terms of :mod:`ipsnn.objective` over a task's trials;
``task_gradients`` differentiates them with the same definitions
(``base_loss_grad``, ``weight_entry_count``) and zeroes the property groups
(``GROUP_NAMES``) that the learning mask fixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import objective
from .core import (GROUP_NAMES, IntrinsicProperties, NetworkConfig, NetworkWeights,
                   TrialRecording)


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


_WEIGHT_NAMES = ("w_in", "w_rec", "w_out")
_PARAM_NAMES = _WEIGHT_NAMES + GROUP_NAMES


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


def adjoint_trial(rec: TrialRecording, weights: NetworkWeights,
                  props: IntrinsicProperties, config: NetworkConfig,
                  mode: DifferentiationMode, g_readout: np.ndarray,
                  g_trace: np.ndarray,
                  lesion_mask: np.ndarray | None = None) -> GradientSet:
    """Backpropagate upstream gradients on the readout and trace histories.

    Returns parameter gradients for this trial only. The weight gradients
    are dense: ``task_gradients`` applies the branch masks, the regularizer
    terms and the learning-mask zeroing once per task.

    The reverse loop carries the state adjoints and stores each step's
    coefficients; after it, the property gradients are sums of those
    coefficients over time, and ``d_w_in`` / ``d_w_rec`` are two products
    on the [T, D*n] synaptic coefficients (rows ordered branch, neuron).
    """
    t_steps, n = rec.v.shape
    d, alpha = config.n_dendrites, config.alpha
    tau_s, leak_s = props.tau_s, 1.0 - props.tau_s
    tau_d, leak_d = props.tau_d.T, 1.0 - props.tau_d.T  # [D, n], as the drive rows
    # a silenced neuron's emitted spikes are zero, so they pass no gradient
    spike_gain = (1.0 - alpha) * (1.0 if lesion_mask is None
                                  else 1.0 - np.asarray(lesion_mask, float))

    # Replayed quantities. v_post is the post-reset potential of each step;
    # prepending the initial state aligns index t with "previous step".
    s_int = rec.spikes_internal
    reset_gap = config.v_reset - rec.v
    v_post = rec.v + reset_gap * s_int
    v_post_prev = np.vstack([np.full((1, n), config.v_reset), v_post[:-1]])
    trace_prev = np.vstack([np.zeros((1, n)), rec.trace[:-1]])
    no_spike = 1.0 - s_int
    reset_diff = mode.mode == "smooth"
    ds_dv = (s_int * no_spike / mode.surrogate_width if reset_diff else
             surrogate_spike_derivative(rec.v, props.theta, mode.surrogate_width))
    w_rec = weights.w_rec.reshape(-1, n)
    syn = (rec.inputs @ weights.w_in.reshape(-1, weights.in_dim).T
           + trace_prev @ w_rec.T)  # synaptic drive replay, [T, D*n]
    g_m_all = g_readout @ weights.w_out + g_trace

    g_syn = np.empty_like(syn)
    g_v_all, spike_terms = np.empty((2, t_steps, n))
    if d > 0:
        g_vd_all = np.empty((t_steps, d, n))
        g_b_all = g_syn.reshape(t_steps, d, n)
    c_v_post = c_trace = c_spike = np.zeros(n)  # replaced, never written in place
    c_v_d = np.zeros((d, n))

    for t in range(t_steps - 1, -1, -1):
        g_m = g_m_all[t] + c_trace
        g_s = c_spike + reset_gap[t] * c_v_post if reset_diff else c_spike
        spike_term = spike_terms[t] = g_s * ds_dv[t]
        g_v = g_v_all[t] = c_v_post * no_spike[t] + spike_term
        g_drive = g_v * leak_s
        c_v_post = g_v * tau_s
        if d > 0:
            g_vd = g_vd_all[t] = c_v_d + g_drive
            np.multiply(g_vd, leak_d, out=g_b_all[t])
            c_v_d = g_vd * tau_d
        else:
            g_syn[t] = g_drive
        c_trace = alpha * g_m + w_rec.T @ g_syn[t]
        c_spike = spike_gain * g_m

    if d > 0:
        drive = rec.v_d.sum(axis=2)
        v_d_prev = np.concatenate([np.zeros((1, d, n)),
                                   rec.v_d[:-1].transpose(0, 2, 1)])
        d_tau_d = (g_vd_all * (v_d_prev - syn.reshape(t_steps, d, n))).sum(axis=0).T
    else:
        drive, d_tau_d = syn, np.zeros_like(props.tau_d)
    return GradientSet(
        d_w_in=(g_syn.T @ rec.inputs).reshape(weights.w_in.shape),
        d_w_rec=(g_syn.T @ trace_prev).reshape(weights.w_rec.shape),
        d_w_out=g_readout.T @ rec.trace,
        d_tau_d=d_tau_d,
        d_tau_s=(g_v_all * (v_post_prev - drive)).sum(axis=0),
        d_theta=-spike_terms.sum(axis=0))


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
    homeo = objective.homeostatic_loss(traces, sigma_h_sq)
    reg_in = objective.weight_regularizer(weights.w_in)
    reg_rec = objective.weight_regularizer(weights.w_rec)
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

    total = None
    for rec, trial in zip(recordings, task.trials):
        _, g_y = objective.base_loss_grad(
            rec.readout, trial.targets, task.spec.loss_kind,
            schedule=task.schedule, label=trial.label)
        grads = adjoint_trial(rec, weights, props, config, mode, g_y * scale,
                              homeo_coeff * rec.trace, lesion_mask=lesion_mask)
        total = grads if total is None else total.add_(grads)

    lambdas = (loss_weights.lambda_in, loss_weights.lambda_rec, loss_weights.lambda_out)
    for name, lam in zip(_WEIGHT_NAMES, lambdas):
        w, g = getattr(weights, name), getattr(total, "d_" + name)
        g += lam * 2.0 * w / objective.weight_entry_count(w)
    if weights.mask_in is not None:
        total.d_w_in *= weights.mask_in
        total.d_w_rec *= weights.mask_rec
    if learning_mask is not None:
        for group, bit in zip(GROUP_NAMES, learning_mask.as_tuple()):
            if not bit:
                getattr(total, "d_" + group)[...] = 0.0
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
