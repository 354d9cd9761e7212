"""Composite task loss: base error, homeostatic pressure, weight penalties.

The base term is MSE for the recall families and, for the choice families,
response-period softmax cross-entropy on the decision channels plus MSE
supervision of the fixation channel during stimulus+delay. The homeostatic
term presses the mean squared hidden activity (the spike trace) toward a
target that is re-anchored to the previous task's converged activity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LossWeights:
    """Coefficients of the four auxiliary loss components."""

    lambda_h: float = 0.0005
    lambda_in: float = 0.001
    lambda_rec: float = 0.0001
    lambda_out: float = 0.1

    def __post_init__(self):
        for name in ("lambda_h", "lambda_in", "lambda_rec", "lambda_out"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class HomeostaticTarget:
    """Target mean squared hidden activation; zero before the first task."""

    sigma_h_sq: float = 0.0

    def __post_init__(self):
        if self.sigma_h_sq < 0:
            raise ValueError("sigma_h_sq must be >= 0")


@dataclass
class LossBreakdown:
    base: float
    homeostatic: float
    reg_in: float
    reg_rec: float
    reg_out: float
    total: float


def base_loss(readout_seq, targets, kind: str, schedule=None,
              label: int | None = None) -> float:
    """Base discrepancy for one trial.

    ``kind="MSE"``: mean squared error over all timesteps and channels.
    ``kind="CE"``: softmax cross-entropy of the response channels (1..C-1,
    channel 0 is fixation) against ``label``, averaged over response-period
    steps, plus MSE on the fixation channel over stimulus+delay; requires
    ``schedule`` and ``label``.
    """
    y = np.asarray(readout_seq, dtype=np.float64)
    tgt = np.asarray(targets, dtype=np.float64)
    if kind == "MSE":
        if y.shape != tgt.shape:
            raise ValueError(f"readout {y.shape} vs target {tgt.shape}")
        return float(np.mean((y - tgt) ** 2))
    if kind == "CE":
        if schedule is None or label is None:
            raise ValueError("CE loss needs a period schedule and a class label")
        sd = schedule.stimulus_steps + schedule.delay_steps
        logits = y[sd:, 1:]
        ce = np.mean(_log_sum_exp(logits) - logits[:, label])
        fix = np.mean((y[:sd, 0] - tgt[:sd, 0]) ** 2)
        return float(ce + fix)
    raise ValueError(f"unknown loss kind: {kind!r}")


def base_loss_grad(readout_seq, targets, kind: str, schedule=None,
                   label: int | None = None) -> tuple[float, np.ndarray]:
    """Base loss and its gradient with respect to the readout sequence."""
    y = np.asarray(readout_seq, dtype=np.float64)
    tgt = np.asarray(targets, dtype=np.float64)
    g = np.zeros_like(y)
    if kind == "MSE":
        g[...] = 2.0 * (y - tgt) / y.size
        return float(np.mean((y - tgt) ** 2)), g
    if kind == "CE":
        if schedule is None or label is None:
            raise ValueError("CE loss needs a period schedule and a class label")
        sd = schedule.stimulus_steps + schedule.delay_steps
        logits = y[sd:, 1:]
        n_resp = logits.shape[0]
        p = _softmax(logits)
        loss_ce = np.mean(_log_sum_exp(logits) - logits[:, label])
        g[sd:, 1:] = p / n_resp
        g[sd:, 1 + label] -= 1.0 / n_resp
        n_sd = sd
        g[:sd, 0] = 2.0 * (y[:sd, 0] - tgt[:sd, 0]) / n_sd
        loss_fix = np.mean((y[:sd, 0] - tgt[:sd, 0]) ** 2)
        return float(loss_ce + loss_fix), g
    raise ValueError(f"unknown loss kind: {kind!r}")


def _log_sum_exp(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(logits - m), axis=1, keepdims=True)))[:, 0]


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def hidden_mean_square(hidden_activity) -> float:
    """Mean squared hidden activity pooled over every axis (units, steps, trials)."""
    h = np.asarray(hidden_activity, dtype=np.float64)
    return float(np.mean(h ** 2))


def homeostatic_loss(hidden_activity, target: HomeostaticTarget) -> float:
    """|mean(h^2) - target|, pooled over units and timesteps."""
    return abs(hidden_mean_square(hidden_activity) - target.sigma_h_sq)


def weight_regularizer(w, count: int | None = None) -> float:
    """Mean of squared entries; ``count`` overrides the divisor for tensors
    whose branch-exclusive zeros are structural rather than real entries."""
    w = np.asarray(w, dtype=np.float64)
    denom = w.size if count is None else count
    return float(np.sum(w ** 2) / denom)


def total_loss(base: float, homeostatic: float, reg_in: float, reg_rec: float,
               reg_out: float, weights: LossWeights) -> LossBreakdown:
    """Assemble the composite loss from its already-computed components."""
    total = (base
             + weights.lambda_h * homeostatic
             + weights.lambda_in * reg_in
             + weights.lambda_rec * reg_rec
             + weights.lambda_out * reg_out)
    return LossBreakdown(base=base, homeostatic=homeostatic, reg_in=reg_in,
                         reg_rec=reg_rec, reg_out=reg_out, total=total)
