"""Composite task loss: base error, homeostatic pressure, weight penalties.

The base term is MSE for the recall families and, for the choice families,
response-period softmax cross-entropy on the decision channels plus MSE
supervision of the fixation channel during stimulus+delay. The homeostatic
term presses the mean squared hidden activity (the spike trace) toward a
target ``sigma_h_sq`` that is re-anchored to the previous task's converged
activity. The weight penalties are mean squares over each tensor's real
entries (``weight_entry_count``). Each term is defined once: ``base_loss``
and ``base_loss_grad`` share one body, ``_base_terms``.
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
class LossBreakdown:
    base: float
    homeostatic: float
    reg_in: float
    reg_rec: float
    reg_out: float
    total: float


def _base_terms(readout_seq, targets, kind: str, schedule,
                label: int | None) -> tuple[np.ndarray, np.ndarray, float, int | None]:
    """Validated (readout, target) pair, the base loss, and the step where
    the response period starts (None for MSE, which pools every step)."""
    y = np.asarray(readout_seq, dtype=np.float64)
    tgt = np.asarray(targets, dtype=np.float64)
    if kind not in ("MSE", "CE"):
        raise ValueError(f"unknown loss kind: {kind!r}")
    if y.shape != tgt.shape:
        raise ValueError(f"readout {y.shape} vs target {tgt.shape}")
    if kind == "MSE":
        return y, tgt, float(np.mean((y - tgt) ** 2)), None
    if schedule is None or label is None:
        raise ValueError("CE loss needs a period schedule and a class label")
    sd = schedule.response_start
    logits = y[sd:, 1:]
    ce = np.mean(_log_sum_exp(logits) - logits[:, label])
    fix = np.mean((y[:sd, 0] - tgt[:sd, 0]) ** 2)
    return y, tgt, float(ce + fix), sd


def base_loss(readout_seq, targets, kind: str, schedule=None,
              label: int | None = None) -> float:
    """Base discrepancy for one trial.

    ``kind="MSE"``: mean squared error over all timesteps and channels.
    ``kind="CE"``: softmax cross-entropy of the response channels (1..C-1,
    channel 0 is fixation) against ``label``, averaged over response-period
    steps, plus MSE on the fixation channel over stimulus+delay; requires
    ``schedule`` and ``label``. Readout and target shapes must agree.
    """
    return _base_terms(readout_seq, targets, kind, schedule, label)[2]


def base_loss_grad(readout_seq, targets, kind: str, schedule=None,
                   label: int | None = None) -> tuple[float, np.ndarray]:
    """Base loss and its gradient with respect to the readout sequence."""
    y, tgt, loss, sd = _base_terms(readout_seq, targets, kind, schedule, label)
    if sd is None:
        return loss, 2.0 * (y - tgt) / y.size
    g = np.zeros_like(y)
    logits = y[sd:, 1:]
    n_resp = logits.shape[0]
    g[sd:, 1:] = _softmax(logits) / n_resp
    g[sd:, 1 + label] -= 1.0 / n_resp
    g[:sd, 0] = 2.0 * (y[:sd, 0] - tgt[:sd, 0]) / sd
    return loss, g


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


def homeostatic_loss(hidden_activity, sigma_h_sq: float) -> float:
    """|mean(h^2) - sigma_h_sq|, pooled over units and timesteps.

    ``sigma_h_sq`` is the target mean squared activity: zero before the
    first task, then the previous task's converged value.
    """
    if sigma_h_sq < 0:
        raise ValueError("sigma_h_sq must be >= 0")
    return abs(hidden_mean_square(hidden_activity) - sigma_h_sq)


def weight_entry_count(w: np.ndarray) -> int:
    """Entries a weight penalty averages over. A branch-exclusive [D, n, m]
    tensor has one real entry per (neuron, afferent) pair; its structural
    zeros are not counted."""
    return w.shape[-2] * w.shape[-1] if w.ndim == 3 else w.size


def weight_regularizer(w) -> float:
    """Mean of squared entries over ``weight_entry_count(w)``."""
    w = np.asarray(w, dtype=np.float64)
    return float(np.sum(w ** 2) / weight_entry_count(w))


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
