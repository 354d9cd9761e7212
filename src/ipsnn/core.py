"""Discrete-time recurrent spiking network with per-neuron intrinsic properties.

The simulator is a deterministic, replayable state machine over fixed
timesteps. Each neuron carries three intrinsic properties: dendritic decay
factors (one per branch), a somatic decay factor, and a firing threshold.
Afferents are assigned branch-exclusively to dendrites, so summing branch
potentials with zero dendritic decay collapses exactly to the point-soma
update (``n_dendrites=0``).

Update order within one step is fixed:

    noise -> dendrites -> soma -> spike/reset -> trace -> readout

where the trace update consumes the *previous* step's spikes, matching the
(t-1) indices of the underlying recursions:

    N(t)   = (1 - a_n) N(t-1) + sqrt(2 a_n) A z(t)
    Vd(t)  = tau_d Vd(t-1) + (1 - tau_d) (W_in,d x(t) + W_rec,d M(t-1))
    V(t)   = tau_s V(t-1) + (1 - tau_s) drive(t) + N(t)
    S(t)   = 1[V(t) >= theta],  reset V -> v_reset where S(t) = 1
    M(t)   = alpha M(t-1) + (1 - alpha) S(t-1)
    y(t)   = W_out M(t)

The noise term is added outside the (1 - tau_s) factor. A trial starts
from V = v_reset with every other state variable at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class NetworkConfig:
    """Static simulation parameters for one network."""

    n_neurons: int
    n_dendrites: int = 2
    dt_ms: float = 10.0
    alpha: float = 0.01
    alpha_noise: float = 0.5
    a_noise: float = 0.05
    v_reset: float = 0.0
    noise_enabled: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_neurons < 1:
            raise ValueError("n_neurons must be positive")
        if self.n_dendrites < 0:
            raise ValueError("n_dendrites must be >= 0")
        if not self.dt_ms > 0:
            raise ValueError("dt_ms must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 < self.alpha_noise <= 1.0:
            raise ValueError("alpha_noise must lie in (0, 1]")
        if self.a_noise < 0:
            raise ValueError("a_noise must be >= 0")

    @property
    def dendritic(self) -> bool:
        return self.n_dendrites > 0


@dataclass
class NetworkWeights:
    """Synaptic weights, with branch-exclusive masks in dendritic mode.

    Dendritic mode: ``w_in`` is [D, n, in_dim], ``w_rec`` is [D, n, n], and
    ``mask_in`` / ``mask_rec`` are binary tensors of the same shapes with
    exactly one active branch per (neuron, afferent) pair. Point mode:
    ``w_in`` is [n, in_dim], ``w_rec`` is [n, n], masks are None.
    ``w_out`` is [out_dim, n] in both modes.
    """

    w_in: np.ndarray
    w_rec: np.ndarray
    w_out: np.ndarray
    mask_in: np.ndarray | None = None
    mask_rec: np.ndarray | None = None

    @property
    def n_dendrites(self) -> int:
        return self.w_in.shape[0] if self.w_in.ndim == 3 else 0

    @property
    def in_dim(self) -> int:
        return self.w_in.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.w_out.shape[0]

    def validate(self) -> None:
        if self.w_in.ndim == 3:
            if self.mask_in is None or self.mask_rec is None:
                raise ValueError("dendritic weights require branch masks")
            for w, m, name in ((self.w_in, self.mask_in, "w_in"),
                               (self.w_rec, self.mask_rec, "w_rec")):
                if w.shape != m.shape:
                    raise ValueError(f"{name}: weight/mask shape mismatch")
                per_pair = m.sum(axis=0)
                if not np.all(per_pair == 1.0):
                    raise ValueError(f"{name}: each afferent must sit on exactly one branch")
                if np.any(w * (1.0 - m) != 0.0):
                    raise ValueError(f"{name}: weight present on a masked-out branch")
        elif self.w_in.ndim != 2:
            raise ValueError("w_in must be 2-D (point) or 3-D (dendritic)")
        n = self.w_in.shape[-2]
        if self.w_rec.shape[-2:] != (n, n):
            raise ValueError("w_rec must be square over neurons")
        if self.w_out.shape[1] != n:
            raise ValueError("w_out columns must match n_neurons")


# The three plastic property groups, in learning-mask bit order.
GROUP_NAMES = ("tau_d", "tau_s", "theta")


@dataclass
class IntrinsicProperties:
    """Per-neuron excitability parameters: the three plastic property groups."""

    tau_d: np.ndarray  # [n, D] dendritic decay factors, in [0, 1]
    tau_s: np.ndarray  # [n] somatic decay factors, in [0, 1]
    theta: np.ndarray  # [n] firing thresholds

    def validate(self) -> None:
        if np.any(self.tau_d < 0) or np.any(self.tau_d > 1):
            raise ValueError("tau_d out of [0, 1]")
        if np.any(self.tau_s < 0) or np.any(self.tau_s > 1):
            raise ValueError("tau_s out of [0, 1]")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta must be finite")


@dataclass
class TrialRecording:
    """Per-timestep history of one trial, indexed t = 0..T-1 for steps 1..T.

    ``v`` holds the pre-reset membrane potential of each step (the value the
    threshold saw); the post-reset potential is recomputable from ``v`` and
    ``spikes_internal``. ``spikes`` are the emitted spikes (zero for silenced
    neurons), ``spikes_internal`` the threshold crossings that drive the
    reset. The noise term is not stored: it enters the soma outside the
    leak factor, so the adjoint pass needs only ``v`` and the drive.
    """

    inputs: np.ndarray            # [T, in_dim]
    v: np.ndarray                 # [T, n]
    v_d: np.ndarray               # [T, n, D]
    spikes: np.ndarray            # [T, n]
    spikes_internal: np.ndarray   # [T, n]
    trace: np.ndarray             # [T, n]
    readout: np.ndarray           # [T, out_dim]

    @property
    def n_steps(self) -> int:
        return self.v.shape[0]


def init_weights(config: NetworkConfig, in_dim: int, out_dim: int, seed,
                 gain_in: float = 1.0, gain_rec: float = 1.0,
                 gain_out: float = 1.0) -> NetworkWeights:
    """Seeded Gaussian initialization, N(0, gain/sqrt(fan_in)) per matrix.

    In dendritic mode each afferent connection is assigned uniformly at
    random to exactly one branch; the surviving weight is drawn from the same
    distribution as in point mode, so the collapsed dense matrix sum_d W_d is
    identically distributed in both modes.
    """
    rng = np.random.default_rng(seed)
    n, d = config.n_neurons, config.n_dendrites
    dense_in = rng.normal(0.0, gain_in / np.sqrt(in_dim), size=(n, in_dim))
    dense_rec = rng.normal(0.0, gain_rec / np.sqrt(n), size=(n, n))
    w_out = rng.normal(0.0, gain_out / np.sqrt(n), size=(out_dim, n))
    if d == 0:
        return NetworkWeights(dense_in, dense_rec, w_out)
    mask_in = _branch_assignment(rng, d, n, in_dim)
    mask_rec = _branch_assignment(rng, d, n, n)
    return NetworkWeights(dense_in * mask_in, dense_rec * mask_rec, w_out,
                          mask_in, mask_rec)


def _branch_assignment(rng: np.random.Generator, d: int, n: int, n_aff: int) -> np.ndarray:
    branch = rng.integers(0, d, size=(n, n_aff))
    mask = np.zeros((d, n, n_aff), dtype=np.float64)
    for k in range(d):
        mask[k] = branch == k
    return mask


def noise_step(noise: np.ndarray, z: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """One update of the OU noise state given standard-normal draws ``z``."""
    c = np.sqrt(2.0 * config.alpha_noise) * config.a_noise
    return (1.0 - config.alpha_noise) * noise + c * z


def noise_sequence(z: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """The OU noise state after each of the draws ``z[0], z[1], ...``,
    starting from zero."""
    out = np.empty_like(z)
    state = np.zeros(z.shape[1:])
    for t in range(len(z)):
        state = out[t] = noise_step(state, z[t], config)
    return out


def forward_trial(weights: NetworkWeights, props: IntrinsicProperties,
                  config: NetworkConfig, input_trial: np.ndarray,
                  rng: np.random.Generator | None = None,
                  *, spike_mode: str = "hard", smooth_width: float = 1.0,
                  lesion_mask: np.ndarray | None = None,
                  noise_values: np.ndarray | None = None) -> TrialRecording:
    """Run one trial from a fresh state and record the full history.

    Noise draws come from ``rng`` when ``config.noise_enabled`` (or from
    ``noise_values``, which takes precedence and pins them for replay); with
    neither, the noise term is zero. ``spike_mode="smooth"`` replaces the
    hard threshold by a sigmoid of matching width and differentiates the
    reset, producing the smoothed system used for gradient verification.
    ``lesion_mask`` (boolean, True = silenced) clamps emitted spikes to zero
    while membrane dynamics, including the reset, keep running.

    Products that do not depend on the recurrence run once per trial: the
    input drive of all steps ([T, D*n], rows ordered branch, neuron) and the
    readout, each a stack of the per-step matrix-vector products (same
    rounding), so a step computes only the recurrent input.
    """
    if spike_mode not in ("hard", "smooth"):
        raise ValueError(f"unknown spike_mode: {spike_mode!r}")
    x = np.asarray(input_trial, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != weights.in_dim:
        raise ValueError(
            f"input trial must be [T, {weights.in_dim}], got {x.shape}")
    n, d, t_steps = config.n_neurons, config.n_dendrites, x.shape[0]
    if weights.w_rec.shape[-1] != n or weights.n_dendrites != d:
        raise ValueError("weights do not match config.n_neurons and n_dendrites")
    keep = None
    if lesion_mask is not None:
        keep = ~np.asarray(lesion_mask, bool)
        if keep.shape != (n,):
            raise ValueError("lesion_mask must be [n_neurons]")

    if noise_values is not None:
        noise = np.asarray(noise_values, dtype=np.float64)
        if noise.shape != (t_steps, n):
            raise ValueError("noise_values must be [T, n_neurons]")
    elif config.noise_enabled and rng is not None:
        noise = noise_sequence(rng.standard_normal((t_steps, n)), config)
    else:
        noise = np.zeros((t_steps, n))

    syn_in = np.matmul(weights.w_in.reshape(-1, weights.in_dim), x[:, :, None])[..., 0]
    w_rec = weights.w_rec.reshape(-1, n)
    tau_d, leak_d = props.tau_d.T, 1.0 - props.tau_d.T  # [D, n], as the drive rows
    tau_s, leak_s = props.tau_s, 1.0 - props.tau_s

    v_hist, spikes_hist, internal_hist, trace_hist = np.empty((4, t_steps, n))
    v_d_hist = np.empty((t_steps, n, d))
    v_post = np.full(n, config.v_reset, dtype=np.float64)
    v_d = np.zeros((d, n))
    trace = spikes_prev = np.zeros(n)  # replaced, never written in place
    for t in range(t_steps):
        drive = syn_in[t] + w_rec @ trace
        if d > 0:
            v_d = tau_d * v_d + leak_d * drive.reshape(d, n)
            v_d_hist[t] = v_d.T
            drive = v_d.sum(axis=0)
        v_pre = tau_s * v_post + leak_s * drive + noise[t]
        if spike_mode == "hard":  # inclusive threshold; crossing neurons reset
            spikes = (v_pre >= props.theta).astype(np.float64)
            v_post = np.where(spikes > 0, config.v_reset, v_pre)
        else:
            spikes = 1.0 / (1.0 + np.exp(-(v_pre - props.theta) / smooth_width))
            v_post = v_pre + (config.v_reset - v_pre) * spikes
        emitted = spikes if keep is None else spikes * keep
        trace = config.alpha * trace + (1.0 - config.alpha) * spikes_prev
        spikes_prev = emitted
        v_hist[t] = v_pre
        spikes_hist[t] = emitted
        internal_hist[t] = spikes
        trace_hist[t] = trace
    readout = np.matmul(weights.w_out, trace_hist[:, :, None])[..., 0]
    return TrialRecording(inputs=x, v=v_hist, v_d=v_d_hist, spikes=spikes_hist,
                          spikes_internal=internal_hist, trace=trace_hist,
                          readout=readout)
