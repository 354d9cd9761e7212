"""Correctness checks on a run directory, computed apart from the program.

Every check returns a list of problems; an empty list is a pass. None of
them compares against a saved copy of earlier output: each replays or
recomputes the result independently, or tests a property the method must
have. The ``check_*`` functions take plain arrays so a test can feed them a
corrupted input; the ``*_dir`` functions gather those arrays from a run.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from ipsnn import harness, tensorio
from ipsnn.core import IntrinsicProperties, NetworkWeights, forward_trial
from ipsnn.gradients import DifferentiationMode, task_gradients, task_loss
from ipsnn.harness import ExperimentConfig
from ipsnn.tasks import PeriodSchedule, generate_task

GROUPS = ("tau_d", "tau_s", "theta")
REC_KEYS = ("v", "spikes", "trace", "readout")


# ---------------------------------------------------------------------------
# forward replay


def replay_trial(w_in, w_rec, w_out, tau_d, tau_s, theta, inputs,
                 alpha: float, v_reset: float) -> dict:
    """Noiseless dendritic network, stepped with plain numpy.

    Vd = tau_d Vd + (1 - tau_d)(W_in,d x + W_rec,d M_prev); V = tau_s V +
    (1 - tau_s) sum_d Vd; spike where V >= theta, then reset; the trace M
    takes the previous step's spikes; the readout is W_out M.
    """
    n_steps, n = len(inputs), w_rec.shape[-1]
    out = {k: [] for k in REC_KEYS}
    v = np.full(n, v_reset)
    v_d = np.zeros_like(tau_d)
    trace = np.zeros(n)
    spikes_prev = np.zeros(n)
    for t in range(n_steps):
        branch_in = (w_in @ inputs[t] + w_rec @ trace).T  # [n, D]
        v_d = tau_d * v_d + (1.0 - tau_d) * branch_in
        v_pre = tau_s * v + (1.0 - tau_s) * v_d.sum(axis=1)
        spikes = (v_pre >= theta).astype(float)
        v = np.where(spikes > 0, v_reset, v_pre)
        trace = alpha * trace + (1.0 - alpha) * spikes_prev
        spikes_prev = spikes
        for key, value in zip(REC_KEYS, (v_pre, spikes, trace, w_out @ trace)):
            out[key].append(value)
    return {k: np.array(v) for k, v in out.items()}


def check_replay(recorded: list[dict], replayed: list[dict]) -> list[str]:
    problems = []
    if len(recorded) != len(replayed):
        return [f"{len(recorded)} recorded trials, {len(replayed)} replayed"]
    for i, (rec, rep) in enumerate(zip(recorded, replayed)):
        for key in REC_KEYS:
            if rec[key].shape != rep[key].shape:
                problems.append(f"trial {i} {key}: shape {rec[key].shape} "
                                f"vs replay {rep[key].shape}")
            elif not np.allclose(rec[key], rep[key], rtol=1e-9, atol=1e-12):
                worst = float(np.max(np.abs(rec[key] - rep[key])))
                problems.append(f"trial {i} {key}: differs from replay by {worst:.3g}")
    return problems


def _checkpoint_path(run_dir: str, task_index: int) -> str:
    return os.path.join(run_dir, "checkpoints", f"task_{task_index:06d}.ckpt")


def _recording_path(run_dir: str, task_index: int) -> str:
    return os.path.join(run_dir, "recordings", f"task_{task_index:06d}.rec")


def _configured_props(ckpt) -> IntrinsicProperties:
    banks = [ckpt.learnable_bank if bit else ckpt.fixed_bank for bit in ckpt.mask_bits]
    return IntrinsicProperties(*(getattr(b, g) for b, g in zip(banks, GROUPS)))


def replay_dir(run_dir: str, config: ExperimentConfig) -> list[str]:
    """Replay the last task's noiseless eval pass from its checkpoint."""
    last = config.n_tasks - 1
    ckpt = tensorio.load_checkpoint(_checkpoint_path(run_dir, last))
    recorded, _ = tensorio.load_recording(_recording_path(run_dir, last))
    props = _configured_props(ckpt)
    task = generate_task(config.family, last, config.seed, config.dt_ms)
    w = ckpt.weights
    replayed = [replay_trial(w.w_in, w.w_rec, w.w_out, props.tau_d, props.tau_s,
                             props.theta, trial.inputs, config.alpha,
                             config.v_reset)
                for trial in task.trials]
    return check_replay(recorded, replayed)


# ---------------------------------------------------------------------------
# gradient check


def check_gradient(analytic, numeric, rtol: float = 1e-5) -> list[str]:
    problems = []
    for i, (a, f) in enumerate(zip(analytic, numeric)):
        if not (np.isfinite(a) and np.isfinite(f)):
            problems.append(f"direction {i}: non-finite ({a!r}, {f!r})")
        elif abs(a - f) > rtol * max(abs(a), abs(f), 1e-8):
            problems.append(f"direction {i}: backprop {a:.10g} vs "
                            f"finite difference {f:.10g}")
    return problems


def directional_derivatives(run_dir: str, config: ExperimentConfig,
                            n_dirs: int = 3, h: float = 1e-5, seed: int = 0):
    """Smooth-mode ``task_gradients`` on the last checkpoint's state against
    central differences along seeded random directions, noise pinned.

    Directions span the weights and the learnable property groups; a group
    the mask fixes has zero gradient by design and is left out.
    """
    last = config.n_tasks - 1
    state = harness.state_from_checkpoint(_checkpoint_path(run_dir, last), config)
    task = generate_task(config.family, last, config.seed, config.dt_ms)
    w, props, net = state.weights, state.configured.props, state.net
    rng = np.random.default_rng(seed)
    noise = [config.a_noise * rng.standard_normal((len(t.inputs), net.n_neurons))
             for t in task.trials]
    mode = DifferentiationMode("smooth", config.surrogate_width)
    lw = config.loss_weights()

    def loss(w_in, w_rec, w_out, tau_d, tau_s, theta, with_grads=False):
        weights = NetworkWeights(w_in, w_rec, w_out, w.mask_in, w.mask_rec)
        p = IntrinsicProperties(tau_d, tau_s, theta)
        recs = [forward_trial(weights, p, net, trial.inputs, spike_mode="smooth",
                              smooth_width=config.surrogate_width,
                              noise_values=z)
                for trial, z in zip(task.trials, noise)]
        if with_grads:
            return task_gradients(recs, task, weights, p, net, mode, lw,
                                  state.sigma_h_sq, config.trial_reduction,
                                  learning_mask=state.configured.mask)[1]
        return task_loss(recs, task, weights, lw, state.sigma_h_sq,
                         config.trial_reduction).total

    params = [w.w_in, w.w_rec, w.w_out, props.tau_d, props.tau_s, props.theta]
    grads = loss(*params, with_grads=True)
    grad_list = [grads.d_w_in, grads.d_w_rec, grads.d_w_out,
                 grads.d_tau_d, grads.d_tau_s, grads.d_theta]
    masks = [w.mask_in, w.mask_rec, np.ones_like(w.w_out)] + [
        np.full_like(p, bit, dtype=float)
        for p, bit in zip(params[3:], state.configured.mask.as_tuple())]
    analytic, numeric = [], []
    for _ in range(n_dirs):
        dirs = [rng.standard_normal(p.shape) * m for p, m in zip(params, masks)]
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in dirs))
        dirs = [d / norm for d in dirs]
        analytic.append(sum(float(np.sum(g * d)) for g, d in zip(grad_list, dirs)))
        up = loss(*(p + h * d for p, d in zip(params, dirs)))
        down = loss(*(p - h * d for p, d in zip(params, dirs)))
        numeric.append((up - down) / (2.0 * h))
    return analytic, numeric


# ---------------------------------------------------------------------------
# plasticity invariants


def check_plasticity(mask_bits, initial_banks, final_banks, weights) -> list[str]:
    """``*_banks`` are (learnable, fixed) IntrinsicProperties pairs.

    Only the learnable bank's groups that the mask marks learnable may move,
    and they must; decay factors stay in [0, 1]; weights sit only on the
    branch each afferent is assigned to.
    """
    problems = []
    for bank_name, before, after, can_move in (
            ("learnable", initial_banks[0], final_banks[0], True),
            ("fixed", initial_banks[1], final_banks[1], False)):
        for group, bit in zip(GROUPS, mask_bits):
            moved = not np.array_equal(getattr(before, group), getattr(after, group))
            should_move = can_move and bool(bit)
            if moved != should_move:
                problems.append(f"{bank_name} bank {group} "
                                f"{'moved' if moved else 'never moved'} "
                                f"under mask {tuple(mask_bits)}")
        for group in ("tau_d", "tau_s"):
            values = getattr(after, group)
            if values.min() < 0.0 or values.max() > 1.0:
                problems.append(f"{bank_name} bank {group} leaves [0, 1]")
    for name, w, m in (("w_in", weights.w_in, weights.mask_in),
                       ("w_rec", weights.w_rec, weights.mask_rec)):
        if not np.all(m.sum(axis=0) == 1.0):
            problems.append(f"{name}: an afferent is not on exactly one branch")
        if np.any(w * (1.0 - m) != 0.0):
            problems.append(f"{name}: weight on a masked-out branch")
    return problems


def plasticity_dir(run_dir: str, config: ExperimentConfig, family_mask) -> list[str]:
    ckpt = tensorio.load_checkpoint(_checkpoint_path(run_dir, config.n_tasks - 1))
    problems = []
    if tuple(ckpt.mask_bits) != tuple(family_mask):
        problems.append(f"mask {tuple(ckpt.mask_bits)} is not the family's "
                        f"{tuple(family_mask)}")
    start = harness.build_state(config).candidates
    return problems + check_plasticity(
        ckpt.mask_bits, (start.learnable_bank, start.fixed_bank),
        (ckpt.learnable_bank, ckpt.fixed_bank), ckpt.weights)


# ---------------------------------------------------------------------------
# learning-to-learn trend


def check_l2l_trend(final_losses) -> list[str]:
    """Mean final loss of the last quarter of tasks below the first quarter's."""
    losses = np.asarray(final_losses, dtype=float)
    if not np.all(np.isfinite(losses)):
        return ["non-finite final loss"]
    q = max(1, len(losses) // 4)
    first, last = losses[:q].mean(), losses[-q:].mean()
    if not last < first:
        return [f"last-quarter mean loss {last:.6g} is not below "
                f"first-quarter {first:.6g}"]
    return []


def read_csv(path: str) -> list[dict]:
    """Rows of a CSV table, skipping the ``# config_sha256`` stamp line."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def final_losses(run_dir: str) -> list[float]:
    return [float(r["final_loss"]) for r in read_csv(os.path.join(run_dir, "metrics.csv"))]


# ---------------------------------------------------------------------------
# modularity


def window_layers(v: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Pearson correlation per window; no edge for a constant series, none on
    the diagonal, negatives clipped to zero."""
    layers = []
    for start in range(0, len(v) - window + 1, stride):
        chunk = v[start:start + window]
        centered = chunk - chunk.mean(axis=0)
        sd = np.sqrt((centered ** 2).sum(axis=0))
        alive = chunk.std(axis=0) >= 1e-12
        a = np.zeros((v.shape[1], v.shape[1]))
        idx = np.flatnonzero(alive)
        unit = centered[:, idx] / sd[idx]
        a[np.ix_(idx, idx)] = unit.T @ unit
        np.fill_diagonal(a, 0.0)
        layers.append(np.clip((a + a.T) / 2.0, 0.0, None))
    return np.array(layers)


def baseline_q(layers: np.ndarray, gamma: float, coupling: float) -> tuple[float, float]:
    """Multilayer Q of the all-singletons and the one-community partitions."""
    n_layers, n = layers.shape[:2]
    k = layers.sum(axis=2)
    two_m = k.sum(axis=1)
    two_mu = two_m.sum() + 2.0 * coupling * n * (n_layers - 1)
    safe = np.where(two_m > 0, two_m, 1.0)
    # singletons: only the i = j null-model terms remain (A_ii = 0)
    singles = -(gamma * (k ** 2).sum(axis=1) / safe).sum()
    # one community: every pair and every inter-layer link counts
    one = (two_m - gamma * np.where(two_m > 0, two_m, 0.0)).sum() \
        + 2.0 * coupling * n * (n_layers - 1)
    return float(singles / two_mu), float(one / two_mu)


def check_modularity(q_values, baselines, allegiance: dict) -> list[str]:
    problems = []
    for i, (q, (q_single, q_one)) in enumerate(zip(q_values, baselines)):
        if not q >= max(q_single, q_one) - 1e-12:
            problems.append(f"task {i}: Q {q:.10g} below a trivial partition "
                            f"(singletons {q_single:.10g}, one {q_one:.10g})")
    for name, m in allegiance.items():
        if not np.array_equal(m, m.T):
            problems.append(f"{name}: allegiance not symmetric")
        if not np.all(np.diag(m) == 1.0):
            problems.append(f"{name}: allegiance diagonal not 1")
        if m.min() < 0.0 or m.max() > 1.0:
            problems.append(f"{name}: allegiance outside [0, 1]")
    return problems


def modularity_dir(run_dir: str, window: int, stride: int, gamma: float,
                   coupling: float) -> list[str]:
    rows = read_csv(os.path.join(run_dir, "modularity.csv"))
    baselines = []
    for row in rows:
        trials, _ = tensorio.load_recording(_recording_path(run_dir, int(row["task_index"])))
        v = np.concatenate([t["v"] for t in trials], axis=0)
        baselines.append(baseline_q(window_layers(v, window, stride), gamma, coupling))
    allegiance, _ = tensorio.load_tensors(os.path.join(run_dir, "allegiance.tens"))
    return check_modularity([float(r["q"]) for r in rows], baselines, allegiance)


# ---------------------------------------------------------------------------
# lesion


def check_lesion(rows: list[dict], n_neurons: int) -> list[str]:
    problems = []
    for prop in dict.fromkeys(r["property"] for r in rows):
        bins = [r for r in rows if r["property"] == prop]
        total = sum(int(r["bin_size"]) for r in bins)
        if total != n_neurons:
            problems.append(f"{prop}: bin sizes sum to {total}, not {n_neurons}")
        for r in bins:
            loss, base = float(r["current_task_loss"]), float(r["baseline_loss"])
            if not (np.isfinite(loss) and np.isfinite(base)):
                problems.append(f"{prop} bin {r['bin']}: non-finite loss")
            if int(r["bin_size"]) == 0 and (
                    loss != base
                    or r["next_task_iterations"] != r["baseline_iterations"]):
                problems.append(f"{prop} bin {r['bin']}: empty bin differs "
                                f"from the baseline")
    return problems


# ---------------------------------------------------------------------------
# delay-period PCA


def check_pca(basis: np.ndarray, explained: np.ndarray,
              total_variance: float) -> list[str]:
    problems = []
    gram = basis.T @ basis
    if not np.allclose(gram, np.eye(gram.shape[0]), atol=1e-10):
        problems.append("basis is not orthonormal")
    if np.any(np.diff(explained) > 0):
        problems.append("explained variances increase")
    if explained.min() < 0 or explained.sum() > total_variance * (1 + 1e-9):
        problems.append(f"explained variances {explained} exceed the total "
                        f"delay-period variance {total_variance:.6g}")
    return problems


def delay_variance(traces: list[np.ndarray], schedule: PeriodSchedule) -> float:
    """Total variance (sum over neurons, ddof 1) of pooled delay-period traces."""
    lo = schedule.stimulus_steps
    pooled = np.concatenate([t[lo:lo + schedule.delay_steps] for t in traces])
    return float(pooled.var(axis=0, ddof=1).sum())


def pca_dir(run_dir: str, config: ExperimentConfig) -> list[str]:
    tensors, _ = tensorio.load_tensors(os.path.join(run_dir, "pca_basis.tens"))
    traces = []
    for i in range(config.n_tasks):
        trials, _ = tensorio.load_recording(_recording_path(run_dir, i))
        traces += [t["trace"] for t in trials]
    total = delay_variance(traces, PeriodSchedule.from_dt(config.dt_ms))
    return check_pca(tensors["basis"], tensors["explained_variance"], total)
