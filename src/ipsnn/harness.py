"""Two-loop learning-to-learn driver.

The outer loop configures the plasticity mask once per run; the inner loop
trains the same model on a long sequence of freshly generated tasks from
one family, carrying weights, learnable properties, optimizer moments, and
the homeostatic target across task boundaries. Convergence is declared on
the noisy training loss once the iteration floor is reached; a run aborts
early after a configured number of consecutive task failures.
"""

from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import plasticity, tensorio
from .core import NetworkConfig, NetworkWeights, forward_trial, init_weights
from .gradients import (AdamState, DifferentiationMode, GradientError,
                        task_gradients, task_loss)
from .objective import LossWeights, hidden_mean_square
from .plasticity import CandidateProperties, ConfiguredProperties, LearningMask
from .tasks import TaskInstance, generate_task

DEFAULT_THRESHOLDS = {"DMS": 0.005, "CD-DMS": 0.005, "GNG-DR-2": 0.005,
                      "GNG-DR-4": 0.006}
VARIANTS = ("ip2", "vanilla", "random-mask")

# seed-stream tags under the experiment root seed
_SEED_WEIGHTS, _SEED_FIXED, _SEED_LEARNABLE, _SEED_NOISE = 1, 2, 3, 4


@dataclass
class ExperimentConfig:
    family: str
    variant: str = "ip2"
    mask_override: tuple | None = None
    n_tasks: int = 1000
    max_iters: int = 5000
    min_iters: int = 50
    convergence_threshold: float | None = None
    early_stop_failures: int = 3
    seed: int = 0
    n_neurons: int = 256
    n_dendrites: int = 2
    dt_ms: float = 10.0
    alpha: float = 0.01
    alpha_noise: float = 0.5
    a_noise: float = 0.05
    v_reset: float = 0.0
    train_noise: bool = True
    lr: float = 0.01
    beta1: float = 0.1
    beta2: float = 0.3
    adam_eps: float = 1e-8
    lambda_h: float = 0.0005
    lambda_in: float = 0.001
    lambda_rec: float = 0.0001
    lambda_out: float = 0.1
    trial_reduction: str = "mean"
    surrogate_width: float = 1.0
    gain_in: float = 1.0
    gain_rec: float = 1.0
    gain_out: float = 1.0
    checkpoint_every: int = 50
    record_every: int = 1
    output_dir: str | None = None

    def __post_init__(self):
        if self.family not in DEFAULT_THRESHOLDS:
            raise ValueError(f"unknown task family: {self.family!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant!r}")
        if self.variant == "random-mask" and self.mask_override is None:
            raise ValueError("variant 'random-mask' needs mask_override")
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.min_iters > self.max_iters:
            raise ValueError("min_iters must not exceed max_iters")
        if self.threshold <= 0:
            raise ValueError("convergence threshold must be positive")
        if self.early_stop_failures < 1:
            raise ValueError("early_stop_failures must be positive")
        if self.n_dendrites not in (0, 2):
            raise ValueError("supported configurations use 0 or 2 dendrites")

    @property
    def threshold(self) -> float:
        if self.convergence_threshold is not None:
            return self.convergence_threshold
        return DEFAULT_THRESHOLDS[self.family]

    def mask(self) -> LearningMask:
        if self.variant == "vanilla":
            return LearningMask(0, 0, 0)
        if self.variant == "random-mask":
            return plasticity.mask_for_family(self.mask_override)
        return plasticity.mask_for_family(self.family)

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(
            n_neurons=self.n_neurons, n_dendrites=self.n_dendrites,
            dt_ms=self.dt_ms, alpha=self.alpha, alpha_noise=self.alpha_noise,
            a_noise=self.a_noise, v_reset=self.v_reset,
            noise_enabled=self.train_noise, rng_seed=self.seed)

    def loss_weights(self) -> LossWeights:
        return LossWeights(self.lambda_h, self.lambda_in, self.lambda_rec,
                           self.lambda_out)

    def diff_mode(self) -> DifferentiationMode:
        return DifferentiationMode("surrogate", self.surrogate_width)


@dataclass
class TaskOutcome:
    task_index: int
    converged: bool
    iterations_used: int
    final_loss: float
    wall_time: float = 0.0
    error: str | None = None


@dataclass
class L2LMetrics:
    failure_count: int
    adaptation_speed: list  # (task_index, iterations_used) of converged tasks
    final_efficiency: dict  # k -> mean adaptation speed over last k tasks


@dataclass
class RunLog:
    family: str
    variant: str
    seed: int
    mask_bits: tuple
    outcomes: list = field(default_factory=list)
    early_stopped: bool = False
    output_dir: str | None = None
    sigma_history: list = field(default_factory=list)


@dataclass
class TrainState:
    """Mutable model state threaded through the sequential tasks."""

    net: NetworkConfig
    weights: NetworkWeights
    candidates: CandidateProperties
    configured: ConfiguredProperties
    adam: AdamState
    noise_rng: np.random.Generator
    sigma_h_sq: float = 0.0
    last_mean_sq: float = 0.0
    last_recordings: list = field(default_factory=list)


def build_state(config: ExperimentConfig) -> TrainState:
    net = config.network_config()
    task_spec_probe = generate_task(config.family, 0, config.seed, config.dt_ms)
    in_dim = task_spec_probe.spec.input_dim
    out_dim = task_spec_probe.spec.output_dim
    weights = init_weights(net, in_dim, out_dim,
                           np.random.SeedSequence([config.seed, _SEED_WEIGHTS]),
                           config.gain_in, config.gain_rec, config.gain_out)
    candidates = CandidateProperties(
        learnable_bank=plasticity.default_learnable_bank(
            net, np.random.SeedSequence([config.seed, _SEED_LEARNABLE])),
        fixed_bank=plasticity.default_fixed_bank(
            net, np.random.SeedSequence([config.seed, _SEED_FIXED])),
    )
    configured = plasticity.configure(candidates, config.mask())
    adam = AdamState(lr=config.lr, beta1=config.beta1, beta2=config.beta2,
                     eps=config.adam_eps)
    noise_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _SEED_NOISE]))
    return TrainState(net=net, weights=weights, candidates=candidates,
                      configured=configured, adam=adam, noise_rng=noise_rng)


def run_inner_task(state: TrainState, task: TaskInstance,
                   config: ExperimentConfig,
                   lesion_mask: np.ndarray | None = None) -> TaskOutcome:
    """Train the carried model on one task until the loss threshold or budget.

    ``lesion_mask`` keeps the marked neurons silenced throughout training
    (used by the lesion protocol's subsequent-task runs). A non-finite loss
    or gradient ends the task as a failure with ``error`` set; the carried
    homeostatic activity then stays at the previous task's value.
    """
    t0 = time.perf_counter()
    mode = config.diff_mode()
    lw = config.loss_weights()
    props = state.configured.props
    threshold = config.threshold
    converged, error = False, None
    for iteration in range(1, config.max_iters + 1):
        recordings = [
            forward_trial(state.weights, props, state.net, trial.inputs,
                          rng=state.noise_rng, lesion_mask=lesion_mask)
            for trial in task.trials
        ]
        breakdown = task_loss(recordings, task, state.weights, lw,
                              state.sigma_h_sq, config.trial_reduction)
        loss_value = breakdown.total
        if not np.isfinite(loss_value):
            error = f"non-finite loss at iteration {iteration}"
            break
        converged = iteration >= config.min_iters and loss_value < threshold
        if converged:
            break
        try:
            _, grads = task_gradients(recordings, task, state.weights, props,
                                      state.net, mode, lw, state.sigma_h_sq,
                                      config.trial_reduction,
                                      learning_mask=state.configured.mask,
                                      lesion_mask=lesion_mask)
        except GradientError as exc:
            error = f"{exc} at iteration {iteration}"
            break
        plasticity.apply_update(state.weights, state.configured, grads, state.adam)
    if error is None:
        state.last_mean_sq = hidden_mean_square([r.trace for r in recordings])
    state.last_recordings = recordings
    return TaskOutcome(task.task_index, converged, iteration, loss_value,
                       time.perf_counter() - t0, error)


def eval_recordings(state: TrainState, task: TaskInstance,
                    lesion_mask: np.ndarray | None = None) -> list:
    """Noiseless forward pass over a task's trials (analysis archives and
    the lesion protocol's execution loss)."""
    return [forward_trial(state.weights, state.configured.props, state.net,
                          trial.inputs, rng=None, lesion_mask=lesion_mask)
            for trial in task.trials]


def run_family(config: ExperimentConfig,
               log_fn=None) -> tuple[L2LMetrics, RunLog]:
    """Run the full sequential-task paradigm for one family and variant."""
    out_dir = config.output_dir
    events = None
    if out_dir:
        os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)
        os.makedirs(os.path.join(out_dir, "recordings"), exist_ok=True)
        events = open(os.path.join(out_dir, "events.log"), "w")

    def log(msg: str) -> None:
        if events is not None:
            events.write(f"[{time.strftime('%Y-%m-%dT%H:%M:%S')}] {msg}\n")
            events.flush()
        if log_fn is not None:
            log_fn(msg)

    state = build_state(config)
    mask_bits = state.configured.mask.as_tuple()
    run = RunLog(family=config.family, variant=config.variant,
                 seed=config.seed, mask_bits=mask_bits, output_dir=out_dir)
    log(f"run start: family={config.family} variant={config.variant} "
        f"seed={config.seed} mask={mask_bits} threshold={config.threshold}")

    consecutive_failures = 0
    try:
        for i in range(config.n_tasks):
            task = generate_task(config.family, i, config.seed, config.dt_ms)
            outcome = run_inner_task(state, task, config)
            run.outcomes.append(outcome)
            run.sigma_history.append(state.sigma_h_sq)
            # the homeostatic target follows this task's final activity; it moves
            # before the checkpoint, which so holds the next task's target
            state.sigma_h_sq = state.last_mean_sq
            log(f"task {i}: converged={outcome.converged} "
                f"iters={outcome.iterations_used} loss={outcome.final_loss:.6g} "
                f"wall={outcome.wall_time:.2f}s"
                + (f" error={outcome.error}" if outcome.error else ""))
            if out_dir:
                last_two = i >= config.n_tasks - 2
                if (i + 1) % config.checkpoint_every == 0 or last_two:
                    _save_checkpoint(state, config, i, out_dir)
                if i % config.record_every == 0 or last_two:
                    tensorio.save_recording(
                        os.path.join(out_dir, "recordings", f"task_{i:06d}.rec"),
                        eval_recordings(state, task), i,
                        {"family": config.family, "seed": config.seed})
            if outcome.converged:
                consecutive_failures = 0
            else:
                consecutive_failures += 1
                if consecutive_failures >= config.early_stop_failures:
                    run.early_stopped = True
                    log(f"early stop after {consecutive_failures} consecutive failures")
                    break
        metrics = compute_metrics(run.outcomes)
        if out_dir:
            _write_metrics_csv(os.path.join(out_dir, "metrics.csv"), run.outcomes)
        log(f"run end: failures={metrics.failure_count} "
            f"tasks={len(run.outcomes)} early_stopped={run.early_stopped}")
    finally:
        if events is not None:
            events.close()
    return metrics, run


def _save_checkpoint(state: TrainState, config: ExperimentConfig,
                     task_index: int, out_dir: str) -> None:
    moments = {}
    for group, m in state.adam.m.items():
        moments[f"m.{group}"] = m
        moments[f"v.{group}"] = state.adam.v[group]
    tensorio.save_checkpoint(
        os.path.join(out_dir, "checkpoints", f"task_{task_index:06d}.ckpt"),
        state.net, state.weights, state.candidates.learnable_bank,
        state.candidates.fixed_bank, state.configured.mask.as_tuple(),
        state.sigma_h_sq,
        optimizer_moments=moments,
        extra_meta={"task_index": task_index, "family": config.family,
                    "variant": config.variant, "experiment_seed": config.seed,
                    "adam_step_count": state.adam.step_count,
                    "gain_in": config.gain_in, "gain_rec": config.gain_rec,
                    "gain_out": config.gain_out,
                    "noise_rng_state": state.noise_rng.bit_generator.state})


def state_from_checkpoint(path, config: ExperimentConfig) -> TrainState:
    """Rebuild a TrainState at a task boundary from a checkpoint file."""
    ckpt = tensorio.load_checkpoint(path)
    candidates = CandidateProperties(ckpt.learnable_bank, ckpt.fixed_bank)
    configured = plasticity.configure(candidates, LearningMask(*ckpt.mask_bits))
    adam = AdamState(lr=config.lr, beta1=config.beta1, beta2=config.beta2,
                     eps=config.adam_eps,
                     step_count=int(ckpt.meta.get("adam_step_count", 0)))
    moments = tensorio.load_optimizer_moments(path)
    for name, arr in moments.items():
        kind, group = name.split(".", 1)
        (adam.m if kind == "m" else adam.v)[group] = arr
    noise_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _SEED_NOISE,
                                int(ckpt.meta.get("task_index", 0)) + 1]))
    if "noise_rng_state" in ckpt.meta:  # absent from older checkpoints
        noise_rng.bit_generator.state = ckpt.meta["noise_rng_state"]
    return TrainState(net=ckpt.config, weights=ckpt.weights,
                      candidates=candidates, configured=configured, adam=adam,
                      noise_rng=noise_rng, sigma_h_sq=ckpt.sigma_h_sq)


def compute_metrics(outcomes: list[TaskOutcome]) -> L2LMetrics:
    """Failure count, adaptation-speed series, and final-efficiency summary."""
    if not outcomes:
        raise ValueError("no task outcomes to summarize")
    failure_count = sum(1 for o in outcomes if not o.converged)
    speed = [(o.task_index, o.iterations_used) for o in outcomes if o.converged]
    final_eff = {}
    for k in (50, 100, 150, 200):
        if len(outcomes) >= k:
            tail = [o.iterations_used for o in outcomes[-k:] if o.converged]
            final_eff[k] = float(np.mean(tail)) if tail else float("nan")
    return L2LMetrics(failure_count=failure_count, adaptation_speed=speed,
                      final_efficiency=final_eff)


def _write_metrics_csv(path, outcomes: list[TaskOutcome]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_index", "converged", "iterations", "final_loss"])
        for o in outcomes:
            writer.writerow([o.task_index, int(o.converged),
                             o.iterations_used, repr(o.final_loss)])


def _sort_key(metrics: L2LMetrics):
    eff = metrics.final_efficiency
    for k in (200, 150, 100, 50):
        if k in eff and np.isfinite(eff[k]):
            return (metrics.failure_count, eff[k])
    return (metrics.failure_count, float("inf"))


def _run_mask_job(args):
    config, mask = args
    cfg = replace(config, variant="random-mask", mask_override=tuple(mask),
                  output_dir=(None if config.output_dir is None else
                              os.path.join(config.output_dir,
                                           "mask_" + "".join(map(str, mask)))))
    metrics, run = run_family(cfg)
    return tuple(mask), metrics, run.early_stopped


def run_ablation_grid(base_config: ExperimentConfig, mask_set,
                      workers: int = 1) -> list[tuple]:
    """Run one family per mask under shared seeds; rows sorted by
    (failure_count, final efficiency at the largest defined k)."""
    jobs = [(base_config, tuple(int(b) for b in mask)) for mask in mask_set]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_mask_job, jobs))
    else:
        results = [_run_mask_job(j) for j in jobs]
    results.sort(key=lambda row: _sort_key(row[1]))
    if base_config.output_dir:
        path = os.path.join(base_config.output_dir, "ablation.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m1", "m2", "m3", "failure_count",
                             "eff_50", "eff_100", "eff_150", "eff_200",
                             "early_stopped"])
            for mask, metrics, stopped in results:
                eff = metrics.final_efficiency
                writer.writerow(list(mask) + [metrics.failure_count]
                                + [repr(eff[k]) if k in eff else ""
                                   for k in (50, 100, 150, 200)]
                                + [int(stopped)])
    return results
