"""Post-hoc analyses over recordings and checkpoints.

Covers the lesion protocol (group neurons by an intrinsic property, silence
each group, measure execution loss on the current task and adaptation speed
on the next), membrane-potential statistics, delay-period PCA across tasks,
and the median-split comparison of per-task metrics against adaptation
speed. Community-structure analyses live in :mod:`ipsnn.modularity`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .gradients import task_loss
from .harness import ExperimentConfig, TrainState, eval_recordings, run_inner_task

N_BINS = 10


@dataclass
class PropertyBins:
    """Neuron groups by normalized intrinsic-property value, ten equal ranges."""

    property_id: str
    values: np.ndarray        # raw per-neuron values
    normalized: np.ndarray    # min-max normalized to [0, 1]
    bin_index: np.ndarray     # per-neuron bin in 0..9
    groups: list              # index arrays, one per bin
    degenerate: bool = False  # constant property vector (zero range)


@dataclass
class LesionReport:
    property_id: str
    baseline_loss: float
    baseline_iterations: int
    current_task_loss: np.ndarray     # per bin
    next_task_iterations: np.ndarray  # per bin
    bin_sizes: np.ndarray


@dataclass
class MembraneStats:
    task_index: int
    v_mean: float
    v_var: float
    corr_mean: float
    corr_var: float
    excluded_pairs: int


@dataclass
class PcaEmbedding:
    basis: np.ndarray            # [n, k], orthonormal columns
    mean: np.ndarray             # [n] grand mean removed before projection
    task_coords: np.ndarray      # [n_tasks, k] per-task delay-period centroids
    step_sizes: np.ndarray       # [n_tasks - 1] consecutive-centroid distances
    median_step_size: float
    ensemble_variance: float
    explained_variance: np.ndarray


@dataclass
class MedianSplit:
    lower_indices: np.ndarray
    upper_indices: np.ndarray
    lower_speeds: np.ndarray
    upper_speeds: np.ndarray
    lower_median: float
    upper_median: float


def neuron_property_values(props, property_id: str) -> np.ndarray:
    """Per-neuron scalar for a property group; branch values are averaged."""
    if property_id == "tau_d":
        if props.tau_d.shape[1] == 0:
            raise ValueError("network has no dendrites to bin on")
        return props.tau_d.mean(axis=1)
    if property_id == "tau_s":
        return props.tau_s.copy()
    if property_id == "theta":
        return props.theta.copy()
    raise ValueError(f"unknown property id: {property_id!r}")


def bin_neurons(props, property_id: str) -> PropertyBins:
    """Min-max normalize a property over neurons and cut into ten equal bins.

    Bins are [k/10, (k+1)/10) with the last bin right-closed. A constant
    property vector puts every neuron in bin 0 and sets the degenerate flag.
    """
    values = neuron_property_values(props, property_id)
    span = values.max() - values.min()
    if span == 0.0:
        normalized = np.zeros_like(values)
        degenerate = True
    else:
        normalized = (values - values.min()) / span
        degenerate = False
    bin_index = np.minimum((normalized * N_BINS).astype(int), N_BINS - 1)
    groups = [np.flatnonzero(bin_index == b) for b in range(N_BINS)]
    return PropertyBins(property_id=property_id, values=values,
                        normalized=normalized, bin_index=bin_index,
                        groups=groups, degenerate=degenerate)


def evaluate_task_loss(state: TrainState, task, config: ExperimentConfig,
                       lesion_mask: np.ndarray | None = None) -> float:
    """Noiseless composite loss of the carried model on a task."""
    recordings = eval_recordings(state, task, lesion_mask)
    return task_loss(recordings, task, state.weights, config.loss_weights(),
                     state.sigma_h_sq, config.trial_reduction).total


def _clone_state(state: TrainState, seed_tag: int) -> TrainState:
    """Independent copy of the state without its last recordings, with a
    fresh noise generator per lesion run. One deep copy keeps the configured
    view aliased to the copied banks."""
    rng = np.random.default_rng(
        np.random.SeedSequence([state.net.rng_seed, 5, seed_tag]))
    return copy.deepcopy(replace(state, noise_rng=rng, last_recordings=[]))


def lesion_eval(state: TrainState, bins: PropertyBins, current_task, next_task,
                config: ExperimentConfig) -> LesionReport:
    """Silence each bin's neurons and measure the damage.

    For every bin: clamp the group's emitted spikes to zero, evaluate the
    current task's noiseless loss, then train a cloned model with the lesion
    still in place on the next task and record its adaptation speed. The
    unlesioned state is never mutated.
    """
    n = state.net.n_neurons
    baseline = evaluate_task_loss(state, current_task, config)
    baseline_iters = run_inner_task(_clone_state(state, seed_tag=N_BINS),
                                    next_task, config).iterations_used
    losses = np.empty(N_BINS)
    iterations = np.empty(N_BINS, dtype=int)
    for b, group in enumerate(bins.groups):
        if len(group) == 0:
            # lesioning the empty set is a no-op on both measurements
            losses[b] = baseline
            iterations[b] = baseline_iters
            continue
        mask = np.zeros(n, dtype=bool)
        mask[group] = True
        losses[b] = evaluate_task_loss(state, current_task, config,
                                       lesion_mask=mask)
        trainee = _clone_state(state, seed_tag=b)
        outcome = run_inner_task(trainee, next_task, config, lesion_mask=mask)
        iterations[b] = outcome.iterations_used
    return LesionReport(property_id=bins.property_id, baseline_loss=baseline,
                        baseline_iterations=baseline_iters,
                        current_task_loss=losses,
                        next_task_iterations=iterations,
                        bin_sizes=np.array([len(g) for g in bins.groups]))


def membrane_stats(trial_potentials: list[np.ndarray],
                   task_index: int = 0) -> MembraneStats:
    """Moments of v pooled over neurons and steps, and pairwise correlation
    moments over neuron pairs; zero-variance pairs are excluded and counted."""
    pooled = np.concatenate([np.asarray(v, float).reshape(-1)
                             for v in trial_potentials])
    corrs = []
    excluded = 0
    for v in trial_potentials:
        v = np.asarray(v, float)
        n = v.shape[1]
        sd = v.std(axis=0)  # (near-)constant series have undefined correlation
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.corrcoef(v.T)
        iu = np.triu_indices(n, k=1)
        pair_ok = (sd[iu[0]] > 1e-12) & (sd[iu[1]] > 1e-12)
        vals = c[iu]
        corrs.append(vals[pair_ok])
        excluded += int((~pair_ok).sum())
    corrs = np.concatenate(corrs) if corrs else np.array([])
    return MembraneStats(
        task_index=task_index,
        v_mean=float(pooled.mean()),
        v_var=float(pooled.var()),
        corr_mean=float(corrs.mean()) if corrs.size else float("nan"),
        corr_var=float(corrs.var()) if corrs.size else float("nan"),
        excluded_pairs=excluded,
    )


def pca_delay(task_traces: list[list[np.ndarray]], schedule,
              n_components: int = 2) -> PcaEmbedding:
    """PCA of delay-period trace activity pooled across tasks.

    ``task_traces[i]`` holds the [T, n] trace histories of task i's trials.
    Component signs are fixed (largest-magnitude loading positive) so
    repeated runs embed identically.
    """
    lo = schedule.stimulus_steps
    hi = lo + schedule.delay_steps
    per_task = [np.concatenate([np.asarray(tr, float)[lo:hi]
                                for tr in trials], axis=0)
                for trials in task_traces]
    pooled = np.concatenate(per_task, axis=0)
    mean = pooled.mean(axis=0)
    centered = pooled - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    k = min(n_components, vt.shape[0])
    basis = vt[:k].T.copy()
    for j in range(k):
        pivot = np.argmax(np.abs(basis[:, j]))
        if basis[pivot, j] < 0:
            basis[:, j] = -basis[:, j]
    task_coords = np.stack([(rows - mean).dot(basis).mean(axis=0)
                            for rows in per_task])
    plane = task_coords[:, :min(2, k)]
    steps = np.linalg.norm(np.diff(plane, axis=0), axis=1)
    projected = centered.dot(basis)
    explained = (svals[:k] ** 2) / max(len(pooled) - 1, 1)
    return PcaEmbedding(
        basis=basis, mean=mean, task_coords=task_coords, step_sizes=steps,
        median_step_size=float(np.median(steps)) if steps.size else 0.0,
        ensemble_variance=float(projected.var(axis=0).sum()),
        explained_variance=explained,
    )


def split_by_metric(metric_series, adaptation_speeds) -> MedianSplit:
    """Median split of tasks by a metric; compare adaptation speeds.

    Tasks sort ascending by metric (stable); with an odd count the median
    element joins the lower group.
    """
    metric = np.asarray(metric_series, dtype=float)
    speeds = np.asarray(adaptation_speeds, dtype=float)
    if metric.shape != speeds.shape or metric.ndim != 1:
        raise ValueError("metric and speed series must be 1-D and aligned")
    if metric.size < 2:
        raise ValueError("need at least two tasks to split")
    order = np.argsort(metric, kind="stable")
    cut = (metric.size + 1) // 2
    lower, upper = order[:cut], order[cut:]
    return MedianSplit(
        lower_indices=lower, upper_indices=upper,
        lower_speeds=speeds[lower], upper_speeds=speeds[upper],
        lower_median=float(np.median(speeds[lower])),
        upper_median=float(np.median(speeds[upper])),
    )
