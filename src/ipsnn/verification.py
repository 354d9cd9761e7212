"""Built-in verification routines behind `ipsnn selftest` and the test suite.

Each check pits a production path against an independent route: the
simulator against a plain per-step recursion of its equations, smooth-mode
backprop against central finite differences, the Louvain heuristic against
exhaustive partition search with a from-scratch quality evaluation, the OU
noise state against its closed-form stationary variance, and the task
generators against their declared tensor layout.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import objective
from .core import (IntrinsicProperties, NetworkConfig, NetworkWeights,
                   TrialRecording, forward_trial, init_weights,
                   noise_sequence)
from .gradients import (DifferentiationMode, finite_difference_oracle,
                        task_gradients, task_loss)
from .modularity import (CommunityAssignment, LayeredNetwork, louvain_optimize,
                         modularity_Q)
from .tasks import (PeriodSchedule, TaskFamilySpec, TaskInstance, Trial,
                    generate_task)
from .plasticity import FAMILIES


# ---------------------------------------------------------------------------
# forward replay: the simulator against a plain per-step recursion


def reference_forward(weights: NetworkWeights, props: IntrinsicProperties,
                      config: NetworkConfig, inputs: np.ndarray, *,
                      spike_mode: str = "hard", smooth_width: float = 1.0,
                      lesion_mask: np.ndarray | None = None,
                      noise_values: np.ndarray | None = None) -> TrialRecording:
    """The ``core`` docstring equations stepped one timestep at a time, each
    step with its own input product ``W_in x(t)`` and readout (``forward_trial``
    does both once per trial); the noise is ``noise_values``, or zero."""
    t_steps, n = len(inputs), config.n_neurons
    noise = np.zeros((t_steps, n)) if noise_values is None else noise_values
    v, v_d = np.full(n, config.v_reset), np.zeros((n, config.n_dendrites))
    trace = emitted = np.zeros(n)
    steps = []
    for t in range(t_steps):
        drive = weights.w_in @ inputs[t] + weights.w_rec @ trace  # [D, n] or [n]
        if config.dendritic:
            v_d = props.tau_d * v_d + (1.0 - props.tau_d) * drive.T
            drive = v_d.sum(axis=1)
        v_pre = props.tau_s * v + (1.0 - props.tau_s) * drive + noise[t]
        if spike_mode == "hard":
            s = (v_pre >= props.theta).astype(np.float64)
            v = np.where(s > 0, config.v_reset, v_pre)
        else:
            s = 1.0 / (1.0 + np.exp(-(v_pre - props.theta) / smooth_width))
            v = v_pre + (config.v_reset - v_pre) * s
        # M(t) from M(t-1) and the spikes emitted at step t-1
        trace = config.alpha * trace + (1.0 - config.alpha) * emitted
        emitted = s if lesion_mask is None else np.where(lesion_mask, 0.0, s)
        steps.append((v_pre, v_d, emitted, s, trace, weights.w_out @ trace))
    return TrialRecording(inputs, *map(np.array, zip(*steps)))


# ---------------------------------------------------------------------------
# gradient check: smooth-mode adjoint vs central finite differences


def _random_setup(seed: int, n_neurons: int, t_steps: int, in_dim: int,
                  out_dim: int, dendritic: bool, n_trials: int = 1):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 21]))
    config = NetworkConfig(n_neurons=n_neurons,
                           n_dendrites=2 if dendritic else 0,
                           noise_enabled=True, rng_seed=seed)
    weights = init_weights(config, in_dim, out_dim,
                           np.random.SeedSequence([seed, 22]))
    d = config.n_dendrites
    props = IntrinsicProperties(
        tau_d=rng.uniform(0.2, 0.9, size=(n_neurons, d)),
        tau_s=rng.uniform(0.2, 0.9, size=n_neurons),
        theta=rng.uniform(0.5, 1.2, size=n_neurons),
    )
    inputs = rng.uniform(0.0, 1.0, size=(n_trials, t_steps, in_dim))
    targets = rng.uniform(0.0, 1.0, size=(n_trials, t_steps, out_dim))
    # realized noise per trial, pinned so every evaluation sees the same draws
    noise = np.stack([noise_sequence(rng.standard_normal((t_steps, n_neurons)), config)
                      for _ in range(n_trials)])
    return config, weights, props, inputs, targets, noise


def mse_task(inputs: np.ndarray, targets: np.ndarray) -> TaskInstance:
    """A task of MSE trials around [B, T, in] inputs and [B, T, out]
    targets. It has no period schedule: the MSE loss does not use one."""
    spec = TaskFamilySpec("mse", inputs.shape[-1], 0, targets.shape[-1],
                          "MSE", fixation_dim=0, trials_per_task=len(inputs))
    return TaskInstance("mse", 0, 0, None, spec,
                        [Trial(inputs=x, targets=y, label=0)
                         for x, y in zip(inputs, targets)])


def gradient_check(seed: int, n_neurons: int = 8, t_steps: int = 30,
                   in_dim: int = 3, out_dim: int = 3, dendritic: bool = True,
                   smooth_width: float = 1.0, h: float = 1e-5,
                   n_trials: int = 1, lesioned: bool = False) -> float:
    """Max relative error between smooth-mode backprop and finite differences.

    The loss is ``task_loss`` of an ``n_trials``-trial MSE task;
    ``lesioned`` silences every third neuron in training and evaluation.
    The denominator floors at 1e-4 of the largest finite-difference entry so
    near-zero coordinates are judged on the gradient's own scale.
    """
    config, weights, props, inputs, targets, noise = _random_setup(
        seed, n_neurons, t_steps, in_dim, out_dim, dendritic, n_trials)
    lw = objective.LossWeights()
    mode = DifferentiationMode("smooth", smooth_width)
    task = mse_task(inputs, targets)
    lesion = np.arange(n_neurons) % 3 == 0 if lesioned else None

    def run(w, p):
        return [forward_trial(w, p, config, x, spike_mode="smooth",
                              smooth_width=smooth_width, lesion_mask=lesion,
                              noise_values=z)
                for x, z in zip(inputs, noise)]

    _, grads = task_gradients(run(weights, props), task, weights, props,
                              config, mode, lw, 0.0, lesion_mask=lesion)

    def loss_fn(params):
        w = NetworkWeights(
            params["w_in"] if weights.mask_in is None
            else params["w_in"] * weights.mask_in,
            params["w_rec"] if weights.mask_rec is None
            else params["w_rec"] * weights.mask_rec,
            params["w_out"], weights.mask_in, weights.mask_rec)
        p = IntrinsicProperties(params["tau_d"], params["tau_s"], params["theta"])
        return task_loss(run(w, p), task, w, lw, 0.0).total

    params = {"w_in": weights.w_in.copy(), "w_rec": weights.w_rec.copy(),
              "w_out": weights.w_out.copy(), "tau_d": props.tau_d.copy(),
              "tau_s": props.tau_s.copy(), "theta": props.theta.copy()}
    analytic = {name: getattr(grads, "d_" + name) for name in params}
    return max_relative_error(analytic, finite_difference_oracle(loss_fn, params, h))


def max_relative_error(analytic: dict, numeric: dict) -> float:
    g_max = max(np.max(np.abs(g), initial=0.0) for g in numeric.values())
    floor = max(1e-4 * g_max, 1e-12)
    worst = 0.0
    for name, b in numeric.items():
        a = analytic[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float(np.max(np.abs(a - b) / denom, initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# modularity: exhaustive partition search with an independent Q evaluation


def set_partitions(n: int):
    """Yield every label assignment of n items (restricted growth strings)."""
    labels = np.zeros(n, dtype=int)

    def rec(i: int, max_used: int):
        if i == n:
            yield labels.copy()
            return
        for lab in range(max_used + 2):
            labels[i] = lab
            yield from rec(i + 1, max(max_used, lab))

    yield from rec(1, 0) if n > 1 else iter([np.zeros(1, dtype=int)])


def reference_pair_matrix(network: LayeredNetwork) -> tuple[np.ndarray, float]:
    """Per-supra-node-pair quality contributions as a dense [nL, nL] matrix,
    derived with plain loops.

    Independent of the production code, which works on per-layer blocks and
    never forms this matrix; it scores candidate partitions during
    exhaustive search and is the oracle the modularity tests compare with.
    """
    n, n_layers = network.n_nodes, network.n_layers
    size = n * n_layers
    pair = np.zeros((size, size))
    for l in range(n_layers):
        a = network.adjacency[l]
        k = [float(a[i].sum()) for i in range(n)]
        two_m = float(sum(k))
        for i in range(n):
            for j in range(n):
                val = a[i, j]
                if two_m > 0:
                    val = val - network.gamma[l] * k[i] * k[j] / two_m
                pair[l * n + i, l * n + j] = val
    for l in range(n_layers):
        for r in range(n_layers):
            if abs(l - r) == 1:
                for j in range(n):
                    pair[l * n + j, r * n + j] += network.coupling
    two_mu = float(sum(network.adjacency[l].sum() for l in range(n_layers)))
    two_mu += 2.0 * network.coupling * n * max(n_layers - 1, 0)
    return pair, two_mu


def brute_force_best_partition(network: LayeredNetwork) -> tuple[CommunityAssignment, float]:
    """Exhaustive search over all labelings of the supra-nodes."""
    pair, two_mu = reference_pair_matrix(network)
    size = pair.shape[0]
    best_q, best = -np.inf, None
    for labels in set_partitions(size):
        q = pair[labels[:, None] == labels[None, :]].sum() / two_mu
        if q > best_q:
            best_q, best = q, labels
    return CommunityAssignment(best.reshape(network.n_layers, network.n_nodes)), float(best_q)


# ---------------------------------------------------------------------------
# selftest checks


def check_gradients(n_seeds: int = 5, tol: float = 1e-4) -> tuple[bool, str]:
    worst = max(gradient_check(seed) for seed in range(n_seeds))
    return worst <= tol, f"max relative error {worst:.3g} (tol {tol:g})"


def check_forward_replay(tol: float = 1e-12) -> tuple[bool, str]:
    """``forward_trial`` against ``reference_forward`` on seeded 8-neuron
    networks whose inputs are scaled up so that most neurons spike: dendritic
    and point mode, hard and smooth spikes, with and without a lesion and
    pinned noise. Deviations are relative to the reference, floored at 1."""
    worst = 0.0
    cases = itertools.product((True, False), ("hard", "smooth"), (False, True),
                              (True, False))
    for seed, (dendritic, spike_mode, lesioned, pinned) in enumerate(cases):
        config, weights, props, inputs, _, noise = _random_setup(
            seed, 8, 40, 3, 3, dendritic)
        kwargs = dict(spike_mode=spike_mode,
                      lesion_mask=np.arange(8) % 3 == 0 if lesioned else None,
                      noise_values=noise[0] if pinned else None)
        got, ref = (run(weights, props, config, 4.0 * inputs[0], **kwargs)
                    for run in (forward_trial, reference_forward))
        for a, b in zip(vars(got).values(), vars(ref).values()):
            worst = max(worst, np.inf if a.shape != b.shape else float(
                np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0), initial=0.0)))
    return worst <= tol, f"max relative deviation {worst:.3g} (tol {tol:g})"


def check_modularity_oracle(n_fixtures: int = 6) -> tuple[bool, str]:
    rng = np.random.default_rng(np.random.SeedSequence([77, 3]))
    worst = 0.0
    for i in range(n_fixtures):
        n = int(rng.integers(4, 7))
        n_layers = int(rng.integers(1, 3))
        if n * n_layers > 10:
            n_layers = 1
        adj = np.zeros((n_layers, n, n))
        for l in range(n_layers):
            a = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.5)
            a = np.triu(a, 1)
            adj[l] = a + a.T
        net = LayeredNetwork(adjacency=adj, gamma=np.ones(n_layers),
                             coupling=float(rng.uniform(0.1, 1.0)) if n_layers > 1 else 0.0)
        _, q_best = brute_force_best_partition(net)
        found = louvain_optimize(net, seed=i, restarts=24)
        q_found = modularity_Q(net, found)
        worst = max(worst, abs(q_best - q_found))
    return worst <= 1e-9, f"max |Q_louvain - Q_exhaustive| = {worst:.3g}"


def check_generator_shapes() -> tuple[bool, str]:
    expected = {"DMS": (11, 3, 2), "CD-DMS": (12, 3, 4),
                "GNG-DR-2": (3, 3, 2), "GNG-DR-4": (5, 5, 2)}
    schedule = PeriodSchedule.from_dt(10.0)
    t = schedule.total_steps
    for family in FAMILIES:
        in_dim, out_dim, n_trials = expected[family]
        task = generate_task(family, 3, seed=123, dt_ms=10.0)
        if len(task.trials) != n_trials:
            return False, f"{family}: expected {n_trials} trials"
        for trial in task.trials:
            if trial.inputs.shape != (t, in_dim) or trial.targets.shape != (t, out_dim):
                return False, f"{family}: bad tensor shapes {trial.inputs.shape}"
            sd = schedule.response_start
            if not (np.all(trial.inputs[:sd, 0] == 1.0)
                    and np.all(trial.inputs[sd:, 0] == 0.0)):
                return False, f"{family}: fixation channel malformed"
    return True, "all four families match their declared layout"


def check_noise_variance(n_samples: int = 1_000_000) -> tuple[bool, str]:
    config = NetworkConfig(n_neurons=1, alpha_noise=0.5, a_noise=0.05)
    chains = 1000
    warmup = 50
    steps = warmup + n_samples // chains
    rng = np.random.default_rng(np.random.SeedSequence([55, 4]))
    samples = noise_sequence(rng.standard_normal((steps, chains)), config)[warmup:]
    target = (2.0 * config.alpha_noise * config.a_noise ** 2
              / (1.0 - (1.0 - config.alpha_noise) ** 2))
    observed = float(samples.var())
    rel = abs(observed - target) / target
    return rel <= 0.02, f"stationary variance {observed:.4e} vs {target:.4e} ({rel:.2%})"


SELFTEST_CHECKS = [
    ("forward-replay", check_forward_replay),
    ("gradient-check", check_gradients),
    ("modularity-oracle", check_modularity_oracle),
    ("generator-shapes", check_generator_shapes),
    ("noise-variance", check_noise_variance),
]

FAST_SKIP = {"noise-variance"}  # Monte-Carlo; skipped with --fast


def run_selftest(fast: bool = False) -> list[str]:
    """Run the checks, printing one line each; returns the failed names."""
    failed = []
    for name, check in SELFTEST_CHECKS:
        if fast and name in FAST_SKIP:
            print(f"SKIP {name} (fast mode)")
            continue
        passed, detail = check()
        if not passed:
            failed.append(name)
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return failed
