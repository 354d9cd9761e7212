"""The benchmark's workloads and the call counts their configs imply.

Every workload runs the user's pipeline through ``ipsnn.cli.main`` in
cycles: rounds of ``ipsnn train`` on a pinned-budget config, then one round
of the four ``ipsnn analyze`` commands on the last train round's run
directory. The budget is
pinned (``min_iters == max_iters``, a threshold no task reaches, early stop
off), so the work done never depends on how the loss evolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PROPERTIES = ("tau_d", "tau_s", "theta")
TRIALS = {"CD-DMS": 4, "GNG-DR-2": 2}
# the paper's learning mask per family: (dendritic decay, somatic decay, threshold)
FAMILY_MASK = {"CD-DMS": (1, 0, 1), "GNG-DR-2": (1, 1, 0)}
ANALYSES = ("modularity", "lesion", "stats", "pca")


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    n_neurons: int
    dt_ms: float
    n_tasks: int
    iters: int
    checkpoint_every: int
    # extra `ipsnn analyze` flags per analysis (empty = the CLI defaults)
    analyze_flags: dict = field(default_factory=dict)
    # train rounds per cycle; each cycle ends with one analyze round
    train_rounds: int = 1

    def train_config(self, seed: int) -> dict:
        return {
            "family": self.family,
            "n_neurons": self.n_neurons,
            "n_dendrites": 2,
            "dt_ms": self.dt_ms,
            "n_tasks": self.n_tasks,
            "max_iters": self.iters,
            "min_iters": self.iters,
            # losses stay far above this, so no task ever converges early
            "convergence_threshold": 1e-9,
            "early_stop_failures": self.n_tasks + 1,
            "checkpoint_every": self.checkpoint_every,
            "record_every": 1,
            "seed": seed,
        }

    @property
    def trials(self) -> int:
        return TRIALS[self.family]

    @property
    def steps(self) -> int:
        """Timesteps per trial: 500 ms stimulus, 1000 ms delay, 500 ms response."""
        return sum(int(round(ms / self.dt_ms)) for ms in (500, 1000, 500))

    def flag(self, analysis: str, name: str, default):
        flags = self.analyze_flags.get(analysis, [])
        return type(default)(flags[flags.index(name) + 1]) if name in flags else default

    def lesion_properties(self) -> list[str]:
        prop = self.flag("lesion", "--property", "")
        return prop.split(",") if prop else list(PROPERTIES)

    def n_layers(self) -> int:
        window = self.flag("modularity", "--window", 50)
        stride = self.flag("modularity", "--stride", 50)
        return (self.trials * self.steps - window) // stride + 1

    def checkpoints(self) -> int:
        return sum(1 for i in range(self.n_tasks)
                   if (i + 1) % self.checkpoint_every == 0 or i >= self.n_tasks - 2)


WORKLOADS = {w.name: w for w in (
    # Paper scale; 4 trials per task of BLAS-shaped work. The analyses are cut
    # down (one lesion property; one Louvain restart on every other 50-step
    # window, so 2048 supra-nodes per recorded task): at the CLI defaults they
    # would take minutes on 4096 supra-nodes per recorded task. Louvain's
    # sweep count on 50-step windows varies little from seed to seed (its
    # IQR/median over 14 seeds is 0.045, against 0.25 on 100-step windows).
    Workload("train-cddms-n256", "CD-DMS", 256, 10.0, n_tasks=4, iters=2,
             checkpoint_every=2,
             analyze_flags={"modularity": ["--window", "50", "--stride", "100",
                                           "--restarts", "1"],
                            "lesion": ["--property", "theta"]}),
    # Desk scale (the criterion-6 network): many short tasks, a recording per
    # task and frequent checkpoints, so per-call overhead and I/O dominate.
    Workload("train-gngdr2-n64", "GNG-DR-2", 64, 20.0, n_tasks=16, iters=4,
             checkpoint_every=2, train_rounds=2),
)}


def expected_train_counts(w: Workload) -> dict:
    """Calls one `ipsnn train` round makes into each traced function."""
    k, m, p = w.n_tasks, w.iters, w.trials
    learnable = sum(FAMILY_MASK[w.family])
    forward = k * p * (m + 1)  # m training passes and one noiseless eval pass
    return {
        "cli.main.calls": 1,
        "harness.run_family.calls": 1,
        "harness.build_state.calls": 1,
        "harness.run_inner_task.calls": k,
        "tasks.generate_task.calls": k + 1,  # one extra probe in build_state
        "core.forward_trial.calls": forward,
        "core.forward_trial.steps": forward * w.steps,
        "gradients.task_loss.calls": 2 * k * m,
        "gradients.task_gradients.calls": k * m,
        "gradients.adjoint_trial.calls": k * m * p,
        "gradients.AdamState.step.calls": k * m * (3 + learnable),
        "objective.base_loss.calls": 2 * k * m * p,
        "objective.base_loss_grad.calls": k * m * p,
        "plasticity.apply_update.calls": k * m,
        "tensorio.save_recording.calls": k,
        "tensorio.save_checkpoint.calls": w.checkpoints(),
        "manifest.write_manifest.calls": 1,
    }


def expected_analyze_counts(w: Workload, nonempty_bins: dict) -> dict:
    """Calls one round of the four analyses makes into each traced function.

    ``nonempty_bins`` maps each lesioned property to its count of non-empty
    bins; each such bin, plus the baseline, is one evaluation and one
    training on the next task.
    """
    m, p = w.iters, w.trials
    recordings = w.n_tasks  # record_every is 1
    trainings = sum(1 + nonempty_bins[prop] for prop in w.lesion_properties())
    forward = trainings * p * (1 + m)
    return {
        "cli.main.calls": len(ANALYSES),
        "tensorio.load_tensors.calls": 3 * recordings + 2,  # a checkpoint parses twice
        "modularity.build_layers.calls": recordings,
        "modularity.louvain_optimize.calls": recordings,
        "modularity.louvain_optimize.supra_nodes":
            recordings * w.n_neurons * w.n_layers(),
        "modularity.modularity_report.calls": recordings,
        "harness.state_from_checkpoint.calls": 1,
        "tasks.generate_task.calls": 2,
        "analysis.lesion_eval.calls": len(w.lesion_properties()),
        "analysis.evaluate_task_loss.calls": trainings,
        "harness.run_inner_task.calls": trainings,
        "core.forward_trial.calls": forward,
        "core.forward_trial.steps": forward * w.steps,
        "gradients.task_loss.calls": trainings * (1 + 2 * m),
        "gradients.adjoint_trial.calls": trainings * m * p,
        "analysis.membrane_stats.calls": recordings,
        "analysis.pca_delay.calls": 1,
    }
