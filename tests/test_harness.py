"""Sequential-task driver: convergence rules, carry-over, metrics, artifacts."""

import numpy as np
import pytest

from ipsnn import harness
from ipsnn.harness import (ExperimentConfig, TaskOutcome, build_state,
                           compute_metrics, run_ablation_grid, run_family,
                           run_inner_task, state_from_checkpoint)
from ipsnn.core import forward_trial
from ipsnn.gradients import GradientError
from ipsnn.tasks import generate_task
from ipsnn.tensorio import load_checkpoint, load_recording


def tiny(**kw):
    defaults = dict(family="GNG-DR-2", n_tasks=3, max_iters=12, min_iters=3,
                    convergence_threshold=0.05, seed=2, n_neurons=8,
                    dt_ms=100.0, record_every=10 ** 9, checkpoint_every=10 ** 9)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_family_thresholds(self):
        assert tiny(convergence_threshold=None, family="DMS").threshold == 0.005
        assert tiny(convergence_threshold=None, family="GNG-DR-4").threshold == 0.006

    def test_variant_masks(self):
        assert tiny(family="CD-DMS").mask().as_tuple() == (1, 0, 1)
        assert tiny(variant="vanilla").mask().as_tuple() == (0, 0, 0)
        assert tiny(variant="random-mask",
                    mask_override=(0, 1, 1)).mask().as_tuple() == (0, 1, 1)

    def test_random_mask_needs_override(self):
        with pytest.raises(ValueError):
            tiny(variant="random-mask")

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            tiny(min_iters=20, max_iters=10)
        with pytest.raises(ValueError):
            tiny(convergence_threshold=0.0)
        with pytest.raises(ValueError):
            tiny(family="maze")
        with pytest.raises(ValueError):
            tiny(n_dendrites=3)


class TestRunInnerTask:
    def test_min_iteration_floor(self):
        # a generous threshold converges immediately, but not before min_iters
        config = tiny(convergence_threshold=1e9, min_iters=5, max_iters=50)
        state = build_state(config)
        task = generate_task(config.family, 0, config.seed, config.dt_ms)
        outcome = run_inner_task(state, task, config)
        assert outcome.converged and outcome.iterations_used == 5

    def test_budget_exhaustion_is_failure(self):
        config = tiny(convergence_threshold=1e-12, min_iters=1, max_iters=4)
        state = build_state(config)
        task = generate_task(config.family, 0, config.seed, config.dt_ms)
        outcome = run_inner_task(state, task, config)
        assert not outcome.converged and outcome.iterations_used == 4

    def test_converged_invariant(self):
        config = tiny(convergence_threshold=0.5, min_iters=2, max_iters=30)
        state = build_state(config)
        task = generate_task(config.family, 0, config.seed, config.dt_ms)
        outcome = run_inner_task(state, task, config)
        if outcome.converged:
            assert config.min_iters <= outcome.iterations_used <= config.max_iters

    def test_last_mean_sq_tracks_final_traces(self):
        config = tiny(convergence_threshold=1e9, min_iters=2, max_iters=5)
        state = build_state(config)
        task = generate_task(config.family, 0, config.seed, config.dt_ms)
        run_inner_task(state, task, config)
        recomputed = float(np.mean(
            np.stack([r.trace for r in state.last_recordings]) ** 2))
        assert state.last_mean_sq == recomputed


class TestRunFamily:
    def test_early_stop_after_consecutive_failures(self):
        config = tiny(convergence_threshold=1e-12, min_iters=1, max_iters=3,
                      n_tasks=20, early_stop_failures=3)
        metrics, run = run_family(config)
        assert run.early_stopped
        assert len(run.outcomes) == 3
        assert metrics.failure_count == 3

    def test_failure_streak_resets_on_success(self):
        outcomes = [TaskOutcome(i, conv, 5, 0.1) for i, conv in
                    enumerate([False, False, True, False, False, True])]
        metrics = compute_metrics(outcomes)
        assert metrics.failure_count == 4

    def test_mask_frozen_across_run(self):
        config = tiny(n_tasks=2, convergence_threshold=1e9, min_iters=1,
                      max_iters=2)
        state = build_state(config)
        bits_before = state.configured.mask.as_tuple()
        for i in range(2):
            task = generate_task(config.family, i, config.seed, config.dt_ms)
            run_inner_task(state, task, config)
        assert state.configured.mask.as_tuple() == bits_before

    def test_fixed_bank_bit_frozen_over_training(self):
        config = tiny(n_tasks=2, max_iters=6, min_iters=1)
        state = build_state(config)
        frozen = state.candidates.fixed_bank.copy()
        for i in range(2):
            task = generate_task(config.family, i, config.seed, config.dt_ms)
            run_inner_task(state, task, config)
            state.sigma_h_sq = state.last_mean_sq
        for name in ("tau_d", "tau_s", "theta"):
            assert np.array_equal(getattr(state.candidates.fixed_bank, name),
                                  getattr(frozen, name)), name

    def test_homeostatic_target_follows_previous_task(self):
        # strong input gain guarantees spiking, so the trace energy is nonzero
        config = tiny(n_tasks=2, convergence_threshold=1e9, min_iters=1,
                      max_iters=3, gain_in=30.0, gain_rec=5.0)
        _, run = run_family(config)
        assert run.sigma_history[0] == 0.0  # before the first task
        assert run.sigma_history[1] > 0.0

    def test_gradient_error_fails_the_task(self, tmp_path, monkeypatch):
        real = harness.task_gradients

        def blows_up_on_task_1(recordings, task, *args, **kwargs):
            if task.task_index == 1:
                raise GradientError("w_rec")
            return real(recordings, task, *args, **kwargs)

        monkeypatch.setattr(harness, "task_gradients", blows_up_on_task_1)
        config = tiny(n_tasks=3, max_iters=4, min_iters=4,
                      output_dir=str(tmp_path / "run"))
        metrics, run = run_family(config)
        assert [o.error is None for o in run.outcomes] == [True, False, True]
        failed = run.outcomes[1]
        assert not failed.converged and failed.iterations_used == 1
        assert "w_rec" in failed.error
        assert metrics.failure_count >= 1
        rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + 3

    def test_deterministic_artifacts(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            config = tiny(n_tasks=2, max_iters=6, min_iters=1,
                          output_dir=str(out), record_every=1,
                          checkpoint_every=1)
            run_family(config)
        assert (out_a / "metrics.csv").read_bytes() == \
               (out_b / "metrics.csv").read_bytes()

    def test_artifact_layout(self, tmp_path):
        config = tiny(n_tasks=2, max_iters=5, min_iters=1,
                      output_dir=str(tmp_path / "run"), record_every=1,
                      checkpoint_every=1)
        run_family(config)
        base = tmp_path / "run"
        assert (base / "metrics.csv").exists()
        assert (base / "events.log").exists()
        assert (base / "checkpoints" / "task_000001.ckpt").exists()
        trials, meta = load_recording(base / "recordings" / "task_000000.rec")
        assert meta["task_index"] == 0
        assert trials[0]["v"].shape[1] == config.n_neurons


class TestCheckpointResume:
    def test_forward_replay_matches(self, tmp_path):
        config = tiny(n_tasks=2, max_iters=5, min_iters=1,
                      output_dir=str(tmp_path / "run"), checkpoint_every=1)
        run_family(config)
        state = state_from_checkpoint(
            tmp_path / "run" / "checkpoints" / "task_000001.ckpt", config)
        # the loaded model must reproduce the recorded noiseless eval pass
        task = generate_task(config.family, 1, config.seed, config.dt_ms)
        rec = forward_trial(state.weights, state.configured.props, state.net,
                            task.trials[0].inputs, rng=None)
        trials, _ = load_recording(
            tmp_path / "run" / "recordings" / "task_000001.rec")
        assert np.array_equal(rec.readout, trials[0]["readout"])
        assert np.array_equal(rec.v, trials[0]["v"])

    def test_checkpoint_carries_next_task_target(self, tmp_path):
        # pinned budget; strong gains make every task's trace energy nonzero
        config = tiny(n_tasks=4, max_iters=3, min_iters=3,
                      convergence_threshold=1e-12, early_stop_failures=5,
                      gain_in=30.0, gain_rec=5.0, checkpoint_every=1,
                      output_dir=str(tmp_path / "run"))
        _, run = run_family(config)
        assert len(set(run.sigma_history)) == 4  # targets differ task to task
        for k in range(3):
            path = tmp_path / "run" / "checkpoints" / f"task_{k:06d}.ckpt"
            assert load_checkpoint(path).sigma_h_sq == run.sigma_history[k + 1]
            restored = state_from_checkpoint(path, config)
            assert restored.sigma_h_sq == run.sigma_history[k + 1]

    def test_resume_with_noise_equals_uninterrupted(self, tmp_path):
        # pinned budget with training noise on: the restored noise generator
        # must draw what the uninterrupted run drew for tasks 2 and 3
        config = tiny(n_tasks=4, seed=0, n_neurons=16, dt_ms=50.0,
                      max_iters=5, min_iters=5, convergence_threshold=1e-12,
                      early_stop_failures=5, checkpoint_every=1,
                      output_dir=str(tmp_path / "run"))
        _, run = run_family(config)
        state = state_from_checkpoint(
            tmp_path / "run" / "checkpoints" / "task_000001.ckpt", config)
        for i in (2, 3):
            task = generate_task(config.family, i, config.seed, config.dt_ms)
            outcome = run_inner_task(state, task, config)
            assert outcome.final_loss == run.outcomes[i].final_loss, i
            state.sigma_h_sq = state.last_mean_sq


class TestComputeMetrics:
    def test_all_converged_at_floor(self):
        outcomes = [TaskOutcome(i, True, 50, 0.001) for i in range(200)]
        metrics = compute_metrics(outcomes)
        assert metrics.failure_count == 0
        assert all(v == 50.0 for v in metrics.final_efficiency.values())
        assert set(metrics.final_efficiency) == {50, 100, 150, 200}

    def test_hand_example(self):
        outcomes = [TaskOutcome(0, False, 5000, 1.0),
                    TaskOutcome(1, True, 100, 0.001),
                    TaskOutcome(2, True, 200, 0.001)]
        metrics = compute_metrics(outcomes)
        assert metrics.failure_count == 1
        tail2 = [o.iterations_used for o in outcomes[-2:] if o.converged]
        assert np.mean(tail2) == 150.0

    def test_final_efficiency_needs_enough_tasks(self):
        outcomes = [TaskOutcome(i, True, 60, 0.001) for i in range(60)]
        metrics = compute_metrics(outcomes)
        assert set(metrics.final_efficiency) == {50}

    def test_empty_outcomes_error(self):
        with pytest.raises(ValueError):
            compute_metrics([])

    def test_speed_series_skips_failures(self):
        outcomes = [TaskOutcome(0, True, 70, 0.001),
                    TaskOutcome(1, False, 5000, 0.5),
                    TaskOutcome(2, True, 90, 0.001)]
        metrics = compute_metrics(outcomes)
        assert metrics.adaptation_speed == [(0, 70), (2, 90)]


class TestAblationGrid:
    def test_grid_rows_and_ip2_consistency(self, tmp_path):
        base = tiny(n_tasks=2, max_iters=6, min_iters=1,
                    output_dir=str(tmp_path / "grid"))
        masks = [(1, 1, 0), (0, 0, 0)]
        rows = run_ablation_grid(base, masks)
        assert len(rows) == 2
        found = {mask: metrics for mask, metrics, _ in rows}
        assert set(found) == set(masks)
        # the family's own mask reproduces the plain variant bit-for-bit
        plain_cfg = tiny(n_tasks=2, max_iters=6, min_iters=1)
        plain_metrics, plain_run = run_family(plain_cfg)
        grid_metrics = found[(1, 1, 0)]  # GNG-DR-2 mask
        assert grid_metrics.failure_count == plain_metrics.failure_count
        assert grid_metrics.adaptation_speed == plain_metrics.adaptation_speed
        assert (tmp_path / "grid" / "ablation.csv").exists()

    def test_rows_sorted_by_failures_then_efficiency(self):
        base = tiny(n_tasks=2, max_iters=4, min_iters=1,
                    convergence_threshold=1e-12)
        rows = run_ablation_grid(base, [(1, 1, 0), (1, 0, 0)])
        failures = [m.failure_count for _, m, _ in rows]
        assert failures == sorted(failures)
