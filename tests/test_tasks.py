"""Task family generators: shapes, periods, labels, determinism."""

import numpy as np
import pytest

from ipsnn.plasticity import FAMILIES
from ipsnn.tasks import (PeriodSchedule, TaskFamilySpec, generate_task,
                         stimulus_sampler)

# (input_dim, output_dim, trials) per Table defaults
LAYOUT = {"DMS": (11, 3, 2), "CD-DMS": (12, 3, 4),
          "GNG-DR-2": (3, 3, 2), "GNG-DR-4": (5, 5, 2)}


class TestSchedule:
    def test_default_dt_step_counts(self):
        s = PeriodSchedule.from_dt(10.0)
        assert (s.stimulus_steps, s.delay_steps, s.response_steps) == (50, 100, 50)
        assert s.total_steps == 200

    def test_coarse_dt(self):
        s = PeriodSchedule.from_dt(20.0)
        assert (s.stimulus_steps, s.delay_steps, s.response_steps) == (25, 50, 25)

    def test_period_masks_tile_without_overlap(self):
        # stimulus [0, s), delay [s, r), response [r, T) with r = response_start
        s = PeriodSchedule.from_dt(50.0)
        assert s.response_start == s.stimulus_steps + s.delay_steps == 30
        assert s.response_start + s.response_steps == s.total_steps == 40

    def test_rejects_empty_period(self):
        with pytest.raises(ValueError):
            PeriodSchedule(0, 5, 5)


class TestFamilySpec:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_dims(self, family):
        spec = TaskFamilySpec.for_family(family)
        in_dim, out_dim, trials = LAYOUT[family]
        assert spec.input_dim == in_dim
        assert spec.output_dim == out_dim
        assert spec.trials_per_task == trials

    def test_loss_kinds(self):
        assert TaskFamilySpec.for_family("DMS").loss_kind == "CE"
        assert TaskFamilySpec.for_family("CD-DMS").loss_kind == "CE"
        assert TaskFamilySpec.for_family("GNG-DR-2").loss_kind == "MSE"
        assert TaskFamilySpec.for_family("GNG-DR-4").loss_kind == "MSE"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            TaskFamilySpec.for_family("stroop")


class TestSampler:
    def test_deterministic(self):
        a = stimulus_sampler(5, 10, "DMS", 3, 1)
        b = stimulus_sampler(5, 10, "DMS", 3, 1)
        assert np.array_equal(a, b)

    def test_distinct_across_tasks(self):
        a = stimulus_sampler(5, 10, "DMS", 3, 1)
        b = stimulus_sampler(5, 10, "DMS", 4, 1)
        assert not np.array_equal(a, b)

    def test_unit_interval(self):
        for i in range(20):
            v = stimulus_sampler(1, 8, "GNG-DR-4", i, 0)
            assert np.all((v >= 0.0) & (v <= 1.0))


class TestDMS:
    def test_shapes_at_default_dt(self):
        task = generate_task("DMS", 0, seed=1, dt_ms=10.0)
        for trial in task.trials:
            assert trial.inputs.shape == (200, 11)
            assert trial.targets.shape == (200, 3)

    def test_fixation_input_window(self):
        task = generate_task("DMS", 2, seed=1, dt_ms=10.0)
        x = task.trials[0].inputs
        assert np.all(x[:150, 0] == 1.0)
        assert np.all(x[150:, 0] == 0.0)

    def test_stimulus_only_during_stimulus_period(self):
        task = generate_task("DMS", 2, seed=1, dt_ms=10.0)
        x = task.trials[1].inputs
        assert np.all(x[:50, 1:] == x[0, 1:])  # held constant
        assert np.any(x[0, 1:] > 0.0)
        assert np.all(x[50:, 1:] == 0.0)  # delay and response carry no stimulus

    def test_response_period_inputs_all_zero(self):
        task = generate_task("DMS", 0, seed=3, dt_ms=10.0)
        assert np.all(task.trials[0].inputs[150:] == 0.0)

    def test_targets_one_hot_by_identity(self):
        task = generate_task("DMS", 1, seed=2, dt_ms=10.0)
        assert [t.label for t in task.trials] == [0, 1]
        for trial in task.trials:
            y = trial.targets
            assert np.all(y[:150, 0] == 1.0) and np.all(y[150:, 0] == 0.0)
            assert np.all(y[:150, 1:] == 0.0)
            one_hot = np.zeros(2)
            one_hot[trial.label] = 1.0
            assert np.all(y[150:, 1:] == one_hot)

    def test_stimuli_differ_across_task_indices(self):
        a = generate_task("DMS", 0, seed=1, dt_ms=10.0)
        b = generate_task("DMS", 1, seed=1, dt_ms=10.0)
        assert not np.array_equal(a.trials[0].inputs, b.trials[0].inputs)


class TestCDDMS:
    def test_four_trials_cover_cue_grid(self):
        task = generate_task("CD-DMS", 0, seed=1, dt_ms=10.0)
        assert len(task.trials) == 4
        assert sorted((t.context, t.label) for t in task.trials) == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_input_dim_includes_context(self):
        task = generate_task("CD-DMS", 0, seed=1, dt_ms=10.0)
        assert task.trials[0].inputs.shape[1] == 12

    def test_cue_channel_active_during_stimulus_only(self):
        task = generate_task("CD-DMS", 0, seed=1, dt_ms=10.0)
        for trial in task.trials:
            cue_channel = trial.inputs[:, 11]
            if trial.context:
                assert np.all(cue_channel[:50] == 1.0)
            else:
                assert np.all(cue_channel[:50] == 0.0)
            assert np.all(cue_channel[50:] == 0.0)

    def test_cue_swap_permutes_response_targets_exactly(self):
        task = generate_task("CD-DMS", 4, seed=9, dt_ms=10.0)
        by_key = {(t.context, np.round(t.inputs[0, 1:11], 12).tobytes()): t
                  for t in task.trials}
        for trial in task.trials:
            twin = by_key[(1 - trial.context,
                           np.round(trial.inputs[0, 1:11], 12).tobytes())]
            np.testing.assert_array_equal(trial.targets[:, [0, 2, 1]],
                                          twin.targets)


class TestGNGDR:
    @pytest.mark.parametrize("family,in_dim,out_dim", [
        ("GNG-DR-2", 3, 3), ("GNG-DR-4", 5, 5)])
    def test_shapes(self, family, in_dim, out_dim):
        task = generate_task(family, 0, seed=1, dt_ms=10.0)
        for trial in task.trials:
            assert trial.inputs.shape == (200, in_dim)
            assert trial.targets.shape == (200, out_dim)

    def test_go_reproduces_stimulus(self):
        task = generate_task("GNG-DR-2", 3, seed=5, dt_ms=10.0)
        go = next(t for t in task.trials if t.label == 1)
        stim = go.inputs[0, 1:]
        assert np.all(go.targets[150:, 1:] == stim)
        assert np.all(go.targets[:150, 1:] == 0.0)

    def test_nogo_response_target_zero(self):
        task = generate_task("GNG-DR-4", 3, seed=5, dt_ms=10.0)
        nogo = next(t for t in task.trials if t.label == 0)
        assert np.all(nogo.targets[150:] == 0.0)

    def test_go_and_nogo_use_different_prototypes(self):
        task = generate_task("GNG-DR-2", 0, seed=7, dt_ms=10.0)
        go, nogo = task.trials
        assert not np.array_equal(go.inputs[0, 1:], nogo.inputs[0, 1:])


class TestAcrossFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_generation_deterministic(self, family):
        a = generate_task(family, 7, seed=11, dt_ms=20.0)
        b = generate_task(family, 7, seed=11, dt_ms=20.0)
        for ta, tb in zip(a.trials, b.trials):
            assert np.array_equal(ta.inputs, tb.inputs)
            assert np.array_equal(ta.targets, tb.targets)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fixation_target_mirrors_input_window(self, family):
        task = generate_task(family, 0, seed=2, dt_ms=20.0)
        sd = task.schedule.stimulus_steps + task.schedule.delay_steps
        for trial in task.trials:
            assert np.all(trial.targets[:sd, 0] == 1.0)
            assert np.all(trial.targets[sd:, 0] == 0.0)
