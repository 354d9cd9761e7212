"""Composite loss components and the homeostatic target."""

import numpy as np
import pytest

from ipsnn.objective import (HomeostaticTarget, LossWeights, base_loss,
                             base_loss_grad, homeostatic_loss, total_loss,
                             weight_regularizer)
from ipsnn.tasks import PeriodSchedule


SCHED = PeriodSchedule(5, 10, 5)


class TestBaseLoss:
    def test_mse_perfect_prediction(self):
        y = np.random.default_rng(0).uniform(size=(20, 3))
        assert base_loss(y, y, "MSE") == 0.0

    def test_mse_hand_value(self):
        # y=[1,0], target=[0,0], one step -> mean of squares = 0.5
        assert base_loss(np.array([[1.0, 0.0]]), np.zeros((1, 2)), "MSE") == 0.5

    def test_ce_uniform_logits(self):
        # 2-class CE with logits [0,0] -> ln 2 per response step; fixation exact
        t = SCHED.total_steps
        y = np.zeros((t, 3))
        tgt = np.zeros((t, 3))
        tgt[:15, 0] = 1.0
        y[:15, 0] = 1.0
        got = base_loss(y, tgt, "CE", schedule=SCHED, label=0)
        assert got == pytest.approx(np.log(2.0), abs=1e-12)

    def test_ce_monotone_in_correct_logit(self):
        t = SCHED.total_steps
        tgt = np.zeros((t, 3))
        losses = []
        for boost in (0.0, 1.0, 3.0, 10.0):
            y = np.zeros((t, 3))
            y[15:, 1] = boost
            losses.append(base_loss(y, tgt, "CE", schedule=SCHED, label=0))
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-4  # saturated logits drive CE toward zero

    def test_ce_requires_schedule_and_label(self):
        with pytest.raises(ValueError):
            base_loss(np.zeros((20, 3)), np.zeros((20, 3)), "CE")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            base_loss(np.zeros((2, 2)), np.zeros((2, 2)), "huber")

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            base_loss(np.zeros((2, 2)), np.zeros((2, 3)), "MSE")

    @pytest.mark.parametrize("kind,label", [("MSE", None), ("CE", 1)])
    def test_grad_matches_finite_differences(self, kind, label):
        rng = np.random.default_rng(3)
        t = SCHED.total_steps
        y = rng.normal(size=(t, 3))
        tgt = rng.uniform(size=(t, 3))
        loss, grad = base_loss_grad(y, tgt, kind, schedule=SCHED, label=label)
        assert loss == pytest.approx(
            base_loss(y, tgt, kind, schedule=SCHED, label=label))
        h = 1e-6
        for idx in [(0, 0), (3, 1), (17, 2), (19, 0), (12, 1)]:
            up, down = y.copy(), y.copy()
            up[idx] += h
            down[idx] -= h
            fd = (base_loss(up, tgt, kind, schedule=SCHED, label=label)
                  - base_loss(down, tgt, kind, schedule=SCHED, label=label)) / (2 * h)
            assert grad[idx] == pytest.approx(fd, abs=1e-8)


class TestHomeostatic:
    def test_cold_network_at_zero_target(self):
        assert homeostatic_loss(np.zeros((4, 8)), HomeostaticTarget(0.0)) == 0.0

    def test_saturated_activity(self):
        assert homeostatic_loss(np.ones((3, 5)), HomeostaticTarget(0.0)) == 1.0

    def test_zero_at_target(self):
        h = np.full((2, 6), 0.2)
        assert homeostatic_loss(h, HomeostaticTarget(0.04)) == pytest.approx(0.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = rng.uniform(size=(3, 7))
            tgt = HomeostaticTarget(float(rng.uniform(0, 1)))
            assert homeostatic_loss(h, tgt) >= 0.0

    def test_target_rejects_negative(self):
        with pytest.raises(ValueError):
            HomeostaticTarget(-0.1)


class TestWeightRegularizer:
    def test_zero_matrix(self):
        assert weight_regularizer(np.zeros((3, 4))) == 0.0

    def test_hand_value(self):
        assert weight_regularizer(np.array([[1.0, -1.0], [1.0, -1.0]])) == 1.0

    def test_quadratic_scaling(self):
        w = np.random.default_rng(2).normal(size=(4, 5))
        assert weight_regularizer(3.0 * w) == pytest.approx(
            9.0 * weight_regularizer(w))

    def test_count_override(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert weight_regularizer(w, count=2) == 1.0


class TestTotalLoss:
    def test_zero_lambdas(self):
        lw = LossWeights(0, 0, 0, 0)
        assert total_loss(1.7, 9, 9, 9, 9, lw).total == 1.7

    def test_hand_sum(self):
        lw = LossWeights(0.1, 0.2, 0.3, 0.4)
        bd = total_loss(1.0, 1.0, 1.0, 1.0, 1.0, lw)
        assert bd.total == pytest.approx(2.0)

    def test_table_defaults_on_unit_terms(self):
        bd = total_loss(1.0, 1.0, 1.0, 1.0, 1.0, LossWeights())
        assert bd.total == pytest.approx(1.0 + 0.0005 + 0.001 + 0.0001 + 0.1)

    def test_affine_in_each_term(self):
        lw = LossWeights(0.5, 0.25, 0.125, 0.0625)
        base = total_loss(1.0, 2.0, 3.0, 4.0, 5.0, lw).total
        bumped = total_loss(1.0, 3.0, 3.0, 4.0, 5.0, lw).total
        assert bumped - base == pytest.approx(lw.lambda_h)
        bumped = total_loss(1.0, 2.0, 3.0, 4.0, 6.0, lw).total
        assert bumped - base == pytest.approx(lw.lambda_out)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_h=-0.1)


class TestHomeostaticUpdate:
    def test_starts_at_zero(self):
        assert HomeostaticTarget().sigma_h_sq == 0.0
