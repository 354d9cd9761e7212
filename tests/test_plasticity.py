"""Mask configuration and the one optimizer pass over weights and properties."""

import copy
import itertools

import numpy as np
import pytest

from ipsnn.core import NetworkConfig, init_weights
from ipsnn.gradients import AdamState, GradientSet
from ipsnn.plasticity import (GROUP_NAMES, CandidateProperties, LearningMask,
                              apply_update, configure, default_fixed_bank,
                              default_learnable_bank, mask_for_family)

CFG = NetworkConfig(n_neurons=4, n_dendrites=2)


def make_banks():
    return CandidateProperties(
        learnable_bank=default_learnable_bank(CFG, 1),
        fixed_bank=default_fixed_bank(CFG, 2),
    )


@pytest.fixture
def banks():
    return make_banks()


@pytest.fixture
def weights():
    return init_weights(CFG, 2, 2, seed=0)


def grads_like(banks, weights, tau_d=0.0, tau_s=0.0, theta=0.0, w=0.0):
    lb = banks.learnable_bank
    return GradientSet(
        d_w_in=np.full_like(weights.w_in, w),
        d_w_rec=np.full_like(weights.w_rec, w),
        d_w_out=np.full_like(weights.w_out, w),
        d_tau_d=np.full_like(lb.tau_d, tau_d),
        d_tau_s=np.full_like(lb.tau_s, tau_s),
        d_theta=np.full_like(lb.theta, theta),
    )


class TestMaskTable:
    def test_family_masks(self):
        assert mask_for_family("DMS").as_tuple() == (1, 0, 0)
        assert mask_for_family("CD-DMS").as_tuple() == (1, 0, 1)
        assert mask_for_family("GNG-DR-2").as_tuple() == (1, 1, 0)
        assert mask_for_family("GNG-DR-4").as_tuple() == (1, 1, 1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            mask_for_family("WCST")

    def test_override_returned_verbatim(self):
        assert mask_for_family((0, 1, 1)).as_tuple() == (0, 1, 1)
        assert mask_for_family([1, 0, 0]).as_tuple() == (1, 0, 0)

    def test_override_must_be_binary_triple(self):
        with pytest.raises(ValueError):
            mask_for_family((1, 0))
        with pytest.raises(ValueError):
            mask_for_family((1, 2, 0))


class TestConfigure:
    def test_exhaustive_selection(self, banks):
        for bits in itertools.product((0, 1), repeat=3):
            cfg = configure(banks, LearningMask(*bits))
            want_d = banks.learnable_bank if bits[0] else banks.fixed_bank
            want_s = banks.learnable_bank if bits[1] else banks.fixed_bank
            want_t = banks.learnable_bank if bits[2] else banks.fixed_bank
            assert cfg.props.tau_d is want_d.tau_d
            assert cfg.props.tau_s is want_s.tau_s
            assert cfg.props.theta is want_t.theta

    def test_paper_rows(self, banks):
        cd = configure(banks, mask_for_family("CD-DMS"))
        assert cd.props.tau_d is banks.learnable_bank.tau_d
        assert cd.props.tau_s is banks.fixed_bank.tau_s
        assert cd.props.theta is banks.learnable_bank.theta
        gng4 = configure(banks, mask_for_family("GNG-DR-4"))
        assert gng4.props.tau_d is banks.learnable_bank.tau_d
        assert gng4.props.tau_s is banks.learnable_bank.tau_s
        assert gng4.props.theta is banks.learnable_bank.theta
        vanilla = configure(banks, LearningMask(0, 0, 0))
        assert vanilla.props.tau_d is banks.fixed_bank.tau_d


class TestApplyUpdate:
    # Adam's first step moves every entry with a nonzero gradient by
    # lr * sign(g) (up to eps), so one fresh optimizer gives hand values.

    def test_masked_out_group_untouched(self, banks, weights):
        cfg = configure(banks, LearningMask(1, 0, 0))
        fixed_theta = banks.fixed_bank.theta.copy()
        fixed_tau_s = banks.fixed_bank.tau_s.copy()
        apply_update(weights, cfg,
                     grads_like(banks, weights, theta=5.0, tau_s=5.0, tau_d=0.0),
                     AdamState(lr=0.1))
        assert np.array_equal(cfg.props.theta, fixed_theta)
        assert np.array_equal(cfg.props.tau_s, fixed_tau_s)

    def test_plain_gradient_step(self, banks, weights):
        # tau_s = 0.5, lr = 0.1, g = 1 -> 0.4
        banks.learnable_bank.tau_s[...] = 0.5
        cfg = configure(banks, LearningMask(0, 1, 0))
        apply_update(weights, cfg, grads_like(banks, weights, tau_s=1.0),
                     AdamState(lr=0.1))
        assert np.allclose(cfg.props.tau_s, 0.4, rtol=0, atol=1e-8)

    def test_clamp_to_unit_interval(self, banks, weights):
        banks.learnable_bank.tau_d[...] = 1.0
        cfg = configure(banks, LearningMask(1, 0, 0))
        apply_update(weights, cfg, grads_like(banks, weights, tau_d=-0.7),
                     AdamState(lr=0.1))
        assert np.all(cfg.props.tau_d == 1.0)  # 1.1 clamped back
        apply_update(weights, cfg, grads_like(banks, weights, tau_d=20.0),
                     AdamState(lr=1.5))
        assert np.all(cfg.props.tau_d == 0.0)  # -0.5 clamped back

    def test_theta_unclamped(self, banks, weights):
        banks.learnable_bank.theta[...] = 1.0
        cfg = configure(banks, LearningMask(0, 0, 1))
        apply_update(weights, cfg, grads_like(banks, weights, theta=-30.0),
                     AdamState(lr=3.0))
        assert np.allclose(cfg.props.theta, 4.0, rtol=0, atol=1e-8)

    def test_update_writes_through_to_bank(self, banks, weights):
        cfg = configure(banks, LearningMask(1, 1, 1))
        apply_update(weights, cfg,
                     grads_like(banks, weights, tau_d=0.5, tau_s=0.5, theta=0.5),
                     AdamState(lr=0.1))
        assert cfg.props.tau_d is banks.learnable_bank.tau_d

    def test_layout_mismatch_rejected(self, banks, weights):
        cfg = configure(banks, LearningMask(0, 1, 0))
        bad = grads_like(banks, weights)
        bad.d_tau_s = np.zeros(7)
        with pytest.raises(ValueError):
            apply_update(weights, cfg, bad, AdamState())

    def test_adam_path(self, banks, weights):
        banks.learnable_bank.tau_s[...] = 0.5
        cfg = configure(banks, LearningMask(0, 1, 0))
        adam = AdamState(lr=0.01, beta1=0.1, beta2=0.3)
        apply_update(weights, cfg, grads_like(banks, weights, tau_s=1.0), adam)
        assert adam.step_count == 1
        assert np.allclose(cfg.props.tau_s, 0.5 - 0.01, atol=1e-9)

    def test_weights_step_in_place(self, banks, weights):
        w_rec = weights.w_rec
        before = w_rec.copy()
        apply_update(weights, configure(banks, LearningMask(0, 0, 0)),
                     grads_like(banks, weights, w=-1.0), AdamState(lr=0.1))
        assert weights.w_rec is w_rec
        assert np.allclose(w_rec, before + 0.1, rtol=0, atol=1e-8)

    def test_every_mask_steps_exactly_weights_and_learnable_groups(self, weights):
        for bits in itertools.product((0, 1), repeat=3):
            banks = make_banks()
            learnable0 = copy.deepcopy(banks.learnable_bank)
            fixed0 = copy.deepcopy(banks.fixed_bank)
            cfg = configure(banks, LearningMask(*bits))
            adam = AdamState(lr=0.01)
            apply_update(weights, cfg,
                         grads_like(banks, weights, 1.0, 1.0, 1.0, w=1.0), adam)
            learnable = [g for g, bit in zip(GROUP_NAMES, bits) if bit]
            assert list(adam.m) == ["w_in", "w_rec", "w_out"] + learnable, bits
            assert adam.step_count == 1
            for group, bit in zip(GROUP_NAMES, bits):
                assert np.array_equal(getattr(banks.fixed_bank, group),
                                      getattr(fixed0, group)), (bits, group)
                moved = not np.array_equal(getattr(banks.learnable_bank, group),
                                           getattr(learnable0, group))
                assert moved == bool(bit), (bits, group)


class TestDefaultBanks:
    def test_fixed_bank_values(self):
        cfg = NetworkConfig(n_neurons=16, n_dendrites=2)
        bank = default_fixed_bank(cfg, 7)
        assert np.all(bank.tau_d == 0.0)
        assert np.all(bank.theta == 1.0)
        assert np.all((bank.tau_s >= 0.9) & (bank.tau_s <= 0.999))

    def test_seeded_determinism(self):
        cfg = NetworkConfig(n_neurons=8, n_dendrites=2)
        a, b = default_fixed_bank(cfg, 3), default_fixed_bank(cfg, 3)
        assert np.array_equal(a.tau_s, b.tau_s)
        c, d = default_learnable_bank(cfg, 4), default_learnable_bank(cfg, 4)
        assert np.array_equal(c.tau_d, d.tau_d)
        assert np.array_equal(c.theta, d.theta)

    def test_learnable_bank_ranges(self):
        cfg = NetworkConfig(n_neurons=32, n_dendrites=2)
        bank = default_learnable_bank(cfg, 5)
        assert np.all((bank.tau_d >= 0.9) & (bank.tau_d <= 0.999))
        assert np.all((bank.tau_s >= 0.9) & (bank.tau_s <= 0.999))
        assert np.all(np.abs(bank.theta - 1.0) <= 0.05)
