"""Bi-level intrinsic plasticity: mask configuration and masked updates.

The slow outer level picks, once per task family, which of the three
property groups (dendritic decay, somatic decay, threshold) are learnable;
the chosen configuration is frozen for the whole sequential run. The fast
inner level then fine-tunes the learnable groups together with the synaptic
weights in one optimizer pass per step, with decay factors projected back
onto [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GROUP_NAMES, IntrinsicProperties, NetworkConfig, NetworkWeights

FAMILIES = ("DMS", "CD-DMS", "GNG-DR-2", "GNG-DR-4")

# Per-family learnability of (dendritic decay, somatic decay, threshold).
# All families demand dynamic input integration; the context / 4-channel
# variants add decision complexity; the recall variants add memory fidelity.
_FAMILY_MASKS = {
    "DMS": (1, 0, 0),
    "CD-DMS": (1, 0, 1),
    "GNG-DR-2": (1, 1, 0),
    "GNG-DR-4": (1, 1, 1),
}


@dataclass(frozen=True)
class LearningMask:
    """Binary gates over the three property groups."""

    m1: int  # dendritic decay factors
    m2: int  # somatic decay factors
    m3: int  # firing thresholds

    def __post_init__(self):
        for m in (self.m1, self.m2, self.m3):
            if m not in (0, 1):
                raise ValueError("mask entries must be 0 or 1")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.m1, self.m2, self.m3)


@dataclass
class CandidateProperties:
    """The two property banks the mask selects between.

    ``fixed_bank`` never changes after construction; ``learnable_bank``
    holds the trainable values.
    """

    learnable_bank: IntrinsicProperties
    fixed_bank: IntrinsicProperties


@dataclass
class ConfiguredProperties:
    """The active property view after per-group bank selection."""

    props: IntrinsicProperties
    mask: LearningMask


def mask_for_family(family) -> LearningMask:
    """Learning mask for a task family, or an explicit 3-vector override."""
    if isinstance(family, str):
        try:
            return LearningMask(*_FAMILY_MASKS[family])
        except KeyError:
            raise ValueError(f"unknown task family: {family!r}") from None
    vec = tuple(int(v) for v in family)
    if len(vec) != 3:
        raise ValueError("mask override must have exactly 3 entries")
    return LearningMask(*vec)


def configure(candidates: CandidateProperties, mask: LearningMask) -> ConfiguredProperties:
    """Select each property group from the bank its mask bit names.

    The returned view aliases the bank arrays, so inner-loop updates to a
    learnable group write through to the learnable bank while fixed groups
    stay bound to the untouched fixed bank.
    """
    props = IntrinsicProperties(*(
        getattr(candidates.learnable_bank if bit else candidates.fixed_bank, group)
        for group, bit in zip(GROUP_NAMES, mask.as_tuple())))
    return ConfiguredProperties(props=props, mask=mask)


def apply_update(weights: NetworkWeights, configured: ConfiguredProperties,
                 gradients, optimizer) -> None:
    """One optimizer pass over the weights and the learnable property groups.

    Ticks the optimizer once, then steps ``w_in``, ``w_rec``, ``w_out`` and
    every group the mask marks learnable, in place. Fixed groups are left
    bit-unchanged; decay-factor groups are clamped back to [0, 1] after the
    step, thresholds are left free.
    """
    params = {name: getattr(weights, name) for name in ("w_in", "w_rec", "w_out")}
    for group, bit in zip(GROUP_NAMES, configured.mask.as_tuple()):
        if bit:
            params[group] = getattr(configured.props, group)
    optimizer.tick()
    for name, arr in params.items():
        g = getattr(gradients, "d_" + name)
        if g.shape != arr.shape:
            raise ValueError(f"{name}: gradient/parameter layout mismatch")
        new = optimizer.step(name, arr, g)
        if name in ("tau_d", "tau_s"):
            np.clip(new, 0.0, 1.0, out=new)
        arr[...] = new


def default_fixed_bank(config: NetworkConfig, seed) -> IntrinsicProperties:
    """Frozen defaults: instant dendrites, slow seeded somatic leak, unit threshold."""
    rng = np.random.default_rng(seed)
    n, d = config.n_neurons, config.n_dendrites
    return IntrinsicProperties(
        tau_d=np.zeros((n, d), dtype=np.float64),
        tau_s=rng.uniform(0.9, 0.999, size=n),
        theta=np.ones(n, dtype=np.float64),
    )


def default_learnable_bank(config: NetworkConfig, seed) -> IntrinsicProperties:
    """Trainable starting values: decay factors near 1, thresholds jittered around 1."""
    rng = np.random.default_rng(seed)
    n, d = config.n_neurons, config.n_dendrites
    return IntrinsicProperties(
        tau_d=rng.uniform(0.9, 0.999, size=(n, d)),
        tau_s=rng.uniform(0.9, 0.999, size=n),
        theta=1.0 + rng.uniform(-0.05, 0.05, size=n),
    )
