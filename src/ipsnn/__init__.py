"""Recurrent spiking networks with gated intrinsic plasticity.

Library layout:

    core        neuron dynamics as a deterministic state machine
    plasticity  learning masks, the two property banks, the optimizer pass
    objective   composite task loss with the homeostatic target
    gradients   task loss and its backprop through time, Adam, FD oracle
    tasks       seeded generators for the four cognitive task families
    harness     sequential-task learning-to-learn driver and metrics
    modularity  multilayer community structure of correlation layers
    analysis    lesion protocol, membrane statistics, delay-period PCA
    tensorio    self-describing tensor container, checkpoints, fixtures
    manifest    run manifests and artifact hashing
    cli         `ipsnn train | analyze | selftest`
"""

__version__ = "0.1.0"
