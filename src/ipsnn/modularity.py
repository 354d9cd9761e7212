"""Multilayer community structure of time-windowed correlation graphs.

Layers are sliding windows over membrane-potential activity; within-layer
adjacency is the pairwise Pearson correlation with negative entries clipped
to zero (the degree-based null model assumes nonnegative weights), and each
node is coupled to itself in temporally adjacent layers with strength C.

Quality of a labeling g is

    Q = (1/2mu) [ sum_l sum_ij (F_ijl - gamma_l k_il k_jl / 2m_l) d(g_il, g_jl)
                  + sum_j sum_{|l-r|=1} C d(g_jl, g_jr) ]

with 2mu = sum_l 2m_l + total inter-layer coupling. The i = j null-model
terms stay in the sum (d(g,g) = 1), following the usual convention.
Optimization runs a generalized Louvain (local moves + aggregation) on the
supra-modularity matrix, restarted over seeded node orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LayeredNetwork:
    adjacency: np.ndarray          # [L, n, n] symmetric, nonnegative
    gamma: np.ndarray              # [L] resolution per layer
    coupling: float = 1.0          # C for |l - r| = 1

    def __post_init__(self):
        a = self.adjacency
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError("adjacency must be [L, n, n]")
        if not np.allclose(a, np.transpose(a, (0, 2, 1))):
            raise ValueError("adjacency layers must be symmetric")
        self.gamma = np.broadcast_to(np.asarray(self.gamma, float),
                                     (a.shape[0],)).copy()
        if np.any(self.gamma <= 0):
            raise ValueError("gamma must be positive")
        if self.coupling < 0:
            raise ValueError("coupling must be >= 0")

    @property
    def n_layers(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[1]

    def total_coupling(self) -> float:
        """Sum of C_jlr over nodes and ordered layer pairs."""
        return 2.0 * self.coupling * self.n_nodes * max(self.n_layers - 1, 0)

    def two_mu(self) -> float:
        return float(self.adjacency.sum() + self.total_coupling())


@dataclass
class CommunityAssignment:
    labels: np.ndarray  # [L, n] nonnegative ints

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2:
            raise ValueError("labels must be [L, n]")
        if np.any(self.labels < 0):
            raise ValueError("labels must be nonnegative")


@dataclass
class ModularityReport:
    q: float
    community_counts: np.ndarray  # C_l per layer
    mean_communities: float       # C-bar
    stationarity_per_community: dict
    mean_stationarity: float      # S-bar
    allegiance: np.ndarray        # [n, n]


def build_layers(v: np.ndarray, window_steps: int, stride: int,
                 gamma: float = 1.0, coupling: float = 1.0) -> LayeredNetwork:
    """Sliding-window correlation layers over an activity matrix [T, n].

    Neuron pairs with an undefined correlation inside a window (zero
    variance) get no edge. Layer count is floor((T - window)/stride) + 1.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError("activity must be [T, n]")
    t_steps, n = v.shape
    if window_steps < 2 or window_steps > t_steps:
        raise ValueError("window must lie in [2, T]")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n_layers = (t_steps - window_steps) // stride + 1
    layers = np.zeros((n_layers, n, n))
    for l in range(n_layers):
        chunk = v[l * stride: l * stride + window_steps]
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.corrcoef(chunk.T)
        corr = np.nan_to_num(corr, nan=0.0)
        # (near-)constant series have no meaningful correlation; drop their edges
        dead = chunk.std(axis=0) < 1e-12
        corr[dead, :] = 0.0
        corr[:, dead] = 0.0
        np.fill_diagonal(corr, 0.0)
        np.clip(corr, 0.0, None, out=corr)
        layers[l] = (corr + corr.T) / 2.0
    return LayeredNetwork(adjacency=layers, gamma=np.full(n_layers, gamma),
                          coupling=coupling)


def modularity_Q(network: LayeredNetwork, assignment: CommunityAssignment) -> float:
    """Evaluate the multilayer quality of a labeling."""
    labels = assignment.labels
    if labels.shape != (network.n_layers, network.n_nodes):
        raise ValueError("labels do not match the network shape")
    total = 0.0
    for l in range(network.n_layers):
        a = network.adjacency[l]
        k = a.sum(axis=1)
        two_m = k.sum()
        same = labels[l][:, None] == labels[l][None, :]
        if two_m > 0:
            b = a - network.gamma[l] * np.outer(k, k) / two_m
        else:
            b = a
        total += b[same].sum()
    for l in range(network.n_layers - 1):
        match = labels[l] == labels[l + 1]
        total += 2.0 * network.coupling * match.sum()
    return float(total / network.two_mu())


def supra_modularity_matrix(network: LayeredNetwork) -> np.ndarray:
    """Stack layers into one [nL, nL] matrix whose within-block entries are
    the modularity contributions and whose off-blocks hold the coupling."""
    n, n_layers = network.n_nodes, network.n_layers
    big = np.zeros((n * n_layers, n * n_layers))
    for l in range(n_layers):
        a = network.adjacency[l]
        k = a.sum(axis=1)
        two_m = k.sum()
        block = a.copy()
        if two_m > 0:
            block -= network.gamma[l] * np.outer(k, k) / two_m
        sl = slice(l * n, (l + 1) * n)
        big[sl, sl] = block
    idx = np.arange(n)
    for l in range(n_layers - 1):
        big[l * n + idx, (l + 1) * n + idx] = network.coupling
        big[(l + 1) * n + idx, l * n + idx] = network.coupling
    return big


def _q_from_supra(big: np.ndarray, flat_labels: np.ndarray, two_mu: float) -> float:
    same = flat_labels[:, None] == flat_labels[None, :]
    return float(big[same].sum() / two_mu)


def _local_moves(big: np.ndarray, labels: np.ndarray,
                 rng: np.random.Generator) -> bool:
    """Greedy node moves until no single move raises the objective."""
    n = len(labels)
    improved_any = False
    while True:
        moved = False
        for v in rng.permutation(n):
            row = big[v]
            sums = np.bincount(labels, weights=row, minlength=labels.max() + 2)
            own = labels[v]
            base = sums[own] - big[v, v]  # B[v,v] travels with the node
            gains = sums - base
            gains[own] = 0.0
            best = int(np.argmax(gains))
            if gains[best] > 1e-12 and best != own:
                labels[v] = best
                moved = True
        if not moved:
            break
        improved_any = True
    return improved_any


def _compress(labels: np.ndarray) -> np.ndarray:
    _, compact = np.unique(labels, return_inverse=True)
    return compact


def _louvain_single(big: np.ndarray, rng: np.random.Generator,
                    init: np.ndarray | None = None) -> np.ndarray:
    """One run: leaf-level moves and community-level moves until stable.

    Refining at the leaf level between aggregation rounds lets single nodes
    escape communities that an earlier aggregation froze them into.
    """
    n = len(big)
    mapping = np.arange(n) if init is None else _compress(init)
    improved = True
    while improved:
        improved = False
        labels = mapping.copy()
        if _local_moves(big, labels, rng):
            improved = True
        mapping = _compress(labels)
        n_comm = mapping.max() + 1
        if n_comm < n:
            onehot = np.zeros((n, n_comm))
            onehot[np.arange(n), mapping] = 1.0
            b_agg = onehot.T @ big @ onehot
            agg_labels = np.arange(n_comm)
            if _local_moves(b_agg, agg_labels, rng):
                improved = True
                mapping = _compress(agg_labels)[mapping]
    return _compress(mapping)


def louvain_optimize(network: LayeredNetwork, seed=0,
                     restarts: int = 20) -> CommunityAssignment:
    """Seeded generalized Louvain; best labeling over restarts.

    The first restart sweeps from the all-singletons start, the rest from
    seeded random partitions (local optima can capture every singleton
    trajectory on small graphs). The returned labeling never scores below
    the all-singletons or the single-community baselines.
    """
    big = supra_modularity_matrix(network)
    two_mu = network.two_mu()
    n, n_layers = network.n_nodes, network.n_layers
    size = n * n_layers
    rng = np.random.default_rng(np.random.SeedSequence([_as_seed_int(seed), 7]))
    best_labels = np.arange(size)
    best_q = _q_from_supra(big, best_labels, two_mu)
    one = np.zeros(size, dtype=int)
    q_one = _q_from_supra(big, one, two_mu)
    if q_one > best_q:
        best_labels, best_q = one, q_one
    for attempt in range(max(restarts, 1)):
        if attempt == 0:
            init = None
        else:
            k = int(rng.integers(1, size + 1))
            init = rng.integers(0, k, size=size)
        labels = _louvain_single(big, rng, init=init)
        q = _q_from_supra(big, labels, two_mu)
        if q > best_q + 1e-15:
            best_q, best_labels = q, labels
    return CommunityAssignment(labels=best_labels.reshape(n_layers, n))


def _as_seed_int(seed) -> int:
    return int(seed) & (2 ** 63 - 1)


def community_count(assignment: CommunityAssignment) -> tuple[np.ndarray, float]:
    """Distinct labels per layer and their mean across layers."""
    counts = np.array([len(np.unique(layer)) for layer in assignment.labels])
    return counts, float(counts.mean())


def _indicator_corr(a: np.ndarray, b: np.ndarray) -> float:
    # Pearson on membership indicators; constant vectors have no variance,
    # so equality decides the degenerate case (identical membership -> 1).
    if a.std() == 0.0 or b.std() == 0.0:
        return 1.0 if np.array_equal(a, b) else 0.0
    return float(np.corrcoef(a, b)[0, 1])


def stationarity(assignment: CommunityAssignment) -> tuple[dict, float]:
    """Per-community temporal consistency and its mean.

    A community's score averages the correlation of its membership
    indicator between consecutive windows where it is detected; communities
    present in fewer than two windows are excluded.
    """
    labels = assignment.labels
    per_community = {}
    for c in np.unique(labels):
        members = labels == c  # [L, n] indicator per layer
        detected = np.flatnonzero(members.any(axis=1))
        if len(detected) < 2:
            continue
        corrs = [_indicator_corr(members[l1].astype(float), members[l2].astype(float))
                 for l1, l2 in zip(detected[:-1], detected[1:])]
        per_community[int(c)] = float(np.mean(corrs))
    mean = float(np.mean(list(per_community.values()))) if per_community else float("nan")
    return per_community, mean


def allegiance_matrix(assignment: CommunityAssignment) -> np.ndarray:
    """Fraction of layers in which each node pair shares a community."""
    labels = assignment.labels
    n_layers = labels.shape[0]
    acc = np.zeros((labels.shape[1], labels.shape[1]))
    for l in range(n_layers):
        acc += labels[l][:, None] == labels[l][None, :]
    return acc / n_layers


def modularity_report(network: LayeredNetwork,
                      assignment: CommunityAssignment) -> ModularityReport:
    counts, mean_counts = community_count(assignment)
    per_c, mean_s = stationarity(assignment)
    return ModularityReport(
        q=modularity_Q(network, assignment),
        community_counts=counts,
        mean_communities=mean_counts,
        stationarity_per_community=per_c,
        mean_stationarity=mean_s,
        allegiance=allegiance_matrix(assignment),
    )
