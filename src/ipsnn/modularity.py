"""Multilayer community structure of time-windowed correlation graphs.

Layers are sliding windows over membrane-potential activity; within-layer
adjacency is the pairwise Pearson correlation with negative entries clipped
to zero (the degree-based null model assumes nonnegative weights), and each
node is coupled to itself in temporally adjacent layers with strength C.

Quality of a labeling g is

    Q = (1/2mu) [ sum_l sum_ij (F_ijl - gamma_l k_il k_jl / 2m_l) d(g_il, g_jl)
                  + sum_j sum_{|l-r|=1} C d(g_jl, g_jr) ]

with 2mu = sum_l 2m_l + total inter-layer coupling. The i = j null-model
terms stay in the sum (d(g,g) = 1), following the usual convention. When
2mu = 0 (no positive edge and no coupling) every labeling scores the same,
and Q is defined as 0.0.

Optimization runs a generalized Louvain (local moves + aggregation),
restarted over seeded node orders, on the per-layer blocks
B_l = A_l - gamma_l k_l k_l^T / 2m_l and the coupling C. The nL x nL
supra-modularity matrix is never formed: memory is O(L n^2) plus the
c x c matrix of the c communities an aggregation round merges.
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

    def two_mu(self) -> float:
        """Total edge weight plus C_jlr summed over nodes and ordered layer pairs."""
        coupling = 2.0 * self.coupling * self.n_nodes * max(self.n_layers - 1, 0)
        return float(self.adjacency.sum() + coupling)


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


def modularity_blocks(network: LayeredNetwork) -> np.ndarray:
    """[L, n, n] per-layer quality contributions B[l] = A_l - gamma_l k k^T / 2m_l
    (B[l] = A_l when 2m_l = 0)."""
    blocks = network.adjacency.copy()
    for l, a in enumerate(network.adjacency):
        k = a.sum(axis=1)
        two_m = k.sum()
        if two_m > 0:
            blocks[l] -= network.gamma[l] * np.outer(k, k) / two_m
    return blocks


def _quality(blocks: np.ndarray, coupling: float, two_mu: float,
             labels: np.ndarray) -> float:
    """Q of an [L, n] labeling from the blocks; 0.0 when 2mu = 0."""
    if two_mu == 0:
        return 0.0
    total = 0.0
    for block, layer in zip(blocks, labels):
        total += block[layer[:, None] == layer[None, :]].sum()
    for l in range(len(labels) - 1):
        total += 2.0 * coupling * (labels[l] == labels[l + 1]).sum()
    return float(total / two_mu)


def modularity_Q(network: LayeredNetwork, assignment: CommunityAssignment) -> float:
    """Evaluate the multilayer quality of a labeling."""
    labels = assignment.labels
    if labels.shape != (network.n_layers, network.n_nodes):
        raise ValueError("labels do not match the network shape")
    return _quality(modularity_blocks(network), network.coupling,
                    network.two_mu(), labels)


def _move_weights(blocks: np.ndarray, coupling: float) -> np.ndarray:
    """[L, n, n + 2]: row (l, i) is B[l, i] between the coupling of (l, i) to
    (l - 1, i) and to (l + 1, i), the order of the supra-matrix row."""
    n_layers = len(blocks)
    weights = np.pad(blocks, ((0, 0), (0, 0), (1, 1)))
    weights[1:, :, 0] = coupling
    weights[:n_layers - 1, :, -1] = coupling
    return weights


def _padded(labels: np.ndarray) -> np.ndarray:
    """[L, n] labels with a column either side for the coupled neighbours'."""
    return np.pad(labels, ((0, 0), (1, 1)))


def _local_moves(weights: np.ndarray, labels: np.ndarray,
                 rng: np.random.Generator) -> bool:
    """Greedy node moves until no single move raises the objective.

    ``weights`` comes from ``_move_weights`` and ``labels`` from ``_padded``;
    before node (l, i) is visited, the pad columns of layer l take the labels
    of (l - 1, i) and (l + 1, i), so one bincount over the layer gives its
    per-community sums. ``top`` bounds the largest label in use, so every
    visit also sees one empty community.
    """
    n_layers, n = labels.shape[0], labels.shape[1] - 2
    top = int(labels.max())
    improved_any = False
    while True:
        moved = False
        for v in rng.permutation(n_layers * n).tolist():
            l, i = divmod(v, n)
            row = labels[l]
            # at the first and last layer the wrapped-around pad has weight 0
            row[0], row[-1] = labels[l - 1, i + 1], labels[(l + 1) % n_layers, i + 1]
            w = weights[l, i]
            sums = np.bincount(row, weights=w, minlength=top + 2)
            own = row[i + 1]
            sums -= sums[own] - w[i + 1]  # B[v,v] travels with the node
            sums[own] = 0.0
            best = int(sums.argmax())
            if sums[best] > 1e-12:
                row[i + 1] = best
                top = max(top, best)
                moved = True
        if not moved:
            break
        improved_any = True
    return improved_any


def _aggregate(blocks: np.ndarray, coupling: float, mapping: np.ndarray,
               n_comm: int) -> np.ndarray:
    """Move weights [1, c, c + 2] of the community network of an [L, n]
    ``mapping``: entry [0, c, d + 1] sums the supra-node pair contributions
    between communities c and d, and the pad columns stay zero."""
    width = n_comm + 2
    keys = mapping[:, :, None] * width + (mapping[:, None, :] + 1)
    agg = np.bincount(keys.ravel(), weights=blocks.ravel(),
                      minlength=n_comm * width)
    a, b = mapping[:-1].ravel(), mapping[1:].ravel()
    np.add.at(agg, np.concatenate([a * width + b, b * width + a]) + 1, coupling)
    return agg.reshape(1, n_comm, width)


def _compress(labels: np.ndarray) -> np.ndarray:
    _, compact = np.unique(labels, return_inverse=True)
    return compact.reshape(labels.shape)


def _louvain_single(blocks: np.ndarray, coupling: float, weights: np.ndarray,
                    rng: np.random.Generator, mapping: np.ndarray) -> np.ndarray:
    """One run from the compact [L, n] labeling ``mapping``: leaf-level moves
    and community-level moves until stable.

    Refining at the leaf level between aggregation rounds lets single nodes
    escape communities that an earlier aggregation froze them into.
    """
    size = mapping.size
    improved = True
    while improved:
        improved = False
        labels = _padded(mapping)
        if _local_moves(weights, labels, rng):
            improved = True
        mapping = _compress(labels[:, 1:-1])
        n_comm = int(mapping.max()) + 1
        if n_comm < size:
            agg_labels = _padded(np.arange(n_comm)[None])
            if _local_moves(_aggregate(blocks, coupling, mapping, n_comm),
                            agg_labels, rng):
                improved = True
                mapping = _compress(agg_labels[0, 1:-1])[mapping]
    return _compress(mapping)


def louvain_optimize(network: LayeredNetwork, seed=0,
                     restarts: int = 20) -> CommunityAssignment:
    """Seeded generalized Louvain; best labeling over restarts.

    The first restart sweeps from the all-singletons start, the rest from
    seeded random partitions (local optima can capture every singleton
    trajectory on small graphs). The returned labeling never scores below
    the all-singletons or the single-community baselines.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    blocks = modularity_blocks(network)
    coupling, two_mu = network.coupling, network.two_mu()
    weights = _move_weights(blocks, coupling)
    n, n_layers = network.n_nodes, network.n_layers
    size = n * n_layers
    rng = np.random.default_rng(np.random.SeedSequence([_as_seed_int(seed), 7]))
    best_labels = np.arange(size).reshape(n_layers, n)
    best_q = _quality(blocks, coupling, two_mu, best_labels)
    one = np.zeros((n_layers, n), dtype=int)
    q_one = _quality(blocks, coupling, two_mu, one)
    if q_one > best_q:
        best_labels, best_q = one, q_one
    for attempt in range(restarts):
        init = np.arange(size)
        if attempt > 0:
            k = int(rng.integers(1, size + 1))
            init = rng.integers(0, k, size=size)
        labels = _louvain_single(blocks, coupling, weights, rng,
                                 _compress(init.reshape(n_layers, n)))
        q = _quality(blocks, coupling, two_mu, labels)
        if q > best_q + 1e-15:
            best_q, best_labels = q, labels
    return CommunityAssignment(labels=best_labels)


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
