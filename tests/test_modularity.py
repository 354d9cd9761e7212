"""Multilayer modularity: hand fixtures, brute-force oracle, Louvain."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ipsnn.modularity import (CommunityAssignment, LayeredNetwork,
                              _aggregate, _local_moves, _move_weights,
                              _padded, allegiance_matrix, build_layers,
                              community_count, louvain_optimize,
                              modularity_blocks, modularity_Q,
                              modularity_report, stationarity)
from ipsnn.verification import (brute_force_best_partition,
                                reference_pair_matrix, set_partitions)


def two_cliques_layer() -> np.ndarray:
    """Two disjoint 3-cliques on 6 nodes."""
    a = np.zeros((6, 6))
    for group in ((0, 1, 2), (3, 4, 5)):
        for i in group:
            for j in group:
                if i != j:
                    a[i, j] = 1.0
    return a


def single_layer(adj: np.ndarray, gamma=1.0) -> LayeredNetwork:
    return LayeredNetwork(adjacency=adj[None], gamma=np.array([gamma]),
                          coupling=0.0)


def random_network(rng, n_layers, n, gamma=1.0, coupling=0.5) -> LayeredNetwork:
    adj = np.zeros((n_layers, n, n))
    for l in range(n_layers):
        a = np.triu(rng.uniform(size=(n, n)) * (rng.random((n, n)) < 0.6), 1)
        adj[l] = a + a.T
    return LayeredNetwork(adjacency=adj, gamma=gamma, coupling=coupling)


def dense_supra_matrix(network: LayeredNetwork) -> np.ndarray:
    """The [nL, nL] supra-modularity matrix, assembled from the production
    blocks so that its entries carry the same bits."""
    n, n_layers = network.n_nodes, network.n_layers
    big = np.zeros((n * n_layers, n * n_layers))
    for l, block in enumerate(modularity_blocks(network)):
        big[l * n:(l + 1) * n, l * n:(l + 1) * n] = block
    idx = np.arange(n * (n_layers - 1))
    big[idx, idx + n] = big[idx + n, idx] = network.coupling
    return big


def dense_local_moves(big, labels, rng) -> bool:
    """Greedy moves on a dense matrix, one bincount over a whole row per visit."""
    improved_any = False
    while True:
        moved = False
        for v in rng.permutation(len(labels)):
            sums = np.bincount(labels, weights=big[v], minlength=labels.max() + 2)
            own = labels[v]
            gains = sums - (sums[own] - big[v, v])
            gains[own] = 0.0
            best = int(np.argmax(gains))
            if gains[best] > 1e-12 and best != own:
                labels[v] = best
                moved = True
        if not moved:
            return improved_any
        improved_any = True


def window_fixture() -> LayeredNetwork:
    v = np.random.default_rng(20).normal(size=(120, 12))
    return build_layers(v, window_steps=40, stride=40)


def coupled_fixture() -> LayeredNetwork:
    rng = np.random.default_rng(21)
    adj = np.zeros((2, 8, 8))
    for l in range(2):
        a = np.triu(rng.uniform(size=(8, 8)), 1)
        adj[l] = a + a.T
    return LayeredNetwork(adjacency=adj, gamma=np.array([1.0, 1.3]),
                          coupling=0.7)


class TestModularityQ:
    def test_two_cliques_natural_partition(self):
        # per clique: within-weight 6, null 36/12 = 3 -> (6-3)*2/12 = 0.5
        net = single_layer(two_cliques_layer())
        labels = CommunityAssignment(np.array([[0, 0, 0, 1, 1, 1]]))
        assert modularity_Q(net, labels) == pytest.approx(0.5, abs=1e-12)

    def test_complete_graph_one_community(self):
        # all-in-one on any single layer scores exactly zero: the adjacency
        # total equals the null-model total once self null-terms stay in
        a = np.ones((5, 5)) - np.eye(5)
        net = single_layer(a)
        labels = CommunityAssignment(np.zeros((1, 5), dtype=int))
        assert modularity_Q(net, labels) == pytest.approx(0.0, abs=1e-12)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(7, 7))
        a = np.triu(a, 1)
        net = single_layer(a + a.T)
        labels = rng.integers(0, 3, size=(1, 7))
        q1 = modularity_Q(net, CommunityAssignment(labels))
        permuted = np.choose(labels, [2, 0, 1])
        q2 = modularity_Q(net, CommunityAssignment(permuted))
        assert q1 == pytest.approx(q2, abs=1e-14)

    def test_matches_supra_matrix_evaluation(self):
        rng = np.random.default_rng(1)
        adj = np.zeros((2, 5, 5))
        for l in range(2):
            a = np.triu(rng.uniform(size=(5, 5)), 1)
            adj[l] = a + a.T
        net = LayeredNetwork(adjacency=adj, gamma=np.array([1.0, 1.3]),
                             coupling=0.7)
        labels = rng.integers(0, 3, size=(2, 5))
        pair, two_mu = reference_pair_matrix(net)
        flat = labels.reshape(-1)
        q_direct = modularity_Q(net, CommunityAssignment(labels))
        q_supra = pair[flat[:, None] == flat[None, :]].sum() / two_mu
        assert q_direct == pytest.approx(q_supra, abs=1e-12)

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(2)
        adj = np.zeros((2, 4, 4))
        for l in range(2):
            a = np.triu(rng.uniform(size=(4, 4)), 1)
            adj[l] = a + a.T
        net = LayeredNetwork(adjacency=adj, gamma=np.ones(2), coupling=0.5)
        pair, two_mu = reference_pair_matrix(net)
        labels = rng.integers(0, 2, size=(2, 4))
        flat = labels.reshape(-1)
        q_ref = pair[flat[:, None] == flat[None, :]].sum() / two_mu
        assert modularity_Q(net, CommunityAssignment(labels)) == pytest.approx(
            q_ref, abs=1e-12)

    def test_coupling_rewards_temporal_continuity(self):
        adj = np.stack([two_cliques_layer(), two_cliques_layer()])
        net = LayeredNetwork(adjacency=adj, gamma=np.ones(2), coupling=1.0)
        stable = np.array([[0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1]])
        relabeled = np.array([[0, 0, 0, 1, 1, 1], [2, 2, 2, 3, 3, 3]])
        q_stable = modularity_Q(net, CommunityAssignment(stable))
        q_relabel = modularity_Q(net, CommunityAssignment(relabeled))
        assert q_stable > q_relabel

    def test_no_positive_edge_scores_zero(self):
        # 2mu = 0: a silent recording, one window, so no edge and no coupling
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            net = build_layers(np.full((40, 5), -65.0), window_steps=40, stride=40)
            assert net.two_mu() == 0.0
            result = louvain_optimize(net, seed=0, restarts=3)
            report = modularity_report(net, result)
            q_split = modularity_Q(net, CommunityAssignment(np.arange(5)[None]))
        assert report.q == 0.0 and q_split == 0.0


class TestAggregation:
    def test_community_matrix_matches_dense_product(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, 3, 6, gamma=np.array([1.0, 0.8, 1.2]),
                             coupling=0.6)
        mapping = rng.integers(0, 5, size=(3, 6))
        mapping = np.unique(mapping, return_inverse=True)[1].reshape(3, 6)
        n_comm = int(mapping.max()) + 1
        onehot = np.zeros((18, n_comm))
        onehot[np.arange(18), mapping.ravel()] = 1.0
        pair, _ = reference_pair_matrix(net)
        agg = _aggregate(modularity_blocks(net), net.coupling, mapping, n_comm)
        assert agg.shape == (1, n_comm, n_comm + 2)
        np.testing.assert_allclose(agg[0, :, 1:-1], onehot.T @ pair @ onehot,
                                   rtol=0.0, atol=1e-12)
        assert np.all(agg[0, :, [0, -1]] == 0.0)

    @staticmethod
    def assert_dense_moves_agree(net, start, seed):
        # same visit order, same per-community sums bit for bit, same labels
        dense = start.copy()
        moved = dense_local_moves(dense_supra_matrix(net), dense,
                                  np.random.default_rng(seed))
        labels = _padded(start.reshape(net.n_layers, net.n_nodes))
        weights = _move_weights(modularity_blocks(net), net.coupling)
        assert _local_moves(weights, labels, np.random.default_rng(seed)) == moved
        np.testing.assert_array_equal(labels[:, 1:-1].ravel(), dense)

    @pytest.mark.parametrize("seed", range(6))
    def test_leaf_moves_equal_dense_row_moves(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(1, 5)), int(rng.integers(3, 9)),
                             coupling=float(rng.uniform(0.0, 1.5)))
        start = rng.integers(0, 4, size=net.n_layers * net.n_nodes)
        self.assert_dense_moves_agree(net, start, seed)

    def test_leaf_moves_open_new_communities(self):
        # from one community, each clique in turn leaves for an unused label
        a = np.zeros((9, 9))
        for g in range(3):
            a[3 * g:3 * g + 3, 3 * g:3 * g + 3] = 1.0 - np.eye(3)
        net = LayeredNetwork(adjacency=np.stack([a, a]), gamma=3.0, coupling=0.2)
        for seed in range(4):
            self.assert_dense_moves_agree(net, np.zeros(18, dtype=int), seed)


class TestLouvain:
    def test_recovers_planted_two_cliques(self):
        net = single_layer(two_cliques_layer())
        result = louvain_optimize(net, seed=0)
        q = modularity_Q(net, result)
        assert q == pytest.approx(0.5, abs=1e-12)
        labels = result.labels[0]
        assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_matches_brute_force_on_random_fixtures(self):
        rng = np.random.default_rng(42)
        for trial in range(6):
            n = int(rng.integers(4, 7))
            a = np.triu(rng.uniform(size=(n, n)) * (rng.random((n, n)) < 0.6), 1)
            net = single_layer(a + a.T)
            _, q_best = brute_force_best_partition(net)
            found = louvain_optimize(net, seed=trial, restarts=24)
            assert modularity_Q(net, found) == pytest.approx(q_best, abs=1e-9)

    def test_strong_coupling_aligns_layers(self):
        rng = np.random.default_rng(3)
        adj = np.zeros((2, 6, 6))
        adj[0] = two_cliques_layer()
        a = np.triu(rng.uniform(size=(6, 6)), 1)
        adj[1] = a + a.T
        net = LayeredNetwork(adjacency=adj, gamma=np.ones(2), coupling=100.0)
        result = louvain_optimize(net, seed=0)
        assert np.array_equal(result.labels[0], result.labels[1])

    def test_never_below_trivial_baselines(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            a = np.triu(rng.uniform(size=(6, 6)), 1)
            net = single_layer(a + a.T)
            best = louvain_optimize(net, seed=trial, restarts=4)
            q = modularity_Q(net, best)
            singles = CommunityAssignment(np.arange(6)[None])
            ones = CommunityAssignment(np.zeros((1, 6), dtype=int))
            assert q >= modularity_Q(net, singles) - 1e-12
            assert q >= modularity_Q(net, ones) - 1e-12

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(8)
        a = np.triu(rng.uniform(size=(7, 7)), 1)
        net = single_layer(a + a.T)
        r1 = louvain_optimize(net, seed=4)
        r2 = louvain_optimize(net, seed=4)
        assert np.array_equal(r1.labels, r2.labels)

    def test_golden_labels(self):
        # labels the dense supra-matrix implementation returned on these fixtures
        found = louvain_optimize(window_fixture(), seed=0, restarts=4)
        assert found.labels.tolist() == [[1, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1]] * 3
        found = louvain_optimize(coupled_fixture(), seed=0, restarts=8)
        assert found.labels.tolist() == [[0, 2, 0, 2, 2, 0, 2, 1]] * 2

    def test_zero_restarts_rejected(self):
        net = single_layer(two_cliques_layer())
        for restarts in (0, -1):
            with pytest.raises(ValueError, match="restarts"):
                louvain_optimize(net, seed=0, restarts=restarts)

    def test_memory_stays_below_the_dense_matrix(self):
        # 32 layers x 64 nodes: the dense supra-matrix alone is 33.5 MB
        v = np.random.default_rng(9).normal(size=(32 * 20, 64))
        net = build_layers(v, window_steps=20, stride=20)
        dense_bytes = (net.n_layers * net.n_nodes) ** 2 * 8
        tracemalloc.start()
        try:
            louvain_optimize(net, seed=0, restarts=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 3


class TestSetPartitions:
    def test_bell_numbers(self):
        for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52)):
            assert sum(1 for _ in set_partitions(n)) == bell


class TestCommunityCount:
    def test_distinct_labels(self):
        counts, mean = community_count(
            CommunityAssignment(np.array([[0, 0, 1, 1, 2]])))
        assert counts.tolist() == [3] and mean == 3.0

    def test_single_community(self):
        counts, _ = community_count(CommunityAssignment(np.zeros((1, 6), int)))
        assert counts.tolist() == [1]

    def test_mean_across_layers(self):
        labels = np.array([[0, 0, 1, 1], [0, 1, 2, 3]])
        counts, mean = community_count(CommunityAssignment(labels))
        assert counts.tolist() == [2, 4] and mean == 3.0


class TestStationarity:
    def test_identical_membership_scores_one(self):
        labels = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 1, 1]])
        per_c, mean = stationarity(CommunityAssignment(labels))
        assert per_c == {0: 1.0, 1: 1.0} and mean == 1.0

    def test_single_layer_community_excluded(self):
        labels = np.array([[0, 0, 1, 1], [0, 0, 0, 0]])
        per_c, _ = stationarity(CommunityAssignment(labels))
        assert 1 not in per_c  # community 1 exists in layer 0 only

    def test_half_overlap_hand_value(self):
        # community 0 members: layer 0 -> {0,1}, layer 1 -> {1,2} of 4 nodes.
        # Pearson of [1,1,0,0] and [0,1,1,0] = (1/4 - 1/4) / (1/4) = 0
        labels = np.array([[0, 0, 1, 1], [1, 0, 0, 1]])
        per_c, _ = stationarity(CommunityAssignment(labels))
        assert per_c[0] == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=(5, 8))
        _, mean = stationarity(CommunityAssignment(labels))
        assert -1.0 <= mean <= 1.0


class TestAllegiance:
    def test_single_layer_binary(self):
        m = allegiance_matrix(CommunityAssignment(np.array([[0, 0, 1]])))
        assert set(np.unique(m)) <= {0.0, 1.0}

    def test_unit_diagonal(self):
        rng = np.random.default_rng(1)
        m = allegiance_matrix(
            CommunityAssignment(rng.integers(0, 4, size=(6, 9))))
        assert np.all(np.diag(m) == 1.0)
        assert np.array_equal(m, m.T)
        assert np.all((m >= 0.0) & (m <= 1.0))

    def test_switching_node_fractions(self):
        # node 2 shares with {0,1} in layer 0 and with {3} in layer 1
        labels = np.array([[0, 0, 0, 1], [0, 0, 1, 1]])
        m = allegiance_matrix(CommunityAssignment(labels))
        assert m[2, 0] == 0.5 and m[2, 1] == 0.5
        assert m[2, 3] == 0.5
        assert m[0, 1] == 1.0


class TestBuildLayers:
    def test_layer_count_formula(self):
        v = np.random.default_rng(0).normal(size=(200, 4))
        net = build_layers(v, window_steps=50, stride=50)
        assert net.n_layers == 4

    def test_identical_windows_identical_layers(self):
        block = np.random.default_rng(1).normal(size=(25, 5))
        v = np.tile(block, (4, 1))
        net = build_layers(v, window_steps=25, stride=25)
        for l in range(1, 4):
            np.testing.assert_array_equal(net.adjacency[l], net.adjacency[0])

    def test_anticorrelated_pair_clipped(self):
        t = np.linspace(0, 1, 50)
        v = np.stack([t, -t, t * 0.5], axis=1)
        net = build_layers(v, window_steps=50, stride=50)
        assert net.adjacency[0, 0, 1] == 0.0
        assert net.adjacency[0, 0, 2] > 0.99

    def test_zero_variance_neuron_gets_no_edges(self):
        v = np.random.default_rng(2).normal(size=(60, 3))
        v[:, 1] = 0.7
        net = build_layers(v, window_steps=30, stride=30)
        assert np.all(net.adjacency[:, 1, :] == 0.0)
        assert np.all(net.adjacency[:, :, 1] == 0.0)

    def test_report_bundle(self):
        v = np.random.default_rng(3).normal(size=(100, 6))
        net = build_layers(v, window_steps=25, stride=25)
        result = louvain_optimize(net, seed=1)
        report = modularity_report(net, result)
        assert report.allegiance.shape == (6, 6)
        assert report.community_counts.shape == (4,)
        assert np.isfinite(report.q)
