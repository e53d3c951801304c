"""Dataset generators and their exact oracles."""
import networkx as nx
import numpy as np
import numpy.testing as npt
import pytest

from be_spectral import (all_pairs_bfs, barabasi_albert, bfs_distances,
                         build_graph, erdos_renyi, gen_barbell, gen_graph_property,
                         gen_ring_routing, star_graph)
from be_spectral import tasks
from be_spectral.errors import DisconnectedAfterRetries
from be_spectral.tasks import is_connected


class TestBarbell:
    def test_smallest_barbell_structure(self):
        inst = gen_barbell(2, 1, seed=0)
        g = inst.graph
        assert g.n == 5
        npt.assert_array_equal(np.sort(g.degrees), [1, 1, 2, 2, 2])
        assert inst.mask.sum() == 4 and not inst.mask[2]

    def test_constant_features_give_constant_target(self):
        inst = gen_barbell(5, 3, seed=1)
        inst.X[:] = 2.5
        # regenerate targets by the oracle definition
        a, b = inst.meta["bell_a"], inst.meta["bell_b"]
        assert np.allclose(inst.X[b].mean(), 2.5)
        # the stored targets used random X; recompute manually for constant X
        y_a = inst.X[b, 0].mean()
        y_b = inst.X[a, 0].mean()
        assert y_a == 2.5 and y_b == 2.5

    def test_targets_are_opposite_bell_means(self):
        inst = gen_barbell(6, 2, seed=3)
        a, b = inst.meta["bell_a"], inst.meta["bell_b"]
        npt.assert_allclose(inst.y[a, 0], inst.X[b, 0].mean(), atol=1e-15)
        npt.assert_allclose(inst.y[b, 0], inst.X[a, 0].mean(), atol=1e-15)
        npt.assert_array_equal(inst.y[inst.meta["bridge"], 0],
                               np.zeros(len(inst.meta["bridge"])))

    def test_swap_symmetry(self):
        # swapping the two bells' features swaps the two bells' targets
        inst = gen_barbell(4, 2, seed=4)
        a, b = inst.meta["bell_a"], inst.meta["bell_b"]
        x_swapped = inst.X.copy()
        x_swapped[a], x_swapped[b] = inst.X[b].copy(), inst.X[a].copy()
        y_a_new = x_swapped[b, 0].mean()
        y_b_new = x_swapped[a, 0].mean()
        assert y_a_new == pytest.approx(inst.y[b[0], 0])
        assert y_b_new == pytest.approx(inst.y[a[0], 0])

    def test_target_variance_metadata(self):
        inst = gen_barbell(23, 4, seed=5)
        assert inst.meta["target_variance"] == pytest.approx(1 / 23)
        assert inst.graph.n == 50

    def test_determinism(self):
        i1, i2 = gen_barbell(5, 2, seed=9), gen_barbell(5, 2, seed=9)
        npt.assert_array_equal(i1.X, i2.X)
        npt.assert_array_equal(i1.y, i2.y)
        assert not np.array_equal(i1.X, gen_barbell(5, 2, seed=10).X)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            gen_barbell(1, 2, seed=0)
        with pytest.raises(ValueError):
            gen_barbell(3, 0, seed=0)


class TestShortestPathOracles:
    def test_path_graph_distances(self):
        g = build_graph(5, [(i, i + 1) for i in range(4)])
        npt.assert_array_equal(bfs_distances(g, 0), [0, 1, 2, 3, 4])
        assert int(all_pairs_bfs(g).max()) == 4  # diameter of P5

    def test_star_eccentricity(self):
        ecc = all_pairs_bfs(star_graph(6)).max(axis=1)
        npt.assert_array_equal(ecc, [1, 2, 2, 2, 2, 2])

    def test_unreachable_marked(self):
        from be_spectral import build_graph
        g = build_graph(4, [(0, 1)])
        d = bfs_distances(g, 0)
        npt.assert_array_equal(d, [0, 1, -1, -1])

    def test_double_oracle_against_networkx(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = erdos_renyi(20, 0.3, rng)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(map(tuple, g.edges))
            ours = all_pairs_bfs(g)
            for s in range(g.n):
                lengths = nx.single_source_shortest_path_length(nxg, s)
                for v in range(g.n):
                    expected = lengths.get(v, -1)
                    assert ours[s, v] == expected


class TestArrayBfsAgainstNetworkx:
    """The level-synchronous BFS gives networkx's hop counts, -1 when unreachable."""

    @staticmethod
    def _networkx_distances(g):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(map(tuple, g.edges))
        dist = np.full((g.n, g.n), -1, dtype=np.int64)
        for s, lengths in nx.all_pairs_shortest_path_length(nxg):
            for v, d in lengths.items():
                dist[s, v] = d
        return dist, nx.is_connected(nxg)

    @pytest.mark.parametrize("gather", ["default", "one-source-blocks"])
    @pytest.mark.parametrize("n, p", [(1, 0.0), (2, 0.0), (2, 1.0), (7, 0.0), (30, 0.04),
                                      (30, 0.1), (25, 0.3), (40, 0.9)])
    def test_random_graphs(self, monkeypatch, gather, n, p):
        if gather == "one-source-blocks":  # all_pairs_bfs then runs one source per block
            monkeypatch.setattr(tasks, "_BFS_GATHER", 1)
        rng = np.random.default_rng(n * 1000 + int(p * 100))
        for _ in range(6):
            g = erdos_renyi(n, p, rng)
            expected, connected = self._networkx_distances(g)
            dist = all_pairs_bfs(g)
            assert dist.dtype == np.int64
            npt.assert_array_equal(dist, expected)
            for s in range(n):
                d = bfs_distances(g, s)
                assert d.dtype == np.int64
                npt.assert_array_equal(d, expected[s])
            assert is_connected(g) == connected

    def test_disconnected_graph_of_two_components(self):
        from be_spectral import build_graph
        g = build_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
        expected, connected = self._networkx_distances(g)
        npt.assert_array_equal(all_pairs_bfs(g), expected)
        assert not connected and not is_connected(g)
        npt.assert_array_equal(bfs_distances(g, 5), [-1, -1, -1, 2, 1, 0, 1])

    def test_source_outside_graph(self):
        with pytest.raises(IndexError):
            bfs_distances(build_graph(3, [(0, 1), (1, 2)]), 3)


class TestRandomGraphModels:
    def test_erdos_renyi_determinism_and_bounds(self):
        g1 = erdos_renyi(25, 0.3, np.random.default_rng(5))
        g2 = erdos_renyi(25, 0.3, np.random.default_rng(5))
        npt.assert_array_equal(g1.edges, g2.edges)
        assert g1.n == 25

    def test_barabasi_albert_degrees(self):
        g = barabasi_albert(40, 2, np.random.default_rng(6))
        assert g.n == 40
        assert (g.degrees >= 2).all()  # every non-core node attaches twice
        assert is_connected(g)

    def test_barabasi_albert_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert(3, 3, np.random.default_rng(0))


class TestGraphPropertyTask:
    def test_sssp_instance(self):
        inst = gen_graph_property("sssp", [15, 25], seed=1)
        g = inst.graph
        assert 15 <= g.n <= 25 and is_connected(g)
        assert inst.X.shape == (g.n, 3)
        src = inst.meta["source"]
        assert inst.X[src, 2] == 1.0 and inst.X[:, 2].sum() == 1.0
        npt.assert_array_equal(inst.y[:, 0], bfs_distances(g, src))
        assert inst.mask.all()
        assert np.all(inst.y == np.round(inst.y))  # integer labels

    def test_eccentricity_instance(self):
        inst = gen_graph_property("eccentricity", [10, 14], seed=2)
        ecc = all_pairs_bfs(inst.graph).max(axis=1)
        npt.assert_array_equal(inst.y[:, 0], ecc)
        assert inst.X.shape == (inst.graph.n, 2)

    def test_diameter_instance(self):
        inst = gen_graph_property("diameter", [10, 14], seed=3)
        assert inst.mask is None
        assert inst.y.shape == (1,)
        assert inst.y[0] == all_pairs_bfs(inst.graph).max()

    def test_barabasi_albert_backend(self):
        inst = gen_graph_property("sssp", [12, 18], seed=4,
                                  model="barabasi-albert")
        assert is_connected(inst.graph)

    def test_determinism(self):
        a = gen_graph_property("sssp", [15, 25], seed=7)
        b = gen_graph_property("sssp", [15, 25], seed=7)
        npt.assert_array_equal(a.graph.edges, b.graph.edges)
        npt.assert_array_equal(a.y, b.y)

    def test_disconnected_after_retries(self):
        with pytest.raises(DisconnectedAfterRetries):
            gen_graph_property("sssp", [30, 40], seed=0, p=0.001)

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown property"):
            gen_graph_property("girth", [10, 12], seed=0)


class TestRingRouting:
    def test_structure_n8(self):
        inst = gen_ring_routing(8, seed=0)
        meta = inst.meta
        assert meta["query"] == 0 and meta["answer"] == 4
        assert len(meta["clean_path"]) == 3 and len(meta["noisy_path"]) == 3
        label = meta["label"]
        onehot = np.zeros(10)
        onehot[label] = 1.0
        npt.assert_array_equal(inst.X[4], onehot)
        npt.assert_array_equal(inst.X[meta["clean_path"]], np.zeros((3, 10)))
        assert np.abs(inst.X[meta["noisy_path"]]).max() > 0
        npt.assert_array_equal(inst.X[0], np.zeros(10))
        assert inst.mask.sum() == 1 and inst.mask[0]
        assert int(inst.y) == label

    def test_zero_noise_symmetric(self):
        inst = gen_ring_routing(12, seed=1, noise_scale=0.0)
        npt.assert_array_equal(inst.X[inst.meta["noisy_path"]],
                               np.zeros((5, 10)))

    def test_paths_partition_ring(self):
        inst = gen_ring_routing(16, seed=2)
        nodes = sorted([inst.meta["query"], inst.meta["answer"]]
                       + inst.meta["clean_path"] + inst.meta["noisy_path"])
        assert nodes == list(range(16))

    def test_noisy_side_varies_with_seed(self):
        sides = {tuple(gen_ring_routing(8, seed=s).meta["noisy_path"])
                 for s in range(12)}
        assert len(sides) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_ring_routing(7, seed=0)
        with pytest.raises(ValueError):
            gen_ring_routing(6, seed=0)

    def test_determinism(self):
        a, b = gen_ring_routing(16, seed=3), gen_ring_routing(16, seed=3)
        npt.assert_array_equal(a.X, b.X)
        assert a.meta == b.meta

