"""Graph construction and discrete calculus."""
import ast
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from be_spectral import build_graph, grad, laplacian, ring_graph, star_graph, barbell_graph
import be_spectral


def edge_sets(max_n=12):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                     .filter(lambda e: e[0] != e[1]), min_size=1, max_size=3 * n)))


def reference_canonical(n, edges):
    """Canonical (edges, indptr, indices) by row-wise unique and lexsort."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    canon = np.unique(np.stack([e.min(axis=1), e.max(axis=1)], axis=1), axis=0)
    both = np.concatenate([canon, canon[:, ::-1]], axis=0)
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(both[:, 0], minlength=n))])
    return canon, indptr, both[:, 1]


class TestBuildGraph:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("form", ["ndarray", "tuples", "generator"])
    def test_matches_reference_canonicalization(self, seed, form):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        e = rng.integers(0, n - n // 4, size=(int(rng.integers(1, 4 * n)), 2))
        e = e[e[:, 0] != e[:, 1]]            # top quarter of the nodes stays isolated
        e = np.concatenate([e, e[:, ::-1], e[: len(e) // 2]])  # both orientations, repeats
        e = e[rng.permutation(len(e))]
        edges = {"ndarray": e, "tuples": [tuple(r) for r in e.tolist()],
                 "generator": (tuple(r) for r in e.tolist())}[form]
        g = build_graph(n, edges)
        for got, want in zip((g.edges, g.indptr, g.indices), reference_canonical(n, e)):
            assert got.dtype == np.int64
            npt.assert_array_equal(got, want)
        assert (g.degrees[n - n // 4:] == 0).all()

    def test_empty_edge_list(self):
        g = build_graph(3, np.empty((0, 2), dtype=np.int64))
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
        npt.assert_array_equal(g.indptr, [0, 0, 0, 0])
        assert g.indices.size == 0

    def test_smallest(self):
        g = build_graph(2, [(0, 1)])
        assert g.m == 1 and g.n == 2

    def test_four_ring(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        npt.assert_array_equal(g.degrees, [2, 2, 2, 2])

    def test_dedup_both_orientations(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            build_graph(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(3, [(1, 1)])

    def test_neighbor_lists_sorted_and_doubled(self):
        g = build_graph(5, [(3, 1), (0, 3), (4, 0), (2, 0)])
        assert g.indices.size == 2 * g.m
        for i in range(g.n):
            nb = g.indices[g.indptr[i]:g.indptr[i + 1]]
            assert (np.diff(nb) > 0).all()

    def test_immutable(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2

    @given(edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_input_order_is_irrelevant(self, case):
        n, edges = case
        g1 = build_graph(n, edges)
        g2 = build_graph(n, list(reversed(edges)))
        npt.assert_array_equal(g1.edges, g2.edges)
        npt.assert_array_equal(laplacian(g1).dense(), laplacian(g2).dense())


class TestDegreeMatrix:
    def test_ring_is_regular(self):
        npt.assert_array_equal(ring_graph(4).degrees, [2, 2, 2, 2])

    def test_star_center_degree(self):
        npt.assert_array_equal(star_graph(6).degrees, [5, 1, 1, 1, 1, 1])

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        npt.assert_array_equal(g.degrees, [1, 1])


class TestGrad:
    def test_gradient_of_constant_is_zero(self):
        g = ring_graph(6)
        npt.assert_array_equal(grad(g, np.full(6, 3.7)), np.zeros(6))

    def test_path_orientation(self):
        g = build_graph(2, [(0, 1)])
        npt.assert_array_equal(grad(g, np.array([0.0, 1.0])), [1.0])

    def test_four_ring_hand_enumeration(self):
        # canonical edges of the 4-ring: (0,1), (0,3), (1,2), (2,3)
        g = ring_graph(4)
        npt.assert_array_equal(grad(g, np.array([0.0, 1.0, 2.0, 3.0])),
                               [1.0, 3.0, 1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            grad(ring_graph(4), np.zeros(5))


class TestLaplacian:
    def test_four_ring_circulant(self):
        l = laplacian(ring_graph(4)).dense()
        expected = 2 * np.eye(4)
        for i in range(4):
            expected[i, (i + 1) % 4] = expected[i, (i - 1) % 4] = -1
        npt.assert_array_equal(l, expected)

    def test_disconnected_kernel_dimension(self):
        from be_spectral import eig_sym
        g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        vals = eig_sym(laplacian(g)).eigenvalues
        assert (np.abs(vals) < 1e-10).sum() == 2

    def test_star_spectrum(self):
        from be_spectral import eig_sym
        vals = eig_sym(laplacian(star_graph(6))).eigenvalues
        npt.assert_allclose(vals, [0, 1, 1, 1, 1, 6], atol=1e-9)

    def test_row_sums_exactly_zero(self):
        g = barbell_graph(5, 3)
        l = laplacian(g).dense()
        npt.assert_array_equal(l.sum(axis=1), np.zeros(g.n))


class TestMemoizedConstructors:
    """``barbell_graph`` and ``ring_graph`` build each size once and share it."""

    @staticmethod
    def _barbell_edges(c, k):
        a, b = range(c), range(c + k, 2 * c + k)
        edges = [(i, j) for i in a for j in a if i < j]
        edges += [(i, j) for i in b for j in b if i < j]
        chain = [c - 1, *range(c, c + k), c + k]
        return edges + list(zip(chain, chain[1:]))

    @staticmethod
    def _assert_same_graph(g, ref):
        assert g.n == ref.n
        for name in ("edges", "indptr", "indices"):
            a = getattr(g, name)
            npt.assert_array_equal(a, getattr(ref, name))
            assert a.dtype == getattr(ref, name).dtype and not a.flags.writeable

    @pytest.mark.parametrize("c, k", [(2, 1), (3, 2), (5, 3), (23, 4)])
    def test_barbell_graph(self, c, k):
        g = barbell_graph(c, k)
        assert barbell_graph(c, k) is g
        self._assert_same_graph(g, build_graph(2 * c + k, self._barbell_edges(c, k)))

    @pytest.mark.parametrize("n", [3, 4, 7, 16])
    def test_ring_graph(self, n):
        g = ring_graph(n)
        assert ring_graph(n) is g
        self._assert_same_graph(g, build_graph(n, [(i, (i + 1) % n) for i in range(n)]))

    def test_bad_sizes_still_raise(self):
        for make, args in [(barbell_graph, (1, 2)), (barbell_graph, (3, 0)),
                           (ring_graph, (2,))]:
            with pytest.raises(ValueError):
                make(*args)


def test_no_module_scatters_with_add_at():
    """Edge-to-node sums go through graphs.scatter_rows, never ``add.at``."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(be_spectral.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "at"
             and isinstance(node.value, ast.Attribute) and node.value.attr == "add"]
    assert not found, found
