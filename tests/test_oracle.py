"""Grid oracle, exhaustive scanner, tree Gromov oracle."""

import gc
import weakref

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from metricext import (
    NotATree,
    PointNotOnGrid,
    bilinear_extension,
    build_complex,
    build_grid,
    exhaustive_metric_scan,
    grid_oracle_path_distance,
    gromov_product,
    l1_path_distance,
    make_point,
    tree_gromov_oracle,
    vertex_point,
    word_metric,
    word_vertex_metric,
)
from metricext.checks import CheckContext
from metricext.generators import (
    cycle_complex,
    grid_point,
    path_complex,
    random_complex,
    rips_complex,
    tree_complex,
)
from metricext.oracle import _compositions


def complete_grid_distances(K, n, index):
    """All-pairs grid distances over the same-simplex complete graph.

    The reference construction: two grid nodes are joined iff they lie in one
    maximal simplex, by an edge of their simplex l1 length Σ|a−b|/(2n).
    """
    weights = {}
    for sigma in K.maximal_simplices:
        comps = list(_compositions(n, len(sigma)))
        ids = [index[tuple((v, c) for v, c in zip(sigma, comp) if c > 0)] for comp in comps]
        for a, (ia, ca) in enumerate(zip(ids, comps)):
            for ib, cb in zip(ids[a + 1 :], comps[a + 1 :]):
                weights[ia, ib] = sum(abs(p - q) for p, q in zip(ca, cb)) / (2.0 * n)
    rows, cols = zip(*weights)
    graph = csr_matrix((list(weights.values()), (rows, cols)), shape=(len(index), len(index)))
    return dijkstra(graph, directed=False)


class TestGridGraph:
    def test_node_counts_on_edge(self, path3):
        grid = build_grid(path3, 4)
        # each edge carries 5 nodes, the shared vertex is deduplicated
        assert len(grid.nodes) == 9

    def test_contains_every_vertex(self, strip):
        grid = build_grid(strip, 8)
        for v in strip.vertices:
            assert ((v, 8),) in grid.index

    def test_triangle_node_count(self, triangle):
        grid = build_grid(triangle, 16)
        # compositions of 16 into 3 parts
        assert len(grid.nodes) == 153

    def test_grid_values_are_pinned(self):
        # Node count, edge count and total weight of two grids; every edge is
        # one unit transfer of weight 1, stored once in each direction.
        for K, n, want in (
            (rips_complex(cycle_complex(8), 2), 8, (288, 1600, 1600.0)),
            (tree_complex(2, 3), 4, (57, 112, 112.0)),
        ):
            grid = build_grid(K, n)
            assert (len(grid.nodes), grid.graph.nnz, float(grid.graph.sum())) == want

    def test_unit_moves_match_the_complete_graph(self):
        for K, n in (
            (rips_complex(cycle_complex(8), 2), 8),
            (tree_complex(2, 3), 4),
            (rips_complex(path_complex(8), 3), 6),
            (random_complex(14, 0.3, seed=2), 10),
        ):
            grid = build_grid(K, n)
            got = dijkstra(grid.graph, directed=True, unweighted=True) / n
            want = complete_grid_distances(K, n, grid.index)
            if n & (n - 1) == 0:
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_grid_lives_and_dies_with_the_complex(self):
        K = tree_complex(2, 3)
        x, y = vertex_point(K, "t00"), vertex_point(K, "t14")
        assert grid_oracle_path_distance(K, x, y, 1 / 4) == pytest.approx(3.0)
        grid = build_grid(K, 4)
        assert K.grids[4] is grid and build_grid(K, 4) is grid
        twin = tree_complex(2, 3)
        assert twin == K and hash(twin) == hash(K)
        assert build_grid(twin, 4) is not grid and build_grid(twin, 4).nodes == grid.nodes
        complex_ref, grid_ref = weakref.ref(K), weakref.ref(grid)
        del K, grid
        gc.collect()
        assert complex_ref() is None and grid_ref() is None


class TestGridOracle:
    def test_vertices_exact_at_any_resolution(self, book):
        table = word_metric(book)
        for h in (1 / 4, 1 / 8):
            for u in book.vertices:
                for v in book.vertices:
                    got = grid_oracle_path_distance(
                        book, vertex_point(book, u), vertex_point(book, v), h
                    )
                    assert got == pytest.approx(table.distance(u, v), abs=1e-9)

    def test_midpoint_to_vertex(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        got = grid_oracle_path_distance(path3, x, vertex_point(path3, "u"), 1 / 4)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_cut_vertex_value(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        y = make_point(path3, {"v": 0.5, "w": 0.5})
        got = grid_oracle_path_distance(path3, x, y, 1 / 16)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_point_not_on_grid(self, triangle):
        # on an edge every point is within h/2 of the grid, but a triangle
        # barycenter at a coarse resolution is not
        x = make_point(triangle, {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3})
        with pytest.raises(PointNotOnGrid):
            grid_oracle_path_distance(triangle, x, vertex_point(triangle, "a"), 1 / 4)

    def test_sandwich_pairs_are_pinned(self):
        # The 20 pairs the oracle-sandwich check draws on this complex at
        # check seed 0, with their values at 1/16 and 1/32 as the complete
        # same-simplex graph gave them: the unit-transfer graph keeps every bit.
        K = rips_complex(cycle_complex(12), 2)
        rng = CheckContext(K=K, metric=word_vertex_metric(K)).rng("oracle")
        want = [
            (3.0, 3.0), (2.6875, 2.6875), (2.25, 2.25), (3.0, 3.0), (3.3125, 3.3125),
            (2.5, 2.5), (1.0625, 1.0625), (0.625, 0.625), (2.25, 2.25), (2.0, 2.0),
            (2.625, 2.625), (3.0, 3.0), (2.0, 2.0), (0.9375, 0.9375), (1.0, 1.0),
            (2.8125, 2.8125), (2.0, 2.0), (0.6875, 0.6875), (1.9375, 1.9375), (2.9375, 2.9375),
        ]
        got = []
        for _ in want:
            x, y = grid_point(K, rng, 16), grid_point(K, rng, 16)
            got.append(tuple(grid_oracle_path_distance(K, x, y, h) for h in (1 / 16, 1 / 32)))
        assert got == want

    def test_refinement_monotone(self, strip, rng):
        for _ in range(20):
            x = grid_point(strip, rng, 8)
            y = grid_point(strip, rng, 8)
            coarse = grid_oracle_path_distance(strip, x, y, 1 / 8)
            fine = grid_oracle_path_distance(strip, x, y, 1 / 16)
            assert fine <= coarse + 1e-9

    def test_upper_bounds_exact(self, book, rng):
        for _ in range(25):
            x = grid_point(book, rng, 16)
            y = grid_point(book, rng, 16)
            exact = l1_path_distance(book, x, y).value
            grid = grid_oracle_path_distance(book, x, y, 1 / 16)
            assert exact <= grid + 1e-9
            assert grid - exact <= book.dimension * (1 / 16) * (1 + exact)


class TestExhaustiveScan:
    def test_naive_bilinear_identity_violation(self, path3):
        vm = word_vertex_metric(path3)
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        pts = [vertex_point(path3, "u"), vertex_point(path3, "v"), x]
        violations = exhaustive_metric_scan(
            lambda a, b: bilinear_extension(vm, a, b), pts
        )
        identity = [v for v in violations if v.kind == "Identity"]
        assert identity and identity[0].margin == pytest.approx(0.5, abs=1e-12)

    def test_extension_is_clean(self, book, rng):
        from metricext import ExtendedMetric
        from metricext.generators import random_point

        M = ExtendedMetric(book, word_vertex_metric(book))
        pts = [random_point(book, rng) for _ in range(15)]
        assert exhaustive_metric_scan(M.distance, pts) == []

    def test_single_point(self, triangle):
        x = make_point(triangle, {"a": 1.0})
        assert exhaustive_metric_scan(lambda a, b: 0.0, [x]) == []

    def test_triangle_violation_detected(self, path3):
        pts = [vertex_point(path3, v) for v in path3.vertices]
        bogus = {("u", "w"): 5.0, ("w", "u"): 5.0}

        def dist(a, b):
            key = (a.support[0], b.support[0])
            if key[0] == key[1]:
                return 0.0
            return bogus.get(key, 1.0)

        kinds = {v.kind for v in exhaustive_metric_scan(dist, pts)}
        assert "Triangle" in kinds


class TestTreeOracle:
    def test_star_center(self):
        K = build_complex(["c", "l1", "l2", "l3"], [["c", "l1"], ["c", "l2"], ["c", "l3"]])
        assert tree_gromov_oracle(K, "l1", "l2", "c") == 0.0

    def test_on_path(self):
        K = build_complex(["a", "x", "c"], [["a", "x"], ["x", "c"]])
        assert tree_gromov_oracle(K, "a", "x", "c") == 1.0

    def test_not_a_tree(self):
        with pytest.raises(NotATree):
            tree_gromov_oracle(cycle_complex(5), "c00", "c01", "c02")

    def test_matches_formula_on_1000_triples(self):
        K = tree_complex(3, 3)
        table = word_metric(K)
        rng = np.random.default_rng(11)
        vs = list(K.vertices)
        for _ in range(1000):
            a, b, c = (vs[i] for i in rng.integers(len(vs), size=3))
            assert tree_gromov_oracle(K, a, b, c) == gromov_product(table.distance, a, b, c)
