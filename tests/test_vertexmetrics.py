"""Word metric, vertex metric validation, vertex-level diagnostics."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from metricext import (
    DisconnectedComplex,
    MetricAxiomError,
    SuppliedConstantTooSmall,
    build_complex,
    deepest_ray,
    double_difference_vertices,
    gromov_product_vertices,
    hyperbolicity_delta,
    linear_bound_constant,
    lower_bounds,
    make_ray,
    metric_violations,
    qi_constants_check,
    sphere,
    transformed_word_metric,
    validate_vertex_metric,
    vertex_point,
    word_metric,
    word_vertex_metric,
)
from metricext.generators import (
    cycle_complex,
    nested_quadruples,
    path_complex,
    sample_geodesic_triples,
    simplex_complex,
    tree_complex,
)
from metricext.oracle import _oracle_bfs, tree_gromov_oracle, tree_vertex_path
from metricext.vertexmetrics import geodesic


class TestWordMetric:
    def test_path(self, path3):
        t = word_metric(path3)
        assert t.distance("u", "w") == 2
        assert t.distance("u", "u") == 0

    def test_triangle_all_ones(self, triangle):
        t = word_metric(triangle)
        for u, v in itertools.combinations(triangle.vertices, 2):
            assert t.distance(u, v) == 1

    def test_disconnected_rejected(self):
        K = build_complex(["a", "b", "c"], [["a", "b"], ["c"]])
        rng = np.random.default_rng(0)
        readers = [
            lambda: word_metric(K),
            lambda: lower_bounds(K, vertex_point(K, "a"), vertex_point(K, "b")),
            lambda: sphere(K, "a", 1),
            lambda: make_ray(K, ["a", "b"]),
            lambda: deepest_ray(K, "a"),
            lambda: sample_geodesic_triples(K, rng, 1),
            lambda: nested_quadruples(K, rng, 1),
        ]
        # every call raises, not only the first
        for read in [*readers, *readers]:
            with pytest.raises(DisconnectedComplex):
                read()

    def test_table_lives_and_dies_with_the_complex(self):
        K = tree_complex(2, 3)
        table = word_metric(K)
        assert word_metric(K) is table
        twin = tree_complex(2, 3)
        assert twin == K and hash(twin) == hash(K)
        assert word_metric(twin) is not table
        complex_ref, table_ref = weakref.ref(K), weakref.ref(table)
        del K, table
        gc.collect()
        assert complex_ref() is None and table_ref() is None

    def test_rows_match_the_oracle_bfs(self, complex_fleet):
        for K in complex_fleet.values():
            t = word_metric(K)
            for u in K.vertices:
                row = dict(zip(t.order, t.matrix[t.index[u]].tolist()))
                assert row == _oracle_bfs(K, u)

    def test_edge_iff_distance_one(self, book):
        t = word_metric(book)
        for u, v in itertools.combinations(book.vertices, 2):
            is_edge = tuple(sorted((u, v))) in book.faces
            assert (t.distance(u, v) == 1) == is_edge


class TestGeodesic:
    def test_is_a_shortest_edge_path(self, complex_fleet):
        for K in complex_fleet.values():
            t = word_metric(K)
            for u, v in itertools.product(K.vertices, repeat=2):
                path = geodesic(K, u, v)
                assert path[0] == u and path[-1] == v
                assert len(path) - 1 == t.distance(u, v)
                assert all(b in K.adjacency[a] for a, b in zip(path, path[1:]))

    def test_trees_match_the_oracle(self):
        for K in (tree_complex(2, 4), tree_complex(3, 2), path_complex(12)):
            for u, v in itertools.product(K.vertices, repeat=2):
                assert geodesic(K, u, v) == tree_vertex_path(K, u, v)


class TestSphere:
    def test_path_radius_one(self, path3):
        assert sphere(path3, "u", 1) == ("v",)

    def test_radius_zero(self, path3):
        assert sphere(path3, "u", 0) == ("u",)

    def test_beyond_eccentricity(self, path3):
        assert sphere(path3, "u", 5) == ()


class TestValidateVertexMetric:
    def test_word_matrix_valid(self, book):
        t = word_metric(book)
        vm = validate_vertex_metric(book, t.matrix.astype(float), t.order)
        assert vm.C == pytest.approx(1.0)

    def test_triangle_violation(self, path3):
        m = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)
        with pytest.raises(MetricAxiomError) as info:
            validate_vertex_metric(path3, m, ("u", "v", "w"))
        kinds = {v.kind for v in info.value.violations}
        assert "TriangleViolation" in kinds

    def test_nonzero_diagonal(self, path3):
        m = np.array([[0.1, 1, 2], [1, 0, 1], [2, 1, 0]])
        violations = metric_violations(("u", "v", "w"), m)
        assert any(v.kind == "NonzeroDiagonal" for v in violations)

    def test_not_symmetric_and_negative(self, path3):
        m = np.array([[0, 1, 2], [1.5, 0, -1], [2, -1, 0]])
        kinds = {v.kind for v in metric_violations(("u", "v", "w"), m)}
        assert "NotSymmetric" in kinds and "NegativeDistance" in kinds


class TestLinearBound:
    def test_word_gives_one(self, book):
        t = word_metric(book)
        assert linear_bound_constant(t.matrix.astype(float), t) == pytest.approx(1.0)

    def test_doubled(self, book):
        t = word_metric(book)
        assert linear_bound_constant(2.0 * t.matrix, t) == pytest.approx(2.0)

    def test_supplied_too_small(self, book):
        t = word_metric(book)
        with pytest.raises(SuppliedConstantTooSmall):
            linear_bound_constant(t.matrix.astype(float), t, supplied=0.5)

    def test_minimal_attained(self, book):
        vm = transformed_word_metric(book, scale=1.5, saturation=0.5)
        t = word_metric(book)
        slack = vm.minimal_C * t.matrix - vm.matrix
        off = ~np.eye(len(t.order), dtype=bool)
        assert slack[off].min() >= -1e-9
        assert slack[off].min() <= 1e-9  # attained somewhere


class TestQIConstants:
    def test_word_is_1_0(self, book):
        t = word_metric(book)
        res = qi_constants_check(t.matrix.astype(float), t, 1.0, 0.0)
        assert res.passed and res.linear_bound == 1.0

    def test_additive_slack(self, book):
        t = word_metric(book)
        m = t.matrix + 5.0
        np.fill_diagonal(m, 0.0)
        assert qi_constants_check(m, t, 1.0, 5.0).passed

    def test_failure_with_witness(self, book):
        t = word_metric(book)
        res = qi_constants_check(3.0 * t.matrix, t, 2.0, 0.0)
        assert not res.passed and res.witnesses


class TestGromovProductsAndDD:
    def test_base_at_endpoint(self, path3):
        t = word_metric(path3)
        assert gromov_product_vertices(t, "u", "v", "u") == 0.0

    def test_between(self, path3):
        t = word_metric(path3)
        assert gromov_product_vertices(t, "u", "w", "v") == 0.0

    def test_tree_matches_oracle(self):
        K = tree_complex(2, 4)
        t = word_metric(K)
        rng = np.random.default_rng(1)
        vs = list(K.vertices)
        for _ in range(1000):
            a, b, c = (vs[i] for i in rng.integers(len(vs), size=3))
            assert gromov_product_vertices(t, a, b, c) == tree_gromov_oracle(K, a, b, c)

    def test_dd_path_example(self):
        K = path_complex(4)
        t = word_metric(K)
        a, b, c, d = K.vertices
        # d(a,d)-d(b,d)-d(a,c)+d(b,c) = 3-2-2+1 = 0, halved: still 0
        assert double_difference_vertices(t, a, b, d, c) == 0.0

    def test_dd_identities(self, book):
        t = word_metric(book)
        rng = np.random.default_rng(2)
        vs = list(book.vertices)
        dd = lambda *a: double_difference_vertices(t, *a)
        for _ in range(300):
            a, a2, a3, b, b2, w = (vs[i] for i in rng.integers(len(vs), size=6))
            assert dd(a, a2, b, b2) == dd(b, b2, a, a2)
            assert dd(a, a2, b, b2) == -dd(a2, a, b, b2)
            assert dd(a, a, b, b2) == 0.0 and dd(a, a2, b, b) == 0.0
            assert dd(a, a2, b, b2) + dd(a2, a3, b, b2) == pytest.approx(dd(a, a3, b, b2), abs=1e-12)
            assert dd(a, b, w, a2) + dd(w, a, b, a2) + dd(b, w, a, a2) == pytest.approx(0.0, abs=1e-12)

    def test_dd_gp_relation(self, book):
        t = word_metric(book)
        rng = np.random.default_rng(3)
        vs = list(book.vertices)
        for _ in range(300):
            a, b, x, y = (vs[i] for i in rng.integers(len(vs), size=4))
            lhs = double_difference_vertices(t, a, b, x, y)
            rhs = gromov_product_vertices(t, b, x, a) - gromov_product_vertices(t, b, y, a)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def brute_force_delta(matrix):
    n = len(matrix)
    worst = 0.0
    for w in range(n):
        for x in range(n):
            for y in range(n):
                gxy = 0.5 * (matrix[x][w] + matrix[y][w] - matrix[x][y])
                for z in range(n):
                    gxz = 0.5 * (matrix[x][w] + matrix[z][w] - matrix[x][z])
                    gzy = 0.5 * (matrix[z][w] + matrix[y][w] - matrix[z][y])
                    worst = max(worst, min(gxz, gzy) - gxy)
    return worst


class TestHyperbolicityDelta:
    def test_tree_is_zero(self):
        assert hyperbolicity_delta(word_vertex_metric(tree_complex(2, 3))) == 0.0

    def test_complete_graph_at_most_one(self):
        vm = word_vertex_metric(simplex_complex(4))
        delta = hyperbolicity_delta(vm)
        assert 0.0 <= delta <= 1.0
        assert delta == brute_force_delta(vm.matrix.tolist())

    def test_matches_bruteforce_on_cycle(self):
        vm = word_vertex_metric(cycle_complex(7))
        assert hyperbolicity_delta(vm) == brute_force_delta(vm.matrix.tolist())

    def test_single_vertex(self):
        K = build_complex(["a"], [["a"]])
        assert hyperbolicity_delta(word_vertex_metric(K)) == 0.0
