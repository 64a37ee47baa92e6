"""Word metric, vertex metric validation, vertex-level diagnostics."""

import gc
import itertools
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricext import (
    ExtendedMetric,
    DisconnectedComplex,
    InvalidParameters,
    MetricAxiomError,
    SuppliedConstantTooSmall,
    build_complex,
    deepest_ray,
    double_difference,
    gromov_product,
    hyperbolicity_delta,
    lower_bounds,
    make_point,
    make_ray,
    metric_violations,
    minimal_linear_bound,
    qi_constants_check,
    sphere,
    transformed_word_metric,
    validate_vertex_metric,
    vertex_point,
    word_metric,
    word_vertex_metric,
)
from metricext import complexes, vertexmetrics
from metricext.generators import (
    cycle_complex,
    nested_quadruples,
    path_complex,
    random_complex,
    simplex_complex,
    tree_complex,
)
from metricext.oracle import _oracle_bfs, tree_gromov_oracle, tree_vertex_path
from metricext.vertexmetrics import geodesic

from conftest import all_faces, list_built_graph, sample_geodesic_triples


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
        # a vertex of degree 0, and two components that each have an edge
        for K in (
            build_complex(["a", "b", "c"], [["a", "b"], ["c"]]),
            build_complex(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]]),
        ):
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

    def test_graph_equals_the_list_built_one(self, complex_fleet):
        for K in [*complex_fleet.values(), tree_complex(2, 9)]:
            got, want = word_metric(K)._graph, list_built_graph(K.vertices, K.adjacency)
            for part in ("indptr", "indices", "data"):
                a, b = getattr(got, part), getattr(want, part)
                assert a.dtype == b.dtype and np.array_equal(a, b), part
            assert got.shape == want.shape

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

    def test_distances_rows_and_searches_match_the_oracle_bfs(self, complex_fleet):
        for K in [*complex_fleet.values(), tree_complex(2, 6)]:
            K = build_complex(K.vertices, K.maximal_simplices)  # its table has kept nothing yet
            t = word_metric(K)
            oracle = {u: _oracle_bfs(K, u) for u in K.vertices}
            for u, v in itertools.product(K.vertices, repeat=2):
                assert t._search_pair(u, v) == oracle[u][v]
                assert t.distance(u, v) == oracle[u][v]
            for u in K.vertices:
                assert dict(zip(t.order, t.row(u).tolist())) == oracle[u]
            assert "matrix" not in vars(t)

    @given(n=st.integers(2, 14), density=st.floats(0.0, 0.7), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_memo_hits_row_hits_and_fresh_searches_agree(self, n, density, seed):
        K = random_complex(n, density, seed=seed)
        pairs = list(itertools.product(K.vertices, repeat=2))
        t = word_metric(K)
        searched = [t._search_pair(u, v) for u, v in pairs]
        first = [t.distance(u, v) for u, v in pairs]  # searches, kept in the memo
        again = [t.distance(u, v) for u, v in pairs]
        # the memo holds exactly the distinct pairs the first vertex's row, kept at set-up, cannot answer
        first_vertex = t.order[0]
        assert set(t._pairs) == {(u, v) for u, v in pairs if u < v and first_vertex not in (u, v)}
        rows = word_metric(build_complex(K.vertices, K.maximal_simplices))
        for u in K.vertices:
            rows.row(u)
        from_rows = [rows.distance(u, v) for u, v in pairs]
        assert not rows._pairs  # every answer was read from a kept row
        want = [_oracle_bfs(K, u)[v] for u, v in pairs]
        assert searched == first == again == from_rows == want

    def test_small_caches_evict_and_stay_exact(self, monkeypatch):
        monkeypatch.setattr(complexes, "ROW_ENTRIES_KEPT", 3 * 15)
        monkeypatch.setattr(complexes, "PAIRS_KEPT", 5)
        K = tree_complex(2, 3)  # 15 vertices: three rows fit
        t = word_metric(K)
        assert t.rows_kept == 3
        for u, v in itertools.product(K.vertices, repeat=2):
            assert t.row(u)[t.index[v]] == _oracle_bfs(K, u)[v]
            assert len(t._rows) <= 3
        fresh = word_metric(build_complex(K.vertices, K.maximal_simplices))
        for u, v in itertools.product(K.vertices, repeat=2):
            assert fresh.distance(u, v) == _oracle_bfs(K, u)[v]
            assert len(fresh._pairs) <= 5

    def test_rows_are_read_only(self, book):
        with pytest.raises(ValueError):
            word_metric(book).row("a")[0] = 7

    def test_queries_on_a_big_tree_build_no_dense_table(self):
        K = tree_complex(2, 12)
        M = ExtendedMetric(K, word_vertex_metric(K))
        rng = np.random.default_rng(0)
        inner = [v for v in K.vertices if len(K.adjacency[v]) >= 2]
        for _ in range(200):  # two edge points sharing their support vertex v
            v = inner[rng.integers(len(inner))]
            u1, u2 = rng.choice(K.adjacency[v], size=2, replace=False)
            a, b = rng.integers(1, 8, size=2)
            x = make_point(K, {v: a / 8, str(u1): 1 - a / 8})
            y = make_point(K, {v: b / 8, str(u2): 1 - b / 8})
            M.distance(x, y)
        deepest_ray(K, min(K.vertices))
        table = word_metric(K)
        assert "matrix" not in vars(table) and "matrix" not in vars(M.vertex)
        assert len(table._rows) <= table.rows_kept

    def test_edge_iff_distance_one(self, book):
        t = word_metric(book)
        faces = all_faces(book)
        for u, v in itertools.combinations(book.vertices, 2):
            is_edge = tuple(sorted((u, v))) in faces
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

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_rejected(self, path3, entry):
        # NaN passes every axiom comparison and would give C = minimal_C = nan
        m = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        m[0, 2] = m[2, 0] = entry
        with pytest.raises(InvalidParameters, match="matrix"):
            validate_vertex_metric(path3, m, ("u", "v", "w"))

    @pytest.mark.parametrize("name", ["C", "A", "B"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, np.True_])
    def test_non_finite_or_bool_constant_is_rejected(self, path3, name, value):
        m = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        constants = {"C": 2.0, "A": 1.0, "B": 0.0, name: value}
        with pytest.raises(InvalidParameters, match=f"^{name} must be a finite number"):
            validate_vertex_metric(path3, m, ("u", "v", "w"), **constants)

    def test_finite_constants_still_pass(self, path3):
        m = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        vm = validate_vertex_metric(path3, m, ("u", "v", "w"), C=2, A=1.0, B=np.float64(0.0))
        assert (vm.C, vm.minimal_C) == (2.0, 1.0)

    def test_nan_constant_no_longer_reaches_the_extension(self, path3):
        # before the check, C=nan passed `C < minimal` and the extension answered (nan, "l1path")
        m = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        with pytest.raises(InvalidParameters):
            ExtendedMetric(path3, validate_vertex_metric(path3, m, ("u", "v", "w"), C=float("nan")))

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
        assert minimal_linear_bound(t.matrix.astype(float), t) == pytest.approx(1.0)

    def test_doubled(self, book):
        t = word_metric(book)
        assert minimal_linear_bound(2.0 * t.matrix, t) == pytest.approx(2.0)

    def test_one_vertex_has_no_bound(self):
        K = build_complex(["a"], [["a"]])
        with pytest.raises(ValueError, match="need at least two vertices"):
            minimal_linear_bound(np.zeros((1, 1)), word_metric(K))

    def test_supplied_too_small(self, book):
        t = word_metric(book)
        with pytest.raises(SuppliedConstantTooSmall):
            validate_vertex_metric(book, t.matrix.astype(float), C=0.5)

    def test_validation_computes_the_minimal_bound_once(self, book, monkeypatch):
        calls = []

        def counted(matrix, word):
            calls.append(word)
            return minimal_linear_bound(matrix, word)

        monkeypatch.setattr(vertexmetrics, "minimal_linear_bound", counted)
        vm = validate_vertex_metric(book, 2.0 * word_metric(book).matrix, C=3.0)
        assert (vm.C, vm.minimal_C, len(calls)) == (3.0, 2.0, 1)

    def test_minimal_attained(self, book):
        vm = transformed_word_metric(book, scale=1.5, saturation=0.5)
        t = word_metric(book)
        slack = vm.minimal_C * t.matrix - vm.matrix
        off = ~np.eye(len(t.order), dtype=bool)
        assert slack[off].min() >= -1e-9
        assert slack[off].min() <= 1e-9  # attained somewhere


# (C, minimal_C, A, B) of transformed_word_metric(K, scale, saturation), as the
# dense all-pairs scan gave them on every fleet complex
DENSE_SCAN_CONSTANTS = {
    (1.0, 0.0): (1.0, 1.0, 1.0, 0.0),
    (1.5, 0.5): (1.75, 1.75, 1.5, 0.5),
    (1.25, 0.8): (1.65, 1.65, 1.25, 0.8),
    (1.25, 0.75): (1.625, 1.625, 1.25, 0.75),
    (1.2, 0.4): (1.4, 1.4, 1.2, 0.4),
    (1.0, 0.9): (1.45, 1.45, 1.0, 0.9),
    (1.5, 0.0): (1.5, 1.5, 1.5, 0.0),
    (0.7, 2.3): (1.8499999999999999, 1.8499999999999999, 1.4285714285714286, 2.3),
    (3.0, 0.1): (3.05, 3.05, 3.0, 0.1),
}


def dense_transformed_word_metric(K, scale, saturation):
    """The dense matrix and scanned minimal C the transformed word metric was once built from."""
    word = word_metric(K)
    t = word.matrix.astype(float)
    m = scale * t + saturation * (1.0 - np.power(2.0, -t))
    np.fill_diagonal(m, 0.0)
    return m, minimal_linear_bound(m, word)


class TestWordDerivedMetrics:
    def test_transformed_metric_equals_the_dense_scan(self, complex_fleet):
        for K in complex_fleet.values():
            for (scale, saturation), constants in DENSE_SCAN_CONSTANTS.items():
                vm = transformed_word_metric(K, scale, saturation)
                m, minimal = dense_transformed_word_metric(K, scale, saturation)
                assert (vm.C, vm.minimal_C, vm.A, vm.B) == constants
                assert vm.minimal_C == minimal
                for u, v in itertools.product(K.vertices, repeat=2):
                    assert vm.distance(u, v) == m[vm.index[u], vm.index[v]]
                assert np.array_equal(vm.matrix, m)

    @pytest.mark.parametrize("name", ["scale", "saturation"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, np.True_])
    def test_non_finite_or_bool_transform_is_rejected(self, path3, name, value):
        # a NaN scale would give C = nan, and extended distances of nan
        params = {"scale": 1.5, "saturation": 0.5, name: value}
        with pytest.raises(InvalidParameters, match=f"^{name} must be a finite number"):
            transformed_word_metric(path3, **params)

    @pytest.mark.parametrize("scale, saturation", [(0.0, 0.5), (-1.5, 0.5), (1.5, -0.5)])
    def test_out_of_range_transform_is_rejected(self, path3, scale, saturation):
        with pytest.raises(ValueError, match="need scale > 0 and saturation >= 0"):
            transformed_word_metric(path3, scale, saturation)

    def test_word_vertex_metric_is_the_word_table(self, complex_fleet):
        for K in complex_fleet.values():
            vm = word_vertex_metric(K)
            t = word_metric(K)
            assert (vm.C, vm.minimal_C, vm.A, vm.B) == (1.0, 1.0, 1.0, 0.0)
            for u, v in itertools.product(K.vertices, repeat=2):
                assert vm.distance(u, v) == t.distance(u, v)
            assert np.array_equal(vm.matrix, t.matrix.astype(float))


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
        assert gromov_product(t.distance, "u", "v", "u") == 0.0

    def test_between(self, path3):
        t = word_metric(path3)
        assert gromov_product(t.distance, "u", "w", "v") == 0.0

    def test_tree_matches_oracle(self):
        K = tree_complex(2, 4)
        t = word_metric(K)
        rng = np.random.default_rng(1)
        vs = list(K.vertices)
        for _ in range(1000):
            a, b, c = (vs[i] for i in rng.integers(len(vs), size=3))
            assert gromov_product(t.distance, a, b, c) == tree_gromov_oracle(K, a, b, c)

    def test_dd_path_example(self):
        K = path_complex(4)
        t = word_metric(K)
        a, b, c, d = K.vertices
        # d(a,d)-d(b,d)-d(a,c)+d(b,c) = 3-2-2+1 = 0, halved: still 0
        assert double_difference(t.distance, a, b, d, c) == 0.0

    def test_dd_identities(self, book):
        t = word_metric(book)
        rng = np.random.default_rng(2)
        vs = list(book.vertices)
        dd = partial(double_difference, t.distance)
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
            lhs = double_difference(t.distance, a, b, x, y)
            rhs = gromov_product(t.distance, b, x, a) - gromov_product(t.distance, b, y, a)
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
