"""Boundary probes: rays, convergence, divergence, decay, windows."""

import numpy as np
import pytest

from metricext import (
    ExtendedMetric,
    InvalidConfiguration,
    InvalidParameters,
    MissingQIConstants,
    dd_convergence_probe,
    dd_divergence_probe,
    decay_probe,
    deepest_ray,
    equivalence_windows_check,
    make_ray,
    tree_gromov_oracle,
    vertex_point,
    word_vertex_metric,
)
from metricext.generators import (
    cycle_complex,
    nested_quadruples,
    path_complex,
    random_point,
    tree_complex,
)


@pytest.fixture(scope="module")
def tree():
    return tree_complex(2, 5)


@pytest.fixture(scope="module")
def tree_metric(tree):
    return ExtendedMetric(tree, word_vertex_metric(tree))


class TestRays:
    def test_make_ray_validates_distances(self, tree):
        ray = deepest_ray(tree, tree.vertices[0])
        assert ray.depth == 5
        with pytest.raises(InvalidConfiguration):
            make_ray(tree, [tree.vertices[0], tree.vertices[0]])

    def test_an_unknown_base_is_invalid_for_either_ray(self, tree):
        message = "ray base 'zz' is not a vertex of the complex"
        for build in (lambda: make_ray(tree, ["zz"]), lambda: deepest_ray(tree, "zz")):
            with pytest.raises(InvalidConfiguration, match=message):
                build()

    def test_ray_needs_adjacency(self, path3):
        with pytest.raises(InvalidConfiguration):
            make_ray(path3, ["u", "w"])

    def test_point_at_bounds(self, path3):
        ray = make_ray(path3, ["u", "v", "w"])
        assert ray.point_at(path3, 2) == vertex_point(path3, "w")
        with pytest.raises(InvalidConfiguration):
            ray.point_at(path3, 3)


class TestConvergenceProbe:
    def test_all_fixed_is_constant(self, tree, tree_metric):
        pts = [vertex_point(tree, v) for v in tree.vertices[:4]]
        report = dd_convergence_probe(tree_metric, pts)
        assert report.verdict == "converging"
        assert len(report.table) == 1

    def test_stabilizes_past_projection(self):
        # one slot walks away along a path; the value freezes once the ray
        # passes the projections of the fixed points
        K = path_complex(16)
        M = ExtendedMetric(K, word_vertex_metric(K))
        vs = K.vertices
        ray = make_ray(K, list(vs[7:]))  # walks right from the middle
        fixed = [vertex_point(K, vs[6]), vertex_point(K, vs[5]), vertex_point(K, vs[4])]
        report = dd_convergence_probe(M, [ray, *fixed], depths=range(0, 9))
        assert report.verdict == "converging"
        tail = [v for _, v in report.table][1:]
        assert all(v == tail[0] for v in tail)  # exact stabilization on a tree

    def test_repeated_standin_rejected(self, tree, tree_metric):
        ray = deepest_ray(tree, tree.vertices[0])
        fixed = vertex_point(tree, tree.vertices[1])
        with pytest.raises(InvalidConfiguration):
            dd_convergence_probe(tree_metric, [ray, ray, ray, fixed])

    def test_needs_four_slots(self, tree, tree_metric):
        with pytest.raises(InvalidConfiguration):
            dd_convergence_probe(tree_metric, [vertex_point(tree, tree.vertices[0])] * 3)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tol_rejected(self, tree, tree_metric, tol):
        # final_step < nan is always False: every table would read inconclusive
        ray = deepest_ray(tree, tree.vertices[0])
        fixed = [vertex_point(tree, v) for v in tree.vertices[1:4]]
        with pytest.raises(InvalidParameters, match="tol must be a finite number"):
            dd_convergence_probe(tree_metric, [ray, *fixed], tol=tol)

    @pytest.mark.parametrize("tol", [0.0, -1.0, -1e-300])
    def test_tol_not_positive_rejected(self, tree, tree_metric, tol):
        # final_step < tol never holds for tol <= 0: every table would read inconclusive
        ray = deepest_ray(tree, tree.vertices[0])
        fixed = [vertex_point(tree, v) for v in tree.vertices[1:4]]
        with pytest.raises(InvalidParameters, match="tol must be positive"):
            dd_convergence_probe(tree_metric, [ray, *fixed], tol=tol)


class TestDivergenceProbe:
    def test_crossed_goes_up(self, tree, tree_metric):
        ray = deepest_ray(tree, tree.vertices[0])
        a2 = vertex_point(tree, ray.vertices[0])
        b = vertex_point(tree, ray.vertices[1])
        report = dd_divergence_probe(tree_metric, [ray, a2, b, ray])
        assert report.verdict == "+inf-divergent"
        assert report.fitted["expected_sign"] == 1.0

    def test_straight_goes_down(self, tree, tree_metric):
        ray = deepest_ray(tree, tree.vertices[0])
        a2 = vertex_point(tree, ray.vertices[0])
        b2 = vertex_point(tree, ray.vertices[1])
        report = dd_divergence_probe(tree_metric, [ray, a2, ray, b2])
        assert report.verdict == "-inf-divergent"
        assert report.fitted["expected_sign"] == -1.0

    def test_all_finite_bounded(self, tree, tree_metric):
        pts = [vertex_point(tree, v) for v in tree.vertices[:4]]
        report = dd_divergence_probe(tree_metric, pts, depths=[1, 2, 3])
        assert report.verdict == "bounded"

    def test_matches_tree_closed_form(self, tree, tree_metric):
        # with x = y' = ray(t), the double difference equals the distance
        # from ray(t) to the path between the two fixed vertices
        ray = deepest_ray(tree, tree.vertices[0])
        ua, ub = ray.vertices[0], ray.vertices[1]
        report = dd_divergence_probe(
            tree_metric,
            [ray, vertex_point(tree, ua), vertex_point(tree, ub), ray],
        )
        for t, value in report.table:
            assert value == tree_gromov_oracle(tree, ua, ub, ray.vertices[int(t)])


class TestDecayProbe:
    def test_tree_is_decay_consistent(self):
        K = tree_complex(2, 6)
        M = ExtendedMetric(K, word_vertex_metric(K))
        rng = np.random.default_rng(12)
        quads = nested_quadruples(K, rng, count=30)
        points = [tuple(vertex_point(K, v) for v in q) for q in quads]
        report = decay_probe(M, points)
        assert report.verdict == "decay-consistent"
        assert report.fitted["lambda"] == 0.5  # tree values vanish exactly
        assert report.fitted["threshold"] == 6.0
        assert len(report.table) >= 5

    def test_below_threshold_excluded(self, tree, tree_metric):
        vs = tree.vertices
        quad = tuple(vertex_point(tree, v) for v in vs[:4])
        report = decay_probe(tree_metric, [quad])  # tiny m, excluded
        assert report.verdict == "inconclusive"
        assert report.table == ()

    def test_violated_names_its_worst_row(self):
        # on the 8-cycle the last quadruple's crossing double difference is 1 at m = 1, above
        # every grid lambda ** 1; the other two rows are 0
        K = cycle_complex(8)
        M = ExtendedMetric(K, word_vertex_metric(K))
        quads = [("c00", "c02", "c03", "c01"), ("c00", "c03", "c04", "c01"), ("c00", "c01", "c02", "c05")]
        points = [tuple(vertex_point(K, v) for v in q) for q in quads]
        report = decay_probe(M, points, threshold=0.5)
        assert report.verdict == "violated"
        assert report.table == ((1.0, 0.0), (1.0, 1.0), (2.0, 0.0))
        assert report.fitted == {"threshold": 0.5, "worst_m": 1.0, "worst_value": 1.0}

    def test_adversarial_complex_is_reported_not_asserted(self):
        # a large cycle is as far from hyperbolic as desk scale allows; the
        # probe may report violation, and that is an outcome, not a failure
        K = cycle_complex(40)
        M = ExtendedMetric(K, word_vertex_metric(K))
        rng = np.random.default_rng(15)
        quads = nested_quadruples(K, rng, count=25)
        points = [tuple(vertex_point(K, v) for v in q) for q in quads]
        report = decay_probe(M, points)
        assert report.verdict in ("decay-consistent", "violated", "inconclusive")

    @pytest.mark.parametrize("params, name", [
        ({"threshold": float("nan")}, "threshold"),
        ({"threshold": float("inf")}, "threshold"),
        ({"lambda_grid": (0.5, float("nan"))}, "lambda_grid"),
        ({"lambda_grid": (float("inf"),)}, "lambda_grid"),
    ])
    def test_non_finite_parameters_rejected(self, params, name):
        # a NaN grid entry fits nothing, so the verdict would read "violated" with
        # worst_value=0; m < nan is always False, so a NaN threshold would keep every quadruple
        K = tree_complex(2, 6)
        M = ExtendedMetric(K, word_vertex_metric(K))
        quads = nested_quadruples(K, np.random.default_rng(12), count=30)
        points = [tuple(vertex_point(K, v) for v in q) for q in quads]
        with pytest.raises(InvalidParameters, match=f"{name} must be a finite number"):
            decay_probe(M, points, **params)

    @pytest.mark.parametrize("grid", [(-0.5,), (0.0,), (0.5, 1.0), (2.0,), ()])
    def test_grid_outside_the_unit_interval_rejected(self, grid):
        # (-0.5)**7 < 0 would undercut a zero value and read "violated"; lambda = 2
        # would fit growth and read "decay-consistent"; () has no lambda to fit
        K = tree_complex(2, 6)
        M = ExtendedMetric(K, word_vertex_metric(K))
        quads = nested_quadruples(K, np.random.default_rng(12), count=30)
        points = [tuple(vertex_point(K, v) for v in q) for q in quads]
        with pytest.raises(InvalidParameters, match="lambda_grid"):
            decay_probe(M, points, lambda_grid=grid)

    def test_requires_qi_constants(self, tree):
        vm = word_vertex_metric(tree)
        stripped = type(vm)(K=vm.K, matrix=vm.matrix, C=vm.C, minimal_C=vm.minimal_C, A=None, B=None)
        M = ExtendedMetric(tree, stripped)
        with pytest.raises(MissingQIConstants):
            decay_probe(M, [])


class TestEquivalenceWindows:
    def test_word_metric_fits_identity(self, tree, tree_metric):
        rng = np.random.default_rng(13)
        vs = list(tree.vertices)
        samples = [
            tuple(vertex_point(tree, vs[i]) for i in rng.integers(len(vs), size=4))
            for _ in range(60)
        ]
        res = equivalence_windows_check(tree_metric, samples)
        assert res.passed
        assert res.alpha == 1.0 and res.beta == 0.0

    def test_mixed_samples_pass(self, tree, tree_metric):
        rng = np.random.default_rng(14)
        samples = [tuple(random_point(tree, rng) for _ in range(4)) for _ in range(40)]
        res = equivalence_windows_check(tree_metric, samples)
        assert res.passed
        assert res.checked == 40


class TestReproducibility:
    def test_same_seed_same_report(self):
        K = tree_complex(2, 5)
        M = ExtendedMetric(K, word_vertex_metric(K))
        out = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            quads = nested_quadruples(K, rng, count=10)
            points = [tuple(vertex_point(K, v) for v in q) for q in quads]
            out.append(decay_probe(M, points))
        assert out[0] == out[1]
