"""Boundary probes: rays, convergence, divergence, decay, windows."""

import numpy as np
import pytest

from metricext import (
    ExtendedMetric,
    InvalidConfiguration,
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

    def test_requires_qi_constants(self, tree):
        vm = word_vertex_metric(tree)
        stripped = type(vm)(
            order=vm.order, matrix=vm.matrix, C=vm.C, minimal_C=vm.minimal_C,
            A=None, B=None, index=vm.index,
        )
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
