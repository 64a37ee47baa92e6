"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one printed
pass line per criterion.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import itertools
from functools import partial

import numpy as np
import pytest

from metricext import (
    ExtendedMetric,
    apply_automorphism,
    bilinear_extension,
    dd_divergence_probe,
    decay_probe,
    deepest_ray,
    double_difference,
    exhaustive_metric_scan,
    grid_oracle_path_distance,
    gromov_product,
    l1_path_distance,
    lower_bounds,
    make_point,
    simplex_l1,
    transformed_word_metric,
    tree_gromov_oracle,
    tripwire_log,
    vertex_point,
    word_metric,
    word_vertex_metric,
)
from metricext.generators import (
    cycle_complex,
    grid_point,
    nested_quadruples,
    path_complex,
    random_disjoint_pair,
    random_point,
    random_same_simplex_pair,
    rips_complex,
    simplex_complex,
    tree_complex,
)

from conftest import (
    book_complex,
    cycle_rotation,
    edges,
    fleet,
    path_reversal,
    simplex_transposition,
    strip_complex,
    tree_reflection,
)

TOL = 1e-9
EXACT = 1e-12


@pytest.fixture(scope="module")
def complexes():
    return fleet()


@pytest.fixture(scope="module")
def deep_tree():
    K = tree_complex(2, 10)
    return K, ExtendedMetric(K, word_vertex_metric(K))


def _report(n, label):
    print(f"\nACCEPTANCE {n:02d} PASS - {label}")


def test_criterion_01_naive_failure_reproduction(complexes):
    checked = 0
    for name, K in complexes.items():
        pairs = edges(K)
        if not pairs:
            continue
        u, v = pairs[0]
        vm = word_vertex_metric(K)
        mid = make_point(K, {u: 0.5, v: 0.5})
        points = [vertex_point(K, u), vertex_point(K, v), mid]
        violations = exhaustive_metric_scan(
            lambda a, b: bilinear_extension(vm, a, b), points
        )
        identity = [s for s in violations if s.kind == "Identity"]
        assert identity, f"{name}: no identity violation found"
        diag = bilinear_extension(vm, mid, mid)
        assert abs(diag - 0.5) <= EXACT, f"{name}: edge midpoint diagonal {diag}"
        checked += 1
    assert checked >= 10
    _report(1, f"bilinear form fails identity of indiscernibles on {checked} complexes")


def test_criterion_02_vertex_agreement(complexes):
    assert len(complexes) >= 10
    pairs = 0
    for name, K in complexes.items():
        assert len(K.vertices) <= 40
        table = word_metric(K)
        for (i, u), (j, v) in itertools.combinations(enumerate(K.vertices), 2):
            value = l1_path_distance(K, vertex_point(K, u), vertex_point(K, v)).value
            assert value == table.distance(i, j), (name, u, v)
            pairs += 1
    _report(2, f"path metric equals word metric on {pairs} vertex pairs, exactly")


def test_criterion_03_restriction_and_diameter(complexes):
    for name, K in complexes.items():
        rng = np.random.default_rng(303)
        for _ in range(200):
            x, y = random_same_simplex_pair(K, rng)
            d = l1_path_distance(K, x, y).value
            assert abs(d - simplex_l1(x, y)) <= TOL, name
            assert d <= 1.0 + TOL, name
    _report(3, f"restriction and diameter hold on 200 same-simplex pairs x {len(complexes)} complexes")


def test_criterion_04_disjoint_supports(complexes):
    targets = ["path12", "cycle9", "book", "rips_c8"]
    total = 0
    for name in targets:
        K = complexes[name]
        vm = word_vertex_metric(K)
        M = ExtendedMetric(K, vm)
        rng = np.random.default_rng(404)
        for _ in range(50):
            x, y = random_disjoint_pair(K, rng)
            d_path = l1_path_distance(K, x, y).value
            bil = bilinear_extension(vm, x, y)
            value, branch = M.distance_with_branch(x, y)
            assert d_path >= 1.0 - TOL, name
            assert bil <= 3.0 * vm.C * d_path + TOL, name
            assert branch == "bilinear" and value == bil, name
            total += 1
    assert total >= 200
    _report(4, f"disjoint-support floor, comparison and equality on {total} pairs")


def test_criterion_05_extension_metric_axioms(complexes):
    names = ["tree23", "cycle9", "rips_c8"]
    for name in names:
        K = complexes[name]
        vm = word_vertex_metric(K)
        M = ExtendedMetric(K, vm)
        two_c = 2.0 * vm.C
        rng = np.random.default_rng(505)
        for _ in range(500):
            x, y, z = (random_point(K, rng) for _ in range(3))
            dxy = M.distance(x, y)
            dyx = M.distance(y, x)
            assert dxy == dyx, name  # symmetry, exact
            assert M.distance(x, z) <= dxy + M.distance(y, z) + TOL, name
            if max(abs(x.get(v) - y.get(v)) for v in set(x.weights) | set(y.weights)) >= 1e-6:
                assert dxy > 0.0, name
            # mixed inequality: try the admissible floor first, exact on demand
            lhs = bilinear_extension(vm, x, z)
            base = bilinear_extension(vm, x, y)
            floor = max(v for _, v in lower_bounds(K, y, z))
            if lhs > base + two_c * floor + TOL:
                assert lhs <= base + two_c * l1_path_distance(K, y, z).value + TOL, name
            # bilinear triangle inequality on its own
            assert lhs <= base + bilinear_extension(vm, y, z) + TOL, name
    _report(5, f"extension metric axioms + mixed inequality on 500 triples x {len(names)} complexes")


def test_criterion_06_oracle_agreement():
    targets = {
        "book": book_complex(),
        "strip": strip_complex(),
        "rips_c6": rips_complex(cycle_complex(6), 2),
    }
    total = 0
    for name, K in targets.items():
        assert K.dimension <= 2 and len(K.vertices) <= 12
        rng = np.random.default_rng(606)
        for _ in range(17):
            x = grid_point(K, rng, 16)
            y = grid_point(K, rng, 16)
            exact = l1_path_distance(K, x, y).value
            coarse = grid_oracle_path_distance(K, x, y, 1 / 16)
            fine = grid_oracle_path_distance(K, x, y, 1 / 32)
            assert exact <= coarse + TOL, name
            assert coarse - exact <= K.dimension * (1 / 16) * (1 + exact), name
            assert fine <= coarse + TOL, name
            assert exact <= fine + TOL, name
            # the points lie on both grids, where the oracle is exact
            assert abs(coarse - exact) <= TOL, name
            assert abs(fine - exact) <= TOL, name
            total += 1
    assert total >= 50
    _report(6, f"grid oracle equality, sandwich and refinement on {total} pairs")


def test_criterion_07_sandwich(complexes):
    names = ["cycle9", "tree23", "book"]
    for name in names:
        K = complexes[name]
        vm = transformed_word_metric(K, scale=1.25, saturation=0.8)
        M = ExtendedMetric(K, vm)
        width = 2.0 * (vm.A + vm.B)
        rng = np.random.default_rng(707)
        for _ in range(100):
            x, y = random_point(K, rng), random_point(K, rng)
            bil = bilinear_extension(vm, x, y)
            ext = M.distance(x, y)
            assert ext <= bil + TOL, name
            assert bil - ext <= width + TOL, name
        for _ in range(100):
            quad = [random_point(K, rng) for _ in range(4)]
            gap = abs(
                double_difference(M.distance, *quad)
                - double_difference(partial(bilinear_extension, vm), *quad)
            )
            assert gap <= 4.0 * width + TOL, name
    _report(7, "bilinear sandwich with B' = 2(A+B) and the 4B' window hold")


def test_criterion_08_dd_identities_and_gp(complexes):
    names = ["book", "rips_c8", "tree23"]
    count = 0
    for name in names:
        K = complexes[name]
        M = ExtendedMetric(K, word_vertex_metric(K))
        rng = np.random.default_rng(808)
        dd = partial(double_difference, M.distance)
        for _ in range(100):
            a, a2, a3, b, b2 = (random_point(K, rng) for _ in range(5))
            assert abs(dd(a, a2, b, b2) - dd(b, b2, a, a2)) <= TOL
            assert abs(dd(a, a2, b, b2) + dd(a2, a, b, b2)) <= TOL
            assert abs(dd(a, a2, b, b2) + dd(a, a2, b2, b)) <= TOL
            assert dd(a, a, b, b2) == 0.0 and dd(a, a2, b, b) == 0.0
            assert abs(dd(a, a2, b, b2) + dd(a2, a3, b, b2) - dd(a, a3, b, b2)) <= TOL
            assert abs(dd(a, b, a3, b2) + dd(a3, a, b, b2) + dd(b, a3, a, b2)) <= TOL
            assert abs(gromov_product(M.distance, a, b, b2) - dd(b2, a, b, b2)) <= TOL
            count += 1
    assert count >= 300
    _report(8, f"double-difference identities and GP consistency on {count} tuples")


def test_criterion_09_divergence_signs(deep_tree):
    K, M = deep_tree
    ray = deepest_ray(K, K.vertices[0])
    assert ray.depth >= 10
    ua, ub = ray.vertices[0], ray.vertices[1]
    a2, b = vertex_point(K, ua), vertex_point(K, ub)
    depths = range(1, 11)
    crossed = dd_divergence_probe(M, [ray, a2, b, ray], depths=depths)
    straight = dd_divergence_probe(M, [ray, a2, ray, b], depths=depths)
    assert crossed.verdict == "+inf-divergent"
    assert straight.verdict == "-inf-divergent"
    cvals = dict(crossed.table)
    svals = dict(straight.table)
    for t in range(2, 11):
        assert cvals[t] - cvals[t - 1] >= 1.0 - EXACT  # +1 per step past projection
        assert svals[t] == -cvals[t]  # symmetric decrease
    for t in depths:
        closed_form = tree_gromov_oracle(K, ua, ub, ray.vertices[t])
        assert cvals[t] == closed_form
        assert svals[t] == -closed_form
    _report(9, "crossed/straight divergence signs and exact tree closed form")


def test_criterion_10_decay(deep_tree):
    K, M = deep_tree
    assert (M.vertex.A, M.vertex.B) == (1.0, 0.0)
    rng = np.random.default_rng(1010)
    quads = nested_quadruples(K, rng, count=40)
    points = [tuple(vertex_point(K, v) for v in q) for q in quads]
    report = decay_probe(M, points, threshold=6.0)
    assert report.verdict == "decay-consistent"
    assert len(report.table) >= 10
    for m, value in report.table:
        assert m >= 6.0
        assert value <= 0.95**m
    assert report.fitted["lambda"] == 0.5  # exact zeros fit the grid minimum
    _report(10, f"decay bound holds on {len(report.table)} quadruples with m >= 6")


def test_criterion_11_automorphism_invariance():
    cases = [
        ("cycle8", cycle_complex(8), lambda K: cycle_rotation(K, 3)),
        ("path7", path_complex(7), path_reversal),
        ("tree23", tree_complex(2, 3), lambda K: tree_reflection(K, 2)),
        ("simplex3", simplex_complex(3), simplex_transposition),
        ("strip", strip_complex(), None),
    ]
    for name, K, builder in cases:
        if builder is None:
            from metricext import make_automorphism

            g = make_automorphism(K, {"a": "e", "b": "d", "c": "c", "d": "b", "e": "a"})
        else:
            g = builder(K)
        assert any(g.as_dict()[v] != v for v in K.vertices), name
        vm = word_vertex_metric(K)
        mapping = g.as_dict()
        perm = [K.index[mapping[v]] for v in K.vertices]
        assert np.array_equal(vm.matrix[np.ix_(perm, perm)], vm.matrix), name
        M = ExtendedMetric(K, vm)
        rng = np.random.default_rng(1111)
        for _ in range(40):
            pts = [random_point(K, rng) for _ in range(4)]
            gpts = [apply_automorphism(K, g, p) for p in pts]
            assert abs(M.distance(pts[0], pts[1]) - M.distance(gpts[0], gpts[1])) <= EXACT, name
            assert abs(
                double_difference(M.distance, *pts) - double_difference(M.distance, *gpts)
            ) <= EXACT, name
            assert abs(
                gromov_product(M.distance, *pts[:3]) - gromov_product(M.distance, *gpts[:3])
            ) <= EXACT, name
    _report(11, "extension, double differences, Gromov products automorphism-invariant on 5 complexes")


def test_criterion_12_tripwire(complexes):
    log = tripwire_log()
    assert log.checks > 0, "no lower-bound checks ran; solver never exercised"
    assert log.violations == [], log.violations
    # every distance computed in this module re-checked its bounds; a fresh
    # sweep here makes the criterion self-contained as well
    K = complexes["book"]
    rng = np.random.default_rng(1212)
    before = log.checks
    for _ in range(50):
        x, y = random_point(K, rng), random_point(K, rng)
        l1_path_distance(K, x, y)
    assert log.checks > before
    assert log.violations == []
    _report(12, f"{log.checks} lower-bound checks across the suite, zero violations")
