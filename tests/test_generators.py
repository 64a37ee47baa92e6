"""Generators, samplers, file round-trips."""

import hashlib
import json
from itertools import combinations

import numpy as np
import pytest

from metricext import (
    GeneratorSpec,
    InvalidParameters,
    generate,
    hyperbolicity_delta,
    word_vertex_metric,
)
from metricext.fileio import complex_from_dict, complex_to_dict
from metricext.generators import (
    _cliques,
    cycle_complex,
    grid_point,
    nested_quadruples,
    path_complex,
    random_complex,
    random_disjoint_pair,
    random_point,
    rips_complex,
    sample_geodesic_triples,
    simplex_complex,
    tree_complex,
)

from conftest import all_faces


class TestGenerators:
    def test_binary_tree_2_3(self):
        K = tree_complex(2, 3)
        assert len(K.vertices) == 15
        assert len(K.edges()) == 14
        assert hyperbolicity_delta(word_vertex_metric(K)) == 0.0

    def test_simplex_3_is_tetrahedron(self):
        K = simplex_complex(3)
        assert len(K.vertices) == 4
        assert len(K.maximal_simplices) == 1
        assert K.dimension == 3
        assert sum(K.spans(t) for k in range(5) for t in combinations(K.vertices, k)) == 15

    def test_rips_c6_radius_1_is_c6(self):
        base = cycle_complex(6)
        K = rips_complex(base, 1)
        assert K.dimension == 1
        assert sorted(K.maximal_simplices) == sorted(base.maximal_simplices)

    def test_rips_c6_radius_2_has_triangles(self):
        K = rips_complex(cycle_complex(6), 2)
        assert K.dimension >= 2

    def test_random_is_connected_and_seeded(self):
        a = random_complex(14, 0.2, seed=42)
        b = random_complex(14, 0.2, seed=42)
        assert a == b
        word_vertex_metric(a)  # raises if disconnected

    def test_bench_complexes_keep_their_fingerprints(self):
        # The fingerprints bench/pool.json was made on: vertices and maximal
        # simplices, as JSON, through sha256.
        def fingerprint(K):
            text = json.dumps([list(K.vertices), [list(s) for s in K.maximal_simplices]])
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        assert {
            "tree2_11": fingerprint(tree_complex(2, 11)),
            "tree2_9": fingerprint(tree_complex(2, 9)),
            "random80": fingerprint(random_complex(80, 0.08, seed=1)),
            "rips_c30": fingerprint(rips_complex(cycle_complex(30), 2)),
            "random30": fingerprint(random_complex(30, 0.15, seed=0)),
            "rips_c12": fingerprint(rips_complex(cycle_complex(12), 2)),
            "rips_p40": fingerprint(rips_complex(path_complex(40), 3)),
        } == {
            "tree2_11": "b687237961f644bb",
            "tree2_9": "cba8888c50063f44",
            "random80": "8fd81c65eea346fa",
            "rips_c30": "6023df44f2efb4ca",
            "random30": "e15ef6fe4bd85b8c",
            "rips_c12": "0a97cccb84365400",
            "rips_p40": "4b8434a3b38edd60",
        }

    def test_clique_enumerator_matches_the_combinations_filter(self):
        rng = np.random.default_rng(7)
        for _ in range(80):
            n, max_size = int(rng.integers(1, 14)), int(rng.integers(1, 6))
            density = rng.random()
            vs = [f"v{i:02d}" for i in range(n)]
            edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < density]
            adj = {frozenset((vs[i], vs[j])) for i, j in edges}
            want = [
                list(c)
                for size in range(1, max_size + 1)
                for c in combinations(vs, size)
                if all(frozenset(p) in adj for p in combinations(c, 2))
            ]
            got = _cliques(vs, edges, max_size)
            assert sorted(got, key=lambda c: (len(c), c)) == want

    def test_generate_dispatch(self):
        assert generate(GeneratorSpec("cycle", (5,))).vertices == cycle_complex(5).vertices
        with pytest.raises(InvalidParameters):
            generate(GeneratorSpec("nope", (1,)))
        with pytest.raises(InvalidParameters):
            generate(GeneratorSpec("tree", (2,)))
        with pytest.raises(InvalidParameters):
            generate(GeneratorSpec("rips", (1,)))

    def test_roundtrip_through_json_dict(self):
        for K in (tree_complex(2, 2), rips_complex(cycle_complex(8), 2), path_complex(5)):
            assert complex_from_dict(complex_to_dict(K)) == K

    def test_roundtrip_through_file(self, tmp_path):
        from metricext.fileio import load_complex, save_complex

        K = rips_complex(cycle_complex(7), 2)
        save_complex(K, tmp_path / "k.json")
        assert load_complex(tmp_path / "k.json") == K


class TestSamplers:
    def test_points_are_valid_and_seeded(self):
        K = rips_complex(cycle_complex(8), 2)
        a = [random_point(K, np.random.default_rng(1)) for _ in range(10)]
        b = [random_point(K, np.random.default_rng(1)) for _ in range(10)]
        assert a == b
        faces = all_faces(K)
        for p in a:
            assert p.support in faces

    def test_disjoint_pair(self, book, rng):
        for _ in range(20):
            x, y = random_disjoint_pair(book, rng)
            assert not set(x.support) & set(y.support)

    def test_grid_point_is_on_grid(self, strip, rng):
        for _ in range(20):
            p = grid_point(strip, rng, 16)
            for _, w in p.items:
                assert abs(w * 16 - round(w * 16)) < 1e-12

    def test_geodesic_samplers_reproduce_their_samples(self):
        # Values from the samplers' BFS-based implementation; the word-table
        # descent makes the same draws in the same order.
        K = random_complex(20, 0.18, seed=5)
        assert sample_geodesic_triples(K, np.random.default_rng(1), 5) == [
            ("g09", "g10", "g10"), ("g00", "g02", "g02"), ("g04", "g14", "g06"),
            ("g16", "g08", "g05"), ("g12", "g12", "g10"),
        ]
        K = tree_complex(2, 5)
        assert nested_quadruples(K, np.random.default_rng(4), 4, min_gap=4) == [
            ("t45", "t30", "t62", "t01"), ("t59", "t10", "t46", "t02"),
            ("t28", "t04", "t40", "t13"), ("t39", "t06", "t59", "t04"),
        ]

    def test_nested_quadruples_have_gap(self):
        K = path_complex(20)
        rng = np.random.default_rng(3)
        quads = nested_quadruples(K, rng, count=10, min_gap=5)
        assert quads
        from metricext import word_metric

        t = word_metric(K)
        for u, a, b, c in quads:
            assert t.distance(c, a) >= 5
