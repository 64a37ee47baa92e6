"""Generators, samplers, file round-trips."""

import hashlib
import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from numpy.random import MT19937, SFC64, Generator, Philox

from metricext import (
    GeneratorSpec,
    InvalidParameters,
    generate,
    hyperbolicity_delta,
    make_point,
    vertex_point,
    word_vertex_metric,
)
from metricext import checks, generators
from metricext.checks import run_checks
from metricext.fileio import complex_from_dict, complex_to_dict
from metricext.generators import (
    _cliques,
    _integer,
    _random_face,
    _uniforms,
    cycle_complex,
    grid_point,
    nested_quadruples,
    path_complex,
    random_complex,
    random_disjoint_pair,
    random_point,
    random_quadruples,
    random_vertex,
    rips_complex,
    simplex_complex,
    tree_complex,
)

from conftest import (
    all_faces,
    assert_same_complex,
    fleet,
    reference_random_complex,
    reference_random_edges,
    reference_rips_complex,
    sample_geodesic_triples,
)


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
            cliques = [
                list(c)
                for size in range(1, max_size + 1)
                for c in combinations(vs, size)
                if all(frozenset(p) in adj for p in combinations(c, 2))
            ]
            # only the maximal ones are listed: the flag complex's maximal simplices
            want = [c for c in cliques if not any(set(c) < set(d) for d in cliques)]
            got = _cliques(vs, edges, max_size)
            assert sorted(got, key=lambda c: (len(c), c)) == want

    def test_flag_complexes_equal_the_full_clique_build(self):
        for n, density, seed in [(14, 0.25, 3), (20, 0.18, 5), (80, 0.08, 1), (30, 0.15, 0)]:
            assert_same_complex(
                random_complex(n, density, seed), reference_random_complex(n, density, seed)
            )
        for base, radius, max_dim in [
            (cycle_complex(8), 2, 3),
            (path_complex(10), 2, 3),
            (cycle_complex(30), 2, 3),
            (cycle_complex(12), 2, 3),
            (path_complex(40), 3, 3),
            (cycle_complex(40), 6, 6),
        ]:
            assert_same_complex(
                rips_complex(base, radius, max_dim), reference_rips_complex(base, radius, max_dim)
            )
        rng = np.random.default_rng(17)
        for _ in range(80):
            n, seed, max_dim = int(rng.integers(2, 18)), int(rng.integers(1000)), int(rng.integers(1, 5))
            density = float(rng.random())
            K = random_complex(n, density, seed, max_dim)
            assert_same_complex(K, reference_random_complex(n, density, seed, max_dim))
            radius = int(rng.integers(1, 4))
            assert_same_complex(
                rips_complex(K, radius, max_dim), reference_rips_complex(K, radius, max_dim)
            )

    @pytest.mark.parametrize("density", [0.05, 0.3, 0.9])
    def test_random_edges_are_the_scalar_draws(self, density):
        # one rng.random(k) is the stream of k scalar rng.random() calls
        for seed in range(20):
            n = 5 + seed
            K = random_complex(n, density, seed)
            vs = K.vertices
            assert K.edges() == sorted((vs[i], vs[j]) for i, j in reference_random_edges(n, density, seed))

    def test_random_edges_drawn_in_blocks_are_the_scalar_draws(self):
        # 79,800 pairs: the uniforms are drawn in two blocks, one stream
        n, density, seed = 400, 0.01, 3
        K = random_complex(n, density, seed)
        vs = K.vertices
        assert K.edges() == sorted((vs[i], vs[j]) for i, j in reference_random_edges(n, density, seed))

    def test_random_complex_memory_does_not_grow_with_the_pairs(self):
        # 4.5 million pairs: all their uniforms at once took 77 MiB
        tracemalloc.start()
        try:
            random_complex(3000, 0.001, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("radius", [float("nan"), 0.5, 0, -1])
    def test_rips_radius_below_one_is_rejected(self, radius):
        # a NaN radius once gave lone vertices, which no later command accepts
        with pytest.raises(InvalidParameters, match="need radius >= 1"):
            rips_complex(cycle_complex(6), radius)

    @pytest.mark.parametrize("max_dim", [0, -2])
    def test_random_max_dim_below_one_is_rejected(self, max_dim):
        # 0 gave a disconnected complex of lone vertices, and -2 ignored the cap
        with pytest.raises(InvalidParameters, match="max_dim >= 1"):
            random_complex(6, 0.9, seed=0, max_dim=max_dim)

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

    def test_random_quadruples_are_the_inline_draws(self):
        # the loop the probe-window check and `probe windows` each ran: one fair bit, then four draws
        K = rips_complex(cycle_complex(8), 2)
        rng = np.random.default_rng(6)
        want = []
        for _ in range(12):
            pick = rng.integers(2)
            want.append(tuple(random_vertex(K, rng) if pick else random_point(K, rng) for _ in range(4)))
        assert random_quadruples(K, np.random.default_rng(6), 12) == want

    def test_geodesic_samplers_reproduce_their_samples(self, monkeypatch):
        # Values from the samplers' BFS-based implementation; the word-table
        # descent makes the same draws in the same order.
        K = random_complex(20, 0.18, seed=5)
        assert sample_geodesic_triples(K, np.random.default_rng(1), 5) == [
            ("g09", "g10", "g10"), ("g00", "g02", "g02"), ("g04", "g14", "g06"),
            ("g16", "g08", "g05"), ("g12", "g12", "g10"),
        ]
        K = tree_complex(2, 5)
        monkeypatch.setattr(generators, "MIN_GAP", 4)
        assert nested_quadruples(K, np.random.default_rng(4), 4) == [
            ("t45", "t30", "t62", "t01"), ("t59", "t10", "t46", "t02"),
            ("t28", "t04", "t40", "t13"), ("t39", "t06", "t59", "t04"),
        ]

    def test_nested_quadruples_have_gap(self, monkeypatch):
        K = path_complex(20)
        rng = np.random.default_rng(3)
        monkeypatch.setattr(generators, "MIN_GAP", 5)
        quads = nested_quadruples(K, rng, count=10)
        assert quads
        from metricext import word_metric

        t = word_metric(K)
        for u, a, b, c in quads:
            assert t.distance(c, a) >= 5


# --------------------------------------------------------------------------
# The samplers draw numpy's stream through the bit generator; these are the
# numpy calls they replace, kept as the reference.

def numpy_random_face(rng, sigma):
    size = int(rng.integers(1, len(sigma) + 1))
    return tuple(sigma[i] for i in sorted(rng.choice(len(sigma), size=size, replace=False)))


def numpy_random_point(K, rng, face=None):
    if face is None:
        face = numpy_random_face(rng, K.maximal_simplices[rng.integers(len(K.maximal_simplices))])
    raw = 0.05 + rng.random(len(face))
    # built through the module's name, which the verdict test records, as random_point's points are
    return generators.make_point(K, {v: float(w) for v, w in zip(face, raw)})


def list_disjoint_fallback(K, rng):
    verts = list(K.vertices)
    u = verts[rng.integers(len(verts))]
    rest = [v for v in verts if v != u]
    v = rest[rng.integers(len(rest))]
    return vertex_point(K, u), vertex_point(K, v)


# next_uint32 buffers half of a 64-bit word on PCG64, SFC64 and Philox, and nothing on MT19937
BIT_GENERATORS = {
    "pcg64": np.random.default_rng,
    "sfc64": lambda seed: Generator(SFC64(seed)),
    "philox": lambda seed: Generator(Philox(seed)),
    "mt19937": lambda seed: Generator(MT19937(seed)),
}


@pytest.fixture(params=sorted(BIT_GENERATORS))
def twin_rngs(request):
    """Two generators on one seed: one for the samplers' draws, one for numpy's own calls."""
    make = BIT_GENERATORS[request.param]
    return make(11), make(11)


class TestDrawParity:
    def test_integers(self, twin_rngs):
        ours, theirs = twin_rngs
        ranges = [*range(1, 71), 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 3 << 40]
        for n in ranges:
            for _ in range(4):
                assert _integer(ours, n) == int(theirs.integers(n)), n
                assert ours.random() == theirs.random()
                assert _integer(ours, n) == int(theirs.integers(n)), n
                assert int(ours.integers(7)) == int(theirs.integers(7))
        with pytest.raises(ValueError):
            _integer(ours, 0)

    @pytest.mark.parametrize("ks", [range(1, 65), [10_000, 10_001]], ids=["1-64", "10000-10001"])
    def test_faces(self, twin_rngs, ks):
        ours, theirs = twin_rngs
        for k in ks:
            for _ in range(12 if k <= 64 else 2):
                size = int(theirs.integers(1, k + 1))
                want = sorted(int(i) for i in theirs.choice(k, size=size, replace=False))
                assert list(_random_face(ours, tuple(range(k)))) == want, k
                assert ours.random() == theirs.random()
                assert int(ours.integers(7)) == int(theirs.integers(7))

    def test_uniforms(self, twin_rngs):
        ours, theirs = twin_rngs
        for k in [*range(12), 100]:
            with ours.bit_generator.lock:
                assert _uniforms(ours.bit_generator.ctypes, k) == theirs.random(k).tolist()
            assert ours.random() == theirs.random()
            assert int(ours.integers(7)) == int(theirs.integers(7))

    def test_points_and_faces_match_the_numpy_calls(self, twin_rngs, complex_fleet):
        ours, theirs = twin_rngs
        for K in complex_fleet.values():
            for _ in range(20):
                assert random_point(K, ours) == numpy_random_point(K, theirs)
                sigma = K.maximal_simplices[-1]
                assert _random_face(ours, sigma) == numpy_random_face(theirs, sigma)
                assert random_point(K, ours, face=sigma) == numpy_random_point(K, theirs, face=sigma)

    def test_disjoint_fallback_is_the_list_based_draw(self, complex_fleet, monkeypatch):
        monkeypatch.setattr(generators, "DISJOINT_TRIES", 0)
        for name, K in complex_fleet.items():
            for seed in range(30):
                got = random_disjoint_pair(K, np.random.default_rng(seed))
                assert got == list_disjoint_fallback(K, np.random.default_rng(seed)), (name, seed)
                assert got[0] != got[1]

    def test_disjoint_fallback_on_one_vertex_raises_as_before(self, monkeypatch):
        monkeypatch.setattr(generators, "DISJOINT_TRIES", 0)
        K = simplex_complex(0)
        for draw in (random_disjoint_pair, list_disjoint_fallback):
            with pytest.raises(ValueError):
                draw(K, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_check_verdicts_equal_the_numpy_drawn_samplers(self, seed, monkeypatch):
        def run_all():
            """Every fleet complex's CheckResults, and every point the samplers built for them."""
            points = []

            def recorded(build):
                def build_and_record(*args):
                    points.append(build(*args))
                    return points[-1]

                return build_and_record

            with monkeypatch.context() as patch:
                patch.setattr(generators, "make_point", recorded(make_point))
                patch.setattr(generators, "vertex_point", recorded(vertex_point))
                results = {
                    name: run_checks(K, word_vertex_metric(K), suite="all", seed=seed)
                    for name, K in fleet().items()
                }
            return results, points

        drawn, drawn_points = run_all()
        monkeypatch.setattr(generators, "_random_face", numpy_random_face)
        monkeypatch.setattr(generators, "random_point", numpy_random_point)
        monkeypatch.setattr(checks, "random_point", numpy_random_point)
        results, points = run_all()
        assert results == drawn
        assert len(points) > 10_000 and points == drawn_points
