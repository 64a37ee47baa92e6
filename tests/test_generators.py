"""Generators, samplers, file round-trips."""

import hashlib
import json
import re
import tracemalloc
import zlib
from itertools import chain, combinations

import numpy as np
import pytest
from numpy.random import MT19937, SFC64, Generator, Philox

from metricext import (
    GeneratorSpec,
    InvalidParameters,
    SupportNotASimplex,
    WeightsNotNormalizable,
    build_complex,
    generate,
    hyperbolicity_delta,
    make_point,
    vertex_point,
    word_metric,
    word_vertex_metric,
)
from metricext import checks, generators
from metricext.checks import run_checks
from metricext.fileio import complex_from_dict, complex_to_dict
from metricext.generators import (
    MIN_WEIGHT,
    _below,
    _cliques,
    _face,
    _integer,
    _pick,
    _uniforms,
    cycle_complex,
    grid_point,
    nested_quadruples,
    path_complex,
    random_complex,
    random_disjoint_pair,
    random_point,
    random_quadruples,
    random_same_simplex_pair,
    random_vertex,
    rips_complex,
    simplex_complex,
    tree_complex,
)

from conftest import (
    all_faces,
    assert_same_complex,
    edges,
    fleet,
    reference_random_complex,
    reference_random_edges,
    reference_rips_complex,
    sample_geodesic_triples,
)


class TestGenerators:
    def test_labels_equal_the_format_spec(self):
        # every width from 2 to 7, each at the count that first needs it, up to 10**6 labels
        for count in [1, 2, 11, 100, 101, 1001, 10**4 + 1, 10**5 + 1, 10**6 + 1]:
            width = max(2, len(str(count - 1)))
            assert generators._labels("t", count) == tuple([f"t{i:0{width}d}" for i in range(count)])

    def test_binary_tree_2_3(self):
        K = tree_complex(2, 3)
        assert len(K.vertices) == 15
        assert len(edges(K)) == 14
        assert hyperbolicity_delta(word_vertex_metric(K).matrix) == 0.0

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
            got = [[vs[i] for i in c] for c in _cliques(n, edges, max_size)]
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
            assert edges(K) == sorted((vs[i], vs[j]) for i, j in reference_random_edges(n, density, seed))

    def test_random_edges_drawn_in_blocks_are_the_scalar_draws(self):
        # 79,800 pairs: the uniforms are drawn in two blocks, one stream
        n, density, seed = 400, 0.01, 3
        K = random_complex(n, density, seed)
        vs = K.vertices
        assert edges(K) == sorted((vs[i], vs[j]) for i, j in reference_random_edges(n, density, seed))

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
            assert t.distance(K.index[c], K.index[a]) >= 5


# --------------------------------------------------------------------------
# The samplers draw numpy's stream through the bit generator; these are the
# numpy calls they replace, kept as the reference.

def face_of(rng, sigma):
    """A random face of sigma, drawn as the samplers draw one."""
    with rng.bit_generator.lock:
        return _face(rng, rng.bit_generator.ctypes, sigma)


def numpy_random_face(rng, sigma):
    size = int(rng.integers(1, len(sigma) + 1))
    return tuple(sigma[i] for i in sorted(rng.choice(len(sigma), size=size, replace=False)))


numpy_make_point = make_point  # the numpy references' point builder, which the verdict test records


def numpy_random_point(K, rng, face=None):
    if face is None:
        face = numpy_random_face(rng, K.maximal_simplices[rng.integers(len(K.maximal_simplices))])
    raw = 0.05 + rng.random(len(face))
    return numpy_make_point(K, {v: float(w) for v, w in zip(face, raw)})


def numpy_grid_point(K, rng, n):
    face = numpy_random_face(rng, K.maximal_simplices[rng.integers(len(K.maximal_simplices))])
    k = len(face)
    if n < k:
        raise InvalidParameters(f"resolution 1/{n} too coarse for a face of size {k}")
    extra = rng.multinomial(n - k, [1.0 / k] * k)
    return numpy_make_point(K, {v: (1 + int(e)) / n for v, e in zip(face, extra)})


def label_random_point(K, rng, face=None):
    """random_point as it drew a face from K.maximal_simplices' labels and built it with make_point."""
    bits = rng.bit_generator
    with bits.lock:
        c = bits.ctypes
        if face is None:
            simplices = K.maximal_simplices
            face = _face(rng, c, simplices[_below(rng, c, len(simplices))])
        weights = _uniforms(c, len(face))
    return make_point(K, {v: MIN_WEIGHT + w for v, w in zip(face, weights)})


def label_same_simplex_pair(K, rng):
    sigma = _pick(rng, K.maximal_simplices)
    first = label_random_point(K, rng, face=sigma)
    second = label_random_point(K, rng, face=face_of(rng, sigma))
    return first, second


def label_grid_point(K, rng, n):
    """grid_point as it drew a face from K.maximal_simplices' labels and built it with make_point."""
    face = face_of(rng, _pick(rng, K.maximal_simplices))
    k = len(face)
    if n < k:
        raise InvalidParameters(f"resolution 1/{n} too coarse for a face of size {k}")
    extra = rng.multinomial(n - k, [1.0 / k] * k)
    return make_point(K, {v: (1 + int(e)) / n for v, e in zip(face, extra)})


def label_random_quadruples(K, rng, count):
    """random_quadruples as it drew its coin with numpy's integers(2)."""
    out = []
    for _ in range(count):
        vertices = rng.integers(2)
        out.append(tuple(
            random_vertex(K, rng) if vertices else label_random_point(K, rng) for _ in range(4)
        ))
    return out


def label_nested_quadruples(K, rng, count):
    """nested_quadruples as it picked its far vertex from a tuple of labels."""
    table = word_metric(K)
    gap = generators.MIN_GAP
    verts = list(K.vertices)
    out = []
    tries = 0
    while len(out) < count and tries < count * 50:
        tries += 1
        u = _pick(rng, verts)
        i = K.index[u]
        far = table.row(i).max()
        if far < gap + 2:
            continue
        b = _pick(rng, tuple(v for v, d in zip(K.vertices, table.row(i)) if d == far))
        path = generators._random_geodesic(K, rng, i, K.index[b])
        length = len(path) - 1
        lo = 1 + _integer(rng, max(1, length - gap - 2))
        hi = lo + gap + _integer(rng, max(1, length - lo - gap))
        hi = min(hi, length - 1)
        if hi - lo < gap:
            continue
        c, a = path[lo], path[hi]
        out.append((u, a, b, c))
    return out


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
                assert list(face_of(ours, tuple(range(k)))) == want, k
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
                assert face_of(ours, sigma) == numpy_random_face(theirs, sigma)
                assert random_point(K, ours, face=sigma) == numpy_random_point(K, theirs, face=sigma)

    def test_points_from_id_rows_are_the_label_built_points(self, monkeypatch):
        # the label-built samplers are the reference; ids are compared too, as equality skips them
        complexes = {**fleet(), "simplex30": simplex_complex(30), "tree_2_6": tree_complex(2, 6)}
        for name, K in complexes.items():
            n = 4 * (K.dimension + 1)  # a grid fine enough for every face
            for seed in range(40):
                monkeypatch.setattr(generators, "MIN_GAP", 2 + seed % 5)  # nested quadruples on most complexes
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(3):
                    got, want = [random_point(K, ours)], [label_random_point(K, theirs)]
                    got += random_same_simplex_pair(K, ours)
                    want += label_same_simplex_pair(K, theirs)
                    face = want[0].support[::-1]  # a given face, in descending label order
                    got.append(random_point(K, ours, face=face))
                    want.append(label_random_point(K, theirs, face=face))
                    got.append(grid_point(K, ours, n))
                    want.append(label_grid_point(K, theirs, n))
                    got += chain.from_iterable(random_quadruples(K, ours, 2))
                    want += chain.from_iterable(label_random_quadruples(K, theirs, 2))
                    assert [(p.items, p.ids) for p in got] == [(p.items, p.ids) for p in want], (name, seed)
                    assert nested_quadruples(K, ours, 2) == label_nested_quadruples(K, theirs, 2), (name, seed)
                assert ours.random() == theirs.random()

    @pytest.mark.parametrize(
        "face, error",
        [
            ((), WeightsNotNormalizable),
            (("g00", "nope"), SupportNotASimplex),
            (("nope", "g00", "g01"), SupportNotASimplex),
            (("g00", "g13"), SupportNotASimplex),
            (("g00", "g01", "g00"), None),
            (("g10", "g05", "g00"), None),
        ],
        ids=["empty", "unknown-last", "unknown-first", "non-face", "repeated", "unsorted"],
    )
    def test_a_given_face_raises_and_draws_as_make_point(self, face, error):
        # random_complex(14, 0.25, seed=3): g00-g01 is an edge, g00-g05-g10 a triangle, g00-g13 no face
        K = random_complex(14, 0.25, seed=3)
        assert K.spans(("g00", "g01")) and K.spans(("g00", "g05", "g10")) and not K.spans(("g00", "g13"))
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        if error is None:
            got, want = random_point(K, ours, face=face), label_random_point(K, theirs, face=face)
            assert (got.items, got.ids) == (want.items, want.ids)
        else:
            with pytest.raises(error) as want:
                label_random_point(K, theirs, face=face)
            with pytest.raises(error, match=f"^{re.escape(str(want.value))}$"):
                random_point(K, ours, face=face)
        assert ours.random() == theirs.random()

    def test_sampling_builds_no_label_view(self, monkeypatch):
        monkeypatch.setattr(generators, "MIN_GAP", 2)
        for name, K in fleet().items():
            rng = np.random.default_rng(3)
            for _ in range(20):
                random_point(K, rng)
                random_same_simplex_pair(K, rng)
                grid_point(K, rng, 16)
            random_quadruples(K, rng, 5)
            nested_quadruples(K, rng, 5)
            assert "maximal_simplices" not in vars(K) and "adjacency" not in vars(K), name

    def test_disjoint_fallback_is_the_list_based_draw(self, complex_fleet, monkeypatch):
        monkeypatch.setattr(generators, "DISJOINT_TRIES", 0)
        for name, K in complex_fleet.items():
            for seed in range(30):
                got = random_disjoint_pair(K, np.random.default_rng(seed))
                assert got == list_disjoint_fallback(K, np.random.default_rng(seed)), (name, seed)
                assert got[0] != got[1]

    @pytest.mark.parametrize("K", [simplex_complex(0), build_complex(["a"], [["a"]])], ids=["s00", "a"])
    def test_a_disjoint_pair_on_one_vertex_is_rejected_before_any_draw(self, K):
        # it made 400 random_point draws and then raised numpy's ValueError ("high <= 0")
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameters, match="needs at least two vertices"):
            random_disjoint_pair(K, rng)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_the_simplex_l1_checks_draw_the_numpy_drawn_points(self, seed, monkeypatch):
        # the two simplex-l1 checks draw a maximal simplex's id row and build their points on it,
        # or on its first len - 1 ids: the points they drew from its labels with numpy's integers
        for name, K in fleet().items():
            built = []
            point_on = checks._point_on
            monkeypatch.setattr(checks, "_point_on", lambda *args: built.append(point_on(*args)) or built[-1])
            run_checks(K, word_vertex_metric(K), suite="complex", seed=seed)
            monkeypatch.undo()
            want = []
            rng = np.random.default_rng([seed, zlib.crc32(b"simplex-l1")])
            for _ in range(checks.DEFAULT_TRIPLES):
                sigma = K.maximal_simplices[rng.integers(len(K.maximal_simplices))]
                want += [numpy_random_point(K, rng, face=sigma) for _ in range(3)]
            rng = np.random.default_rng([seed, zlib.crc32(b"l1-restriction")])
            for _ in range(checks.DEFAULT_PAIRS):
                sigma = K.maximal_simplices[rng.integers(len(K.maximal_simplices))]
                face = sigma[: max(1, len(sigma) - 1)]
                want += [numpy_random_point(K, rng, face=face) for _ in range(2)]
            assert [(p.items, p.ids) for p in built] == [(p.items, p.ids) for p in want], name

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
                patch.setitem(globals(), "numpy_make_point", recorded(make_point))
                # the vertex points too: random_vertex and the disjoint pair's fallback build them from ids
                patch.setattr(generators, "_point_on", recorded(generators._point_on))
                results = {
                    name: run_checks(K, word_vertex_metric(K), suite="all", seed=seed)
                    for name, K in fleet().items()
                }
            return results, points

        drawn, drawn_points = run_all()
        monkeypatch.setattr(generators, "random_point", numpy_random_point)
        monkeypatch.setattr(checks, "random_point", numpy_random_point)
        monkeypatch.setattr(checks, "grid_point", numpy_grid_point)
        results, points = run_all()
        assert results == drawn
        assert len(points) > 10_000 and points == drawn_points
