"""Path metric: shortcuts, chain search, bounds, witnesses."""

import itertools
import time

import numpy as np
import pytest

from metricext import (
    Chain,
    EmptyIntersection,
    EndpointNotInCarrier,
    InvalidCarrier,
    build_complex,
    chain_lp,
    chain_solver_distance,
    l1_path_distance,
    lower_bounds,
    apply_automorphism,
    make_point,
    path_length,
    simplex_l1,
    vertex_point,
    word_metric,
)
from metricext.generators import (
    cycle_complex,
    path_complex,
    random_point,
    random_same_simplex_pair,
    rips_complex,
    tree_complex,
)
from metricext.oracle import grid_oracle_path_distance


class TestPathLength:
    def test_trivial_path(self, triangle):
        x = make_point(triangle, {"a": 0.5, "b": 0.5})
        y = vertex_point(triangle, "c")
        got = path_length(triangle, [x, y], [("a", "b", "c")])
        assert got == simplex_l1(x, y)

    def test_two_segments_through_vertex(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        v = vertex_point(path3, "v")
        y = make_point(path3, {"v": 0.5, "w": 0.5})
        got = path_length(path3, [x, v, y], [("u", "v"), ("v", "w")])
        assert got == 1.0

    def test_constant_path(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        assert path_length(path3, [x, x, x], [("u", "v"), ("u", "v")]) == 0.0

    def test_invalid_carrier(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        y = make_point(path3, {"v": 0.5, "w": 0.5})
        with pytest.raises(InvalidCarrier):
            path_length(path3, [x, y], [("u", "v")])
        with pytest.raises(InvalidCarrier):
            path_length(path3, [x, y], [("u", "v", "w")])


class TestChainLP:
    def test_single_simplex(self, triangle):
        x = make_point(triangle, {"a": 0.5, "b": 0.5})
        y = make_point(triangle, {"a": 0.1, "c": 0.9})
        value, bps = chain_lp(triangle, Chain(simplices=(("a", "b", "c"),)), x, y)
        assert value == pytest.approx(simplex_l1(x, y), abs=1e-12)
        assert bps == []

    def test_forced_breakpoint(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        y = make_point(path3, {"v": 0.5, "w": 0.5})
        value, bps = chain_lp(path3, Chain(simplices=(("u", "v"), ("v", "w"))), x, y)
        assert value == 1.0
        assert len(bps) == 1 and bps[0] == vertex_point(path3, "v")

    def test_disjoint_chain_invalid(self):
        K = build_complex(list("uvwz"), [["u", "v"], ["w", "z"], ["v", "w"]])
        with pytest.raises(EmptyIntersection):
            Chain(simplices=(("u", "v"), ("w", "z")))

    def test_endpoint_not_in_carrier(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        y = make_point(path3, {"v": 0.5, "w": 0.5})
        with pytest.raises(EndpointNotInCarrier):
            chain_lp(path3, Chain(simplices=(("v", "w"),)), x, y)

    def test_thick_strip_slide(self, strip):
        # sliding through shared faces beats huddling to vertices
        x = make_point(strip, {"a": 0.5, "b": 0.5})
        y = make_point(strip, {"d": 0.5, "e": 0.5})
        chain = Chain(simplices=(("a", "b", "c"), ("b", "c", "d"), ("c", "d", "e")))
        value, bps = chain_lp(strip, chain, x, y)
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_random_chains_of_the_fleet(self, complex_fleet):
        # a chain's optimum is attained by its witness, never beats the
        # path distance, and inside one simplex is the l1 distance itself
        rng = np.random.default_rng(8)
        for name, K in complex_fleet.items():
            for _ in range(12):
                chain = [K.maximal_simplices[rng.integers(len(K.maximal_simplices))]]
                for _ in range(int(rng.integers(0, 5))):
                    nxt = [m for m in K.maximal_simplices if m != chain[-1] and set(m) & set(chain[-1])]
                    if not nxt:
                        break
                    chain.append(nxt[rng.integers(len(nxt))])
                x = random_point(K, rng, face=chain[0])
                y = random_point(K, rng, face=chain[-1])
                value, bps = chain_lp(K, Chain(simplices=tuple(chain)), x, y)
                assert value == pytest.approx(path_length(K, [x, *bps, y], chain), abs=1e-9), name
                assert value >= l1_path_distance(K, x, y).value - 1e-9, name
                if len(chain) == 1:
                    assert value == pytest.approx(simplex_l1(x, y), abs=1e-12), name


class TestL1PathDistance:
    def test_vertex_pair_equals_word(self, path3):
        a, c = vertex_point(path3, "u"), vertex_point(path3, "w")
        value, witness = l1_path_distance(path3, a, c)
        assert value == 2.0
        assert [p.support for p in witness.points] == [("u",), ("v",), ("w",)]

    def test_cut_vertex_midpoints(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        y = make_point(path3, {"v": 0.5, "w": 0.5})
        value, witness = l1_path_distance(path3, x, y)
        assert value == pytest.approx(1.0, abs=1e-12)
        witness.validate(path3)

    def test_disjoint_supports_at_least_one(self, book, rng):
        for _ in range(40):
            x = random_point(book, rng)
            y = random_point(book, rng)
            if set(x.support) & set(y.support):
                continue
            assert l1_path_distance(book, x, y).value >= 1.0 - 1e-9

    def test_same_point(self, triangle):
        x = make_point(triangle, {"a": 0.2, "b": 0.8})
        value, witness = l1_path_distance(triangle, x, x)
        assert value == 0.0 and witness.length == 0.0

    def test_common_simplex_restriction(self, strip, rng):
        for _ in range(60):
            x, y = random_same_simplex_pair(strip, rng)
            value = l1_path_distance(strip, x, y).value
            assert value == pytest.approx(simplex_l1(x, y), abs=1e-9)
            assert value <= 1.0 + 1e-9

    def test_metric_axioms_sampled(self, book, rng):
        pts = [random_point(book, rng) for _ in range(12)]
        d = {}
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                if i <= j:
                    d[i, j] = l1_path_distance(book, x, y).value
                    d[j, i] = l1_path_distance(book, y, x).value
        for i, j in itertools.combinations(range(len(pts)), 2):
            assert d[i, j] == pytest.approx(d[j, i], abs=1e-9)
        for i, j, k in itertools.combinations(range(len(pts)), 3):
            assert d[i, k] <= d[i, j] + d[j, k] + 1e-9

    def test_cycle_no_shortcut_through_middle(self):
        # opposite edge midpoints on a 4-cycle must travel distance 2
        K = cycle_complex(4)
        a, b, c, d = K.vertices
        x = make_point(K, {a: 0.5, b: 0.5})
        y = make_point(K, {c: 0.5, d: 0.5})
        assert l1_path_distance(K, x, y).value == pytest.approx(2.0, abs=1e-12)

    def test_witness_matches_value(self, strip, rng):
        for _ in range(30):
            x = random_point(strip, rng)
            y = random_point(strip, rng)
            value, witness = l1_path_distance(strip, x, y)
            witness.validate(strip)
            assert abs(witness.length - value) <= 1e-9

    def test_respects_all_lower_bounds(self, book, rng):
        for _ in range(40):
            x = random_point(book, rng)
            y = random_point(book, rng)
            value = l1_path_distance(book, x, y).value
            for name, bound in lower_bounds(book, x, y):
                assert value >= bound - 1e-9, name


class TestChainSolverAgainstClosedForms:
    def test_vertex_pairs_match_word_metric(self, book):
        table = word_metric(book)
        for u, v in itertools.combinations(book.vertices, 2):
            got = chain_solver_distance(book, vertex_point(book, u), vertex_point(book, v))
            assert got.value == pytest.approx(table.distance(u, v), abs=1e-9)

    def test_vertex_pairs_on_cycle(self):
        K = cycle_complex(7)
        table = word_metric(K)
        for u, v in itertools.combinations(K.vertices, 2):
            got = chain_solver_distance(K, vertex_point(K, u), vertex_point(K, v))
            assert got.value == pytest.approx(table.distance(u, v), abs=1e-9)

    def test_common_simplex_pairs(self, strip, rng):
        for _ in range(25):
            x, y = random_same_simplex_pair(strip, rng)
            got = chain_solver_distance(strip, x, y).value
            assert got == pytest.approx(simplex_l1(x, y), abs=1e-9)


class TestOracleAgreement:
    def test_grid_sandwich_on_strip(self, strip, rng):
        from metricext.generators import grid_point

        for _ in range(25):
            x = grid_point(strip, rng, 16)
            y = grid_point(strip, rng, 16)
            exact = l1_path_distance(strip, x, y).value
            grid = grid_oracle_path_distance(strip, x, y, 1 / 16)
            assert exact <= grid + 1e-9
            assert grid - exact <= strip.dimension * (1 / 16) * (1 + exact)


# grid pairs of rips_complex(path_complex(40), 3) with long optimal chains,
# and their exact distances
HARD_RIPS_PAIRS = [
    ({"p05": 1.0}, {"p24": 0.5, "p25": 0.5}, 7.0),
    ({"p18": 0.25, "p20": 0.75}, {"p01": 0.25, "p02": 0.375, "p03": 0.375}, 6.0),
    ({"p36": 0.25, "p37": 0.75}, {"p11": 0.375, "p12": 0.125, "p13": 0.125, "p14": 0.375}, 8.375),
    ({"p34": 0.25, "p36": 0.375, "p37": 0.375}, {"p17": 0.25, "p18": 0.5, "p19": 0.25}, 6.125),
    ({"p14": 0.125, "p15": 0.25, "p16": 0.375, "p17": 0.25}, {"p31": 0.375, "p33": 0.625}, 5.75),
]


@pytest.fixture(scope="module")
def rips_path40():
    return rips_complex(path_complex(40), 3)


class TestOptionsAndBudget:
    """Hard pairs finish in bounded time; answers repeat exactly."""

    @pytest.mark.parametrize("xw, yw, want", HARD_RIPS_PAIRS)
    def test_hard_rips_pairs_finish_exactly(self, rips_path40, xw, yw, want):
        K = rips_path40
        x, y = make_point(K, xw), make_point(K, yw)
        start = time.perf_counter()
        value, witness = l1_path_distance(K, x, y)
        assert time.perf_counter() - start < 1.0
        assert value == pytest.approx(want, abs=1e-9)
        witness.validate(K)
        assert grid_oracle_path_distance(K, x, y, 1 / 8) == pytest.approx(value, abs=1e-9)

    def test_deterministic_witness(self, book, rng):
        pairs = [(random_point(book, rng), random_point(book, rng)) for _ in range(10)]
        for x, y in pairs:
            r1 = l1_path_distance(book, x, y)
            r2 = l1_path_distance(book, x, y)
            assert r1.value == r2.value
            assert r1.witness == r2.witness


class TestAutomorphismInvariance:
    def test_tree_reflection_invariance(self):
        from metricext.generators import tree_reflection

        K = tree_complex(2, 3)
        g = tree_reflection(K, 2)
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = random_point(K, rng)
            y = random_point(K, rng)
            gx, gy = apply_automorphism(K, g, x), apply_automorphism(K, g, y)
            assert l1_path_distance(K, gx, gy).value == pytest.approx(
                l1_path_distance(K, x, y).value, abs=1e-12
            )
