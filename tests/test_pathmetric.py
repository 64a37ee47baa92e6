"""Path metric: shortcuts, chain search, bounds, witnesses."""

import heapq
import itertools
import math
import time
from fractions import Fraction
from heapq import heappop as _heappop, heappush as _heappush
from operator import add, le
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricext import (
    BarycentricPoint,
    Chain,
    ExtendedMetric,
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
    word_vertex_metric,
)
from metricext import pathmetric
from metricext.complexes import Simplex, SimplicialComplex, WordMetricTable
from metricext.generators import (
    cycle_complex,
    grid_point,
    path_complex,
    random_point,
    random_same_simplex_pair,
    random_vertex,
    rips_complex,
    tree_complex,
)
from metricext.oracle import grid_oracle_path_distance

from conftest import pool_queries, simplex_on_a_path, tree_reflection


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

    @pytest.mark.parametrize("carrier", [(), ("a", "a"), ("a", "a", "b"), ("b", "a", "b"), ("a", "z")])
    def test_carrier_that_is_no_simplex(self, triangle, carrier):
        # empty, a repeated vertex or an unknown label, though it holds both supports
        x, y = make_point(triangle, {"a": 1.0}), make_point(triangle, {"a": 0.5, "b": 0.5})
        ends = [x, x] if len(set(carrier)) < 2 else [x, y]
        with pytest.raises(InvalidCarrier, match="is not a simplex"):
            path_length(triangle, ends, [carrier])


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

    def test_query_bounds_are_both_directions_entry_for_entry(self, complex_fleet, rng):
        for K in complex_fleet.values():
            for _ in range(30):
                x, y = random_point(K, rng), random_point(K, rng)
                got = pathmetric.query_bounds(K, x, y)
                assert got == lower_bounds(K, x, y) + lower_bounds(K, y, x)
                assert [type(b) for _, b in got] == [float] * 6

    def test_sphere_bound_is_the_table_lookup_bit_for_bit(self, complex_fleet, rng):
        # supp(x) spans a simplex, so reading its radii from the word table
        # gives what the bound now puts there: 0 at the centre, 1 elsewhere
        def by_table(table, x, y):
            center = max(x.items, key=lambda item: item[1])[0]
            wx, wy = {}, {}
            for v, w in x.items:
                k = int(table.distance(center, v))
                wx[k] = wx.get(k, 0.0) + w
            for v, w in y.items:
                k = int(table.distance(center, v))
                wy[k] = wy.get(k, 0.0) + w
            top_x, top_y = max(wx), max(wy)
            total = 0.0
            for k in range(0, max(top_x, top_y) + 1):
                a, b = wx.get(k, 0.0), wy.get(k, 0.0)
                total += abs(a - 1.0) + abs(1.0 - b) if top_x < k < top_y else abs(a - b)
            return 0.5 * total

        pairs = [(K, x, y) for _, K, x, y in pool_queries(("path-fleet", "hard-rips"))]
        for K in complex_fleet.values():
            pairs += [(K, random_point(K, rng), random_point(K, rng)) for _ in range(40)]
            pairs += [(K, vertex_point(K, K.vertices[0]), random_point(K, rng))]
        for K, x, y in pairs:
            table = word_metric(K)
            for a, b in ((x, y), (y, x)):
                assert pathmetric._sphere_bound(table, a, b) == by_table(table, a, b)

    def test_respects_all_lower_bounds(self, book, rng):
        for _ in range(40):
            x = random_point(book, rng)
            y = random_point(book, rng)
            value = l1_path_distance(book, x, y).value
            for name, bound in lower_bounds(book, x, y):
                assert value >= bound - 1e-9, name


def _assert_route_lengths(K, x, y):
    """`_route_length` is the route witness's length (==) for every (u, v) in supp(x) x supp(y)."""
    table = word_metric(K)
    for u in x.support:
        for v in y.support:
            want = pathmetric._route_witness(K, x, y, u, v).length
            assert pathmetric._route_length(x, y, u, v, int(table.distance(u, v))) == want, (x, y, u, v)


class TestRouteLength:
    """The route's length adds the witness's segment lengths, bit for bit, without the witness."""

    def test_pool_pairs(self):
        for _, K, x, y in pool_queries():
            _assert_route_lengths(K, x, y)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_grid_and_vertex_points(self, complex_fleet, data):
        K = complex_fleet[data.draw(st.sampled_from(sorted(complex_fleet)))]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["random", "grid", "vertex", "same simplex"]))
        if kind == "same simplex":  # supports that share vertices: routes with u == v
            x, y = random_same_simplex_pair(K, rng)
        else:
            def point():
                if kind == "grid":
                    return grid_point(K, rng, 128)
                if kind == "vertex" and data.draw(st.booleans()):
                    return random_vertex(K, rng)
                return random_point(K, rng)

            x, y = point(), point()
        _assert_route_lengths(K, x, y)

    @pytest.mark.parametrize("atoms", [60, 61, 64])
    def test_large_supports(self, atoms):
        K = simplex_on_a_path(64, 10)
        rng = np.random.default_rng(atoms)
        simplex = K.maximal_simplices[-1]
        assert len(simplex) == 64
        x = make_point(K, {v: w for v, w in zip(simplex[:atoms], rng.random(atoms) + 0.05)})
        for y in (vertex_point(K, "p10"), vertex_point(K, "s63"), grid_point(K, rng, 128, face=simplex[-8:])):
            _assert_route_lengths(K, x, y)
            _assert_route_lengths(K, y, x)

    def test_a_vertex_route_with_no_segment(self, path3):
        # x is e_u, y is e_v and u == v: no segment, and the length is 0.0
        x = vertex_point(path3, "v")
        assert pathmetric._route_length(x, x, "v", "v", 0) == 0.0
        _assert_route_lengths(path3, x, x)


def _assert_vertex_pairs_take_the_route(K):
    table = word_metric(K)
    for u, v in itertools.combinations(K.vertices, 2):
        x, y = vertex_point(K, u), vertex_point(K, v)
        assert max(b for _, b in pathmetric.query_bounds(K, x, y)) == table.distance(u, v)
        got = chain_solver_distance(K, x, y)
        assert got.value == pytest.approx(table.distance(u, v), abs=1e-9)


class TestChainSolverAgainstClosedForms:
    # On a vertex pair the best bound is the word distance, the route's own cost, so the
    # search is never entered: these pin the route, not the search.
    def test_vertex_pairs_match_word_metric(self, book):
        _assert_vertex_pairs_take_the_route(book)

    def test_vertex_pairs_on_cycle(self):
        _assert_vertex_pairs_take_the_route(cycle_complex(7))

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


# --------------------------------------------------------------------------
# the integer search core


def _bellman_ford_transport(supply, demand, cost):
    """Reference transport: Bellman-Ford rounds over Fractions, augmenting to the first unfilled column."""
    m, n = len(supply), len(demand)
    left, need = list(supply), list(demand)
    flow = [[Fraction(0)] * n for _ in range(m)]
    while any(need):
        dist = [0 if left[i] else None for i in range(m)] + [None] * n
        prev = [None] * (m + n)
        changed = True
        while changed:
            changed = False
            for i in range(m):
                if dist[i] is None:
                    continue
                for j in range(n):
                    d = dist[i] + cost[i][j]
                    if dist[m + j] is None or d < dist[m + j]:
                        dist[m + j], prev[m + j], changed = d, i, True
            for j in range(n):
                if dist[m + j] is None:
                    continue
                for i in range(m):
                    d = dist[m + j] - cost[i][j]
                    if flow[i][j] and (dist[i] is None or d < dist[i]):
                        dist[i], prev[i], changed = d, m + j, True
        j = next(j for j in range(n) if need[j])
        arcs = []
        node = m + j
        while True:
            i = prev[node]
            arcs.append((i, node - m, True))
            if prev[i] is None:
                break
            node = prev[i]
            arcs.append((i, node - m, False))
        amount = min([left[i], need[j]] + [flow[a][b] for a, b, fwd in arcs if not fwd])
        for a, b, fwd in arcs:
            flow[a][b] += amount if fwd else -amount
        left[i] -= amount
        need[j] -= amount
    total = sum((flow[i][j] * cost[i][j] for i in range(m) for j in range(n)), Fraction(0))
    return total, flow


# the solver `_transport` replaced, kept verbatim: Dijkstra on reduced costs
# plus a breadth-first search for the canonical augmenting path
def _dijkstra_transport(
    supply: Sequence[int], demand: Sequence[int], cost: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]]:
    """Exact min-cost transport in integers by successive shortest paths; (cost, flows).

    Rows are sources, columns sinks, every row-column arc is uncapacitated;
    supplies are positive and total the demands.  Each round finds the
    distances from the rows with supply left over the residual graph
    (forward arcs at +cost, used arcs back at -cost) by Dijkstra on costs
    reduced by the last round's distances, which keeps every reduced cost
    nonnegative (Edmonds & Karp 1972; Tomizawa 1971).  It then sends as much
    as a shortest path to the first unfilled column allows.  Augmenting along
    shortest paths keeps the residual graph free of negative cycles, so the
    flow is optimal once every column is filled.  The path is canonical:
    among shortest paths, one with fewest arcs, each node taking its
    lowest-index predecessor one arc nearer the sources, so the flows do not
    depend on how the distances were found.
    """
    m, n = len(supply), len(demand)
    rows, cols = range(m), range(n)
    left, need = list(supply), list(demand)
    flow = [[0] * n for _ in rows]
    pot_r, pot_c = [0] * m, [0] * n  # the last round's distances
    while any(need):
        # Dijkstra from the rows with supply left, settling the least reduced distance first
        dr: list = [0 if left[i] else None for i in rows]
        dc: list = [None] * n
        open_r, open_c = list(rows), list(cols)
        while True:
            best = None
            for i in open_r:
                if dr[i] is not None and (best is None or dr[i] - pot_r[i] < best):
                    best, at, on_row = dr[i] - pot_r[i], i, True
            for c in open_c:
                if dc[c] is not None and (best is None or dc[c] - pot_c[c] < best):
                    best, at, on_row = dc[c] - pot_c[c], c, False
            if best is None:
                break
            if on_row:
                open_r.remove(at)
                base, line = dr[at], cost[at]
                for c in open_c:
                    if dc[c] is None or base + line[c] < dc[c]:
                        dc[c] = base + line[c]
            else:
                open_c.remove(at)
                base = dc[at]
                for i in open_r:
                    if flow[i][at] and (dr[i] is None or base - cost[i][at] < dr[i]):
                        dr[i] = base - cost[i][at]
        pot_r, pot_c = dr, dc
        # canonical shortest path to column j: breadth-first over tight arcs from the sources at 0
        j = next(c for c in cols if need[c])
        via_r: list = [None] * m  # the column before each row
        via_c: list = [None] * n  # the row before each column
        seen_r = [bool(left[i]) and dr[i] == 0 for i in rows]
        seen_c = [False] * n
        level, on_rows = [i for i in rows if seen_r[i]], True
        while not seen_c[j]:
            grown = []
            if on_rows:
                for c in cols:
                    if not seen_c[c]:
                        for i in level:
                            if dr[i] + cost[i][c] == dc[c]:
                                via_c[c], seen_c[c] = i, True
                                grown.append(c)
                                break
            else:
                for i in rows:
                    if not seen_r[i]:
                        for c in level:
                            if flow[i][c] and dc[c] - cost[i][c] == dr[i]:
                                via_r[i], seen_r[i] = c, True
                                grown.append(i)
                                break
            level, on_rows = grown, not on_rows
        forward, backward = [], []  # arcs (row, column) along the path
        c = j
        while True:
            i = via_c[c]
            forward.append((i, c))
            c = via_r[i]
            if c is None:
                break
            backward.append((i, c))
        amount = min([left[i], need[j]] + [flow[a][b] for a, b in backward])
        for a, b in forward:
            flow[a][b] += amount
        for a, b in backward:
            flow[a][b] -= amount
        left[i] -= amount
        need[j] -= amount
    total = sum(f * c for line, fl in zip(cost, flow) for f, c in zip(fl, line))
    return total, flow


def _weights_point(weights):
    return BarycentricPoint(items=tuple((f"v{i}", w) for i, w in enumerate(weights)))


# the search `_best_first` replaced, kept verbatim but for its names and the
# overlaps table, now built here: each state stores per atom of supp(x) an
# int tuple aligned with the simplex, and moves through shared positions
def _overlaps(K):
    """Per maximal simplex s, one (t, positions, shared) per other maximal simplex t meeting it.

    The t ascend.  positions[q] is the position in s of the q-th vertex
    of t, or -1 if s lacks it; shared lists the positions in s of the
    vertices the two share.
    """
    M = K.maximal_simplices
    out = []
    for s, sigma in enumerate(M):
        at = {w: p for p, w in enumerate(sigma)}
        row = []
        for t in sorted({t for w in sigma for t in K.incidence[w]} - {s}):
            positions = tuple(at.get(w, -1) for w in M[t])
            row.append((t, positions, tuple(p for p in positions if p >= 0)))
        out.append(tuple(row))
    return tuple(out)


def _tuple_best_first(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
    table,
    incumbent: float,
    ceiling: tuple[float, float] | None = None,
) -> tuple[tuple[Simplex, ...], int, int] | None:
    """Best chain shorter than the incumbent by more than TIE_TOL: (chain, total, scale), or None.

    A state is a maximal simplex sigma reached by a chain from supp(x) plus,
    for each u in supp(x), the fewest switches val_u(w) that bring the mass
    of u to each w in sigma, as a tuple aligned with sigma.  States are
    popped in the order of an integer transport (`_masses`, `_transport_total`)
    whose cost from u to v is min_w val_u(w) + word(w, v): a bound no
    extension of the chain can beat, equal to the chain optimum times the
    scale once sigma holds supp(y).  So the first such state popped is
    optimal.  A state is pruned when its total reaches
    ceil((incumbent - TIE_TOL) * scale), which is exactly when its value is
    no shorter than incumbent - TIE_TOL; when `_transport_floor` already
    reaches that cutoff, the state is pruned without solving its transport.
    A state is dropped when another state at the same sigma is nowhere
    worse; a chain that returns to a simplex is always dropped this way, so
    the search is finite.

    A ceiling (bilinear, factor) lowers the cutoff R to E = the least total
    T with factor * (T / scale) >= bilinear, when E < R (`_reaching_total`).
    The answer is then the same as without it, or None where a chain of
    total in [E, R) was pruned, as follows.

    - Rounding is monotone, so a state whose bound reaches E cannot
      complete to a chain whose value, times factor, falls below bilinear:
      such a chain could not win the caller's min.
    - A dominated state has a bound no lower than its dominator's, so a
      state whose bound reaches E, kept or pruned, never drops or replaces
      a state below E.  The states below
      E are pushed and popped in the same order as without the ceiling;
      every state popped before the goal has a bound below E, so a goal
      found is the same chain, with the same total, breakpoints and witness.
    - If nothing is found, a chain of total T in [E, R) may have been
      pruned.  T < R puts T / scale below incumbent - TIE_TOL exactly.
      Rounding T / scale, and the gap between the incumbent and the route's
      witness length (the same sum, added up another way), are both far
      below TIE_TOL, so the rounded T / scale is below that length and
      factor * length reaches bilinear too.  The caller therefore tests the
      route: when factor * length falls below bilinear, no such chain
      exists and the route is the exact answer.
    """
    M = K.maximal_simplices
    overlaps = _overlaps(K)
    ys = y.support
    ends = set(K.maximal_indices_containing(ys))
    supply, demand, scale = pathmetric._masses(x, y)
    p, q = (incumbent - pathmetric.TIE_TOL).as_integer_ratio()
    cutoff = -(-p * scale // q)
    if ceiling is not None:
        cutoff = pathmetric._reaching_total(*ceiling, scale, cutoff)
    index = table.index
    rows_y = [table.row(v) for v in ys]  # one search per vertex of supp(y) answers every word(w, v)
    to_y: dict[str, tuple[int, ...]] = {}  # w -> word(w, v) for v in supp(y)
    columns: dict[int, tuple[tuple[int, ...], ...]] = {}  # s -> per v, word(w, v) along M[s]
    transports: dict[tuple, int] = {}
    labels: list[tuple[int, tuple, int | None]] = []  # (s, vals, parent)
    alive: list[bool] = []
    front: dict[int, list[int]] = {}  # s -> its undominated live labels
    heap: list[tuple[int, int]] = []

    def bound(s: int, vals: tuple) -> int:
        cols = columns.get(s)
        if cols is None:
            for w in M[s]:
                if w not in to_y:
                    to_y[w] = tuple([row.item(index[w]) for row in rows_y])
            cols = columns[s] = tuple(zip(*(to_y[w] for w in M[s])))
        cost = tuple([tuple([min(map(add, row, col)) for col in cols]) for row in vals])
        total = transports.get(cost)
        if total is None:
            floor = pathmetric._transport_floor(supply, demand, cost)
            if floor >= cutoff:
                return floor  # pruned, as the total it bounds would be
            total = transports[cost] = pathmetric._transport_total(supply, demand, cost)
        return total

    def push(s: int, vals: tuple, parent: int | None) -> None:
        kept = front.setdefault(s, [])
        if any(_tuple_dominates(labels[k][1], vals) for k in kept):
            return
        b = bound(s, vals)
        if b >= cutoff:
            return
        for k in [k for k in kept if _tuple_dominates(vals, labels[k][1])]:
            alive[k] = False
            kept.remove(k)
        kept.append(len(labels))
        labels.append((s, vals, parent))
        alive.append(True)
        heapq.heappush(heap, (b, len(labels) - 1))

    for s in K.maximal_indices_containing(x.support):
        push(s, tuple(tuple(int(w != u) for w in M[s]) for u in x.support), None)

    while heap:
        b, li = heapq.heappop(heap)
        if not alive[li]:
            continue
        s, vals, _ = labels[li]
        if s in ends:
            chain = []
            while li is not None:
                chain.append(M[labels[li][0]])
                li = labels[li][2]
            return tuple(reversed(chain)), b, scale
        for t, positions, shared in overlaps[s]:
            vals_t = []
            for row in vals:
                # mass stays on a shared vertex, or switches once from the cheapest one
                switch = min(map(row.__getitem__, shared)) + 1
                vals_t.append(tuple([row[p] if p >= 0 else switch for p in positions]))
            push(t, tuple(vals_t), li)
    return None


def _tuple_dominates(a: tuple, b: tuple) -> bool:
    """Whether switch-count vectors a are nowhere larger than b."""
    return all(all(map(le, ra, rb)) for ra, rb in zip(a, b))


class _HeapLog:
    """heapq's push and pop, logging every item pushed and popped."""

    def __init__(self):
        self.pushed, self.popped = [], []

    def heappush(self, heap, item):
        self.pushed.append(item)
        _heappush(heap, item)

    def heappop(self, heap):
        self.popped.append(_heappop(heap))
        return self.popped[-1]


class TestIntegerSearchCore:
    weight = st.builds(lambda num, k: num / 2**k, st.integers(1, 1024), st.integers(0, 10))

    @given(
        xw=st.lists(weight, min_size=1, max_size=5),
        yw=st.lists(weight, min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_transport_matches_the_rational_bellman_ford(self, xw, yw, data):
        cost = data.draw(
            st.lists(
                st.lists(st.integers(0, 8), min_size=len(yw), max_size=len(yw)),
                min_size=len(xw),
                max_size=len(xw),
            )
        )
        supply, demand, scale = pathmetric._masses(_weights_point(xw), _weights_point(yw))
        assert all(type(v) is int for v in (*supply, *demand, scale))
        assert sum(supply) == sum(demand)
        total, flow = pathmetric._transport(supply, demand, cost)
        assert [sum(row) for row in flow] == supply
        assert [sum(col) for col in zip(*flow)] == demand
        old_supply = [Fraction(w) for w in xw]
        old_demand = [Fraction(w) * sum(old_supply) / sum(map(Fraction, yw)) for w in yw]
        old_total, old_flow = _bellman_ford_transport(old_supply, old_demand, cost)
        assert Fraction(total, scale) == old_total
        assert [[Fraction(f, scale) for f in row] for row in flow] == old_flow

    @given(
        xw=st.lists(weight, min_size=1, max_size=6),
        yw=st.lists(weight, min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_transport_matches_the_dijkstra_solver(self, xw, yw, data):
        cost = data.draw(
            st.lists(
                st.lists(st.integers(0, 8), min_size=len(yw), max_size=len(yw)),
                min_size=len(xw),
                max_size=len(xw),
            )
        )
        supply, demand, _ = pathmetric._masses(_weights_point(xw), _weights_point(yw))
        assert pathmetric._transport(supply, demand, cost) == _dijkstra_transport(supply, demand, cost)

    @pytest.mark.parametrize("k", [8, 12, 16, 24])
    def test_transport_matches_the_dijkstra_solver_on_large_squares(self, k):
        rng = np.random.default_rng(k)
        for _ in range(4):
            xw, yw = ([int(n) / 2 ** int(e) for n, e in zip(rng.integers(1, 1025, k), rng.integers(0, 11, k))]
                      for _ in range(2))
            supply, demand, _ = pathmetric._masses(_weights_point(xw), _weights_point(yw))
            cost = rng.integers(0, 9, (k, k)).tolist()
            assert pathmetric._transport(supply, demand, cost) == _dijkstra_transport(supply, demand, cost)

    def test_pool_chains_and_witnesses_match_the_dijkstra_solver(self, monkeypatch):
        # every pool answer, witness and chain_lp breakpoint is the one the
        # Dijkstra solver gives, bit for bit
        solved = []
        real_chain_lp = pathmetric.chain_lp

        def record(*args):
            solved.append(real_chain_lp(*args))
            return solved[-1]

        monkeypatch.setattr(pathmetric, "chain_lp", record)
        queries = list(pool_queries())
        runs = []
        for transport in (pathmetric._transport, _dijkstra_transport):
            monkeypatch.setattr(pathmetric, "_transport", transport)
            solved.clear()
            extended, answers = {}, []
            for q, K, x, y in queries:
                if q["kind"] == "path":
                    answers.append(l1_path_distance(K, x, y))
                else:
                    M = extended.setdefault(id(K), ExtendedMetric(K, word_vertex_metric(K)))
                    answers.append(M.distance_with_witness(x, y))
            runs.append((repr(answers), repr(solved)))
        assert runs[0] == runs[1]
        assert solved

    @given(
        xw=st.lists(weight, min_size=1, max_size=5),
        yw=st.lists(weight, min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_transport_floor_never_exceeds_the_total(self, xw, yw, data):
        cost = data.draw(
            st.lists(
                st.lists(st.integers(0, 12), min_size=len(yw), max_size=len(yw)),
                min_size=len(xw),
                max_size=len(xw),
            )
        )
        supply, demand, _ = pathmetric._masses(_weights_point(xw), _weights_point(yw))
        floor = pathmetric._transport_floor(supply, demand, cost)
        assert type(floor) is int
        assert floor <= pathmetric._transport(supply, demand, cost)[0]

    @given(
        xw=st.lists(weight, min_size=1, max_size=4),
        yw=st.lists(weight, min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=600, deadline=None)
    def test_transport_total_is_the_solved_total(self, xw, yw, data):
        # every shape from 1x1 to 4x4; costs from 0..3 tie often, in the
        # costs and in their row (column) differences, and are often zero
        cost = data.draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=len(yw), max_size=len(yw)),
                min_size=len(xw),
                max_size=len(xw),
            )
        )
        supply, demand, _ = pathmetric._masses(_weights_point(xw), _weights_point(yw))
        total = pathmetric._transport_total(supply, demand, cost)
        assert type(total) is int
        assert total == pathmetric._transport(supply, demand, cost)[0]

    def test_closed_form_totals_keep_every_label_and_chain(self, monkeypatch):
        # pricing each state by the solver instead of the closed forms, the
        # pool's path and extension queries push and pop the same labels,
        # find the same chains and give the same answers and witnesses
        pushed, popped, found = [], [], []
        best_first = pathmetric._best_first

        def record_push(heap, item):
            pushed.append(item)
            heapq.heappush(heap, item)

        def record_pop(heap):
            popped.append(heapq.heappop(heap))
            return popped[-1]

        def record_found(*args):
            found.append(best_first(*args))
            return found[-1]

        monkeypatch.setattr(pathmetric, "heapq", SimpleNamespace(heappush=record_push, heappop=record_pop))
        monkeypatch.setattr(pathmetric, "_best_first", record_found)
        queries = list(pool_queries())
        runs = []
        for total in (pathmetric._transport_total, lambda *args: pathmetric._transport(*args)[0]):
            monkeypatch.setattr(pathmetric, "_transport_total", total)
            for log in (pushed, popped, found):
                log.clear()
            extended, answers = {}, []
            for q, K, x, y in queries:
                if q["kind"] == "path":
                    answers.append(l1_path_distance(K, x, y))
                else:
                    M = extended.setdefault(id(K), ExtendedMetric(K, word_vertex_metric(K)))
                    answers.append(M.distance_with_witness(x, y))
            runs.append((answers, list(pushed), list(popped), list(found)))
        assert runs[0] == runs[1]
        assert runs[0][1] and runs[0][2] and any(f is not None for f in runs[0][3])

    def test_floor_pruning_keeps_every_pushed_label(self, monkeypatch):
        # the states the floor skips would all have been pruned: with the
        # floor switched off, the search pushes the same labels (so pops the
        # same ones) and returns the same chain, while pricing more states
        pushed, solved = [], [0]
        transport = pathmetric._transport_total

        def record(heap, item):
            pushed.append(item)
            heapq.heappush(heap, item)

        def count(*args):
            solved[0] += 1
            return transport(*args)

        counted_heap = SimpleNamespace(heappush=record, heappop=heapq.heappop)
        monkeypatch.setattr(pathmetric, "heapq", counted_heap)
        monkeypatch.setattr(pathmetric, "_transport_total", count)
        queries = [(K, x, y) for q, K, x, y in pool_queries() if q["kind"] == "path"]
        runs = []
        for floor in (pathmetric._transport_floor, lambda *args: 0):
            monkeypatch.setattr(pathmetric, "_transport_floor", floor)
            pushed.clear()
            solved[0] = 0
            found = []
            for K, x, y in queries:
                table = word_metric(K)
                incumbent = pathmetric._vertex_route(x, y, table)[0]
                found.append(pathmetric._best_first(K, x, y, table, incumbent))
            runs.append((found, list(pushed), solved[0]))
        (found, labels, with_floor), (found_off, labels_off, without) = runs
        assert found == found_off and labels == labels_off
        assert with_floor < without

    def test_pool_transports_are_integer(self, monkeypatch):
        # every supply, demand and cost the search and chain_lp price is an
        # int, closed forms included, and the answers are the pool's where it has one
        real_total, real_solve = pathmetric._transport_total, pathmetric._transport
        priced = {"path": 0, "ext": 0}  # search states priced, and chains chain_lp solves
        solved = {"path": 0, "ext": 0}  # successive-shortest-path solves
        kind, in_total = [None], [False]

        def check(supply, demand, cost):
            assert all(type(v) is int for v in (*supply, *demand, *itertools.chain(*cost)))

        def total(supply, demand, cost):
            priced[kind[0]] += 1
            check(supply, demand, cost)
            in_total[0] = True
            try:
                value = real_total(supply, demand, cost)
            finally:
                in_total[0] = False
            assert type(value) is int
            return value

        def solve(supply, demand, cost):
            solved[kind[0]] += 1
            priced[kind[0]] += not in_total[0]
            check(supply, demand, cost)
            return real_solve(supply, demand, cost)

        monkeypatch.setattr(pathmetric, "_transport_total", total)
        monkeypatch.setattr(pathmetric, "_transport", solve)
        extended = {}
        for q, K, x, y in pool_queries():
            kind[0] = q["kind"]
            if q["kind"] == "path":
                value = l1_path_distance(K, x, y).value
            else:
                value = extended.setdefault(id(K), ExtendedMetric(K, word_vertex_metric(K))).distance(x, y)
            if q["expected"] is not None:
                assert value == pytest.approx(q["expected"], abs=1e-9), q["id"]
        # exact counts: the path queries price what they always did; the
        # extension's ceiling leaves its queries 41 priced states, where the
        # full path search behind each of them priced 171.  Only states with
        # three atoms or more on both sides, and chain_lp's chains, reach the
        # solver: all 41 ext states have three atoms a side, while 90 of the
        # path queries' 153 have fewer on one side
        assert priced == {"path": 153, "ext": 41}
        assert solved == {"path": 63, "ext": 41}

    @given(
        total=st.integers(0, 2**40),
        scale=st.integers(1, 2**40),
        factor=st.floats(0.5, 10.0),
        offset=st.sampled_from([-1, 0, 1]),
        cutoff=st.integers(0, 2**41),
    )
    @settings(max_examples=400, deadline=None)
    def test_reaching_total_is_the_least_reaching_bilinear(self, total, scale, factor, offset, cutoff):
        # bilinear at, just below or just above factor * (total / scale), in floats
        bilinear = factor * (total / scale)
        if offset:
            bilinear = math.nextafter(bilinear, offset * math.inf)

        def reaches(t):
            return factor * (t / scale) >= bilinear

        least = pathmetric._reaching_total(bilinear, factor, scale, cutoff)
        assert 0 <= least <= cutoff
        assert least == cutoff or reaches(least)
        assert least == 0 or not reaches(least - 1)

    def test_a_ceiling_returns_the_path_or_proves_it_reaches_bilinear(self):
        # with a ceiling (bilinear, factor) the search answers None only when
        # factor * path >= bilinear, and otherwise the exact path and witness;
        # bilinear one float above factor * path must therefore get the path
        answers = {"path": 0, "none": 0}
        for q, K, x, y in pool_queries(("path-fleet",)):
            if x.key() == y.key():
                continue
            exact = chain_solver_distance(K, x, y)
            bounds = pathmetric.query_bounds(K, x, y)
            for factor in (1.0, 1.7, math.pi, 3.3000000000000003):
                tie = factor * exact.value
                for bilinear in (tie, math.nextafter(tie, math.inf)):
                    got = pathmetric._solve_by_search(K, x, y, bounds, (bilinear, factor))
                    if got is None:
                        assert tie >= bilinear, q["id"]
                        answers["none"] += 1
                    else:
                        assert got == exact, q["id"]
                        answers["path"] += 1
        assert answers["path"] and answers["none"]

    @pytest.mark.parametrize("xw, yw, want", HARD_RIPS_PAIRS)
    def test_search_prunes_exactly_at_the_incumbent_less_tie_tol(self, rips_path40, xw, yw, want):
        # the optimum is found iff it lies below incumbent - TIE_TOL, compared as rationals
        K = rips_path40
        x, y = make_point(K, xw), make_point(K, yw)
        table = word_metric(K)
        chain, total, scale = pathmetric._best_first(K, x, y, table, want + 1.0)
        optimum = Fraction(total, scale)

        def below(incumbent):
            return optimum < Fraction(incumbent - pathmetric.TIE_TOL)

        hi = float(optimum) + pathmetric.TIE_TOL
        while not below(hi):
            hi = math.nextafter(hi, math.inf)
        while below(math.nextafter(hi, -math.inf)):
            hi = math.nextafter(hi, -math.inf)
        lo = math.nextafter(hi, -math.inf)
        assert pathmetric._best_first(K, x, y, table, hi) == (chain, total, scale)
        assert pathmetric._best_first(K, x, y, table, lo) is None

    def test_neighbours_list_the_simplices_that_meet_s(self, complex_fleet):
        for K in complex_fleet.values():
            M = K.maximal_simplices
            for s in range(len(M)):
                row = K.neighbours(s)
                assert list(row) == sorted(set(row))
                assert set(row) == {t for t in range(len(M)) if t != s and set(M[t]) & set(M[s])}
                assert K.neighbours(s) is row
        # one search builds the rows of the simplices it expands, not the
        # whole table (the bounds decide a tree's queries, so the search is
        # given an incumbent above the optimum, 5.25 = 84 / 16)
        K = tree_complex(2, 9)
        x = make_point(K, {"t0003": 0.5, "t0007": 0.5})
        y = make_point(K, {"t0005": 0.25, "t0011": 0.75})
        found = pathmetric._best_first(K, x, y, word_metric(K), 5.75)
        assert found[1:] == (84, 16) and len(found[0]) == 6
        assert 0 < len(K._neighbour_rows) < len(K.maximal_simplices)

    def test_state_search_matches_the_tuple_search(self, monkeypatch, complex_fleet, rips_path40):
        # the same chain, total and scale, and the same items pushed and
        # popped, as the search over int tuples: on every search the pool's
        # path and extension queries make (the extension's with its ceiling),
        # the hard rips pairs and seeded random pairs on the fleet
        calls = []
        best_first = pathmetric._best_first

        def record(*args):
            calls.append(args)
            return best_first(*args)

        monkeypatch.setattr(pathmetric, "_best_first", record)
        extended = {}
        for q, K, x, y in pool_queries():
            if q["kind"] == "path":
                l1_path_distance(K, x, y)
            else:
                extended.setdefault(id(K), ExtendedMetric(K, word_vertex_metric(K))).distance(x, y)
        monkeypatch.undo()
        with_ceiling = sum(args[5] is not None for args in calls)
        table = word_metric(rips_path40)
        for xw, yw, want in HARD_RIPS_PAIRS:
            calls.append((rips_path40, make_point(rips_path40, xw), make_point(rips_path40, yw), table, want + 1.0))
        rng = np.random.default_rng(16)
        for K in complex_fleet.values():
            table = word_metric(K)
            for _ in range(20):
                x, y = random_point(K, rng), random_point(K, rng)
                calls.append((K, x, y, table, pathmetric._vertex_route(x, y, table)[0]))
        found = 0
        for args in calls:
            logs = _HeapLog(), _HeapLog()
            monkeypatch.setattr(pathmetric, "heapq", logs[0])
            monkeypatch.setitem(globals(), "heapq", logs[1])
            got, want = pathmetric._best_first(*args), _tuple_best_first(*args)
            monkeypatch.undo()
            assert got == want
            assert logs[0].pushed == logs[1].pushed and logs[0].popped == logs[1].popped
            found += got is not None
        assert with_ceiling and found > len(HARD_RIPS_PAIRS)

    def test_a_pruned_cost_is_floored_once(self, monkeypatch):
        # a cost whose floor pruned a state is remembered with that floor, so
        # a later state with the same costs is pruned without flooring it
        # again; the tuple search floors such a cost each time it meets it
        floored = []
        floor = pathmetric._transport_floor

        def record(supply, demand, cost):
            floored.append(cost)
            return floor(supply, demand, cost)

        monkeypatch.setattr(pathmetric, "_transport_floor", record)
        repeats = {}
        for search in (pathmetric._best_first, _tuple_best_first):
            repeats[search] = 0
            for q, K, x, y in pool_queries():
                if q["kind"] == "path":
                    table = word_metric(K)
                    floored.clear()
                    search(K, x, y, table, pathmetric._vertex_route(x, y, table)[0])
                    repeats[search] += len(floored) - len(set(floored))
        assert repeats[pathmetric._best_first] == 0 < repeats[_tuple_best_first]

    def test_vertex_pairs_search_one_row_each_and_no_pairs(self, monkeypatch):
        # the vertex tier builds the geodesic's row before reading word(u, v)
        K = tree_complex(2, 9)
        table = word_metric(K)
        counts = {"rows": 0, "pairs": 0}
        search_row, search_pair = WordMetricTable._search_row, WordMetricTable._search_pair

        def count_row(self, i):
            counts["rows"] += 1
            return search_row(self, i)

        def count_pair(self, u, v):
            counts["pairs"] += 1
            return search_pair(self, u, v)

        monkeypatch.setattr(WordMetricTable, "_search_row", count_row)
        monkeypatch.setattr(WordMetricTable, "_search_pair", count_pair)
        rng = np.random.default_rng(9)
        pairs = []
        while len(pairs) < 50:
            u, v = (K.vertices[i] for i in rng.choice(len(K.vertices), size=2, replace=False))
            if v not in K.adjacency[u]:
                pairs.append((u, v))
        for u, v in pairs:
            value, witness = l1_path_distance(K, vertex_point(K, u), vertex_point(K, v))
            assert value == table.distance(u, v) == witness.length
        assert counts["rows"] <= 50 and counts["pairs"] == 0
