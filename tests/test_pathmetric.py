"""Path metric: shortcuts, chain search, bounds, witnesses."""

import heapq
import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from heapq import heappop as _heappop, heappush as _heappush
from operator import add, le, mul
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
    InternalConsistencyError,
    InvalidCarrier,
    build_complex,
    chain_lp,
    chain_solver_distance,
    l1_path_distance,
    lower_bounds,
    apply_automorphism,
    bilinear_extension,
    common_simplex,
    make_point,
    path_length,
    simplex_l1,
    vertex_point,
    word_metric,
    word_vertex_metric,
)
from metricext import pathmetric
from metricext.complexes import VALUE_TOL, SimplicialComplex, WordMetricTable
from metricext.generators import (
    cycle_complex,
    grid_point,
    path_complex,
    random_complex,
    random_point,
    random_same_simplex_pair,
    random_vertex,
    rips_complex,
    tree_complex,
)
from metricext.oracle import grid_oracle_path_distance

from conftest import (
    assert_closed_form_bounds_are_the_lower_bounds,
    assert_costs_decompose,
    cutoff,
    id_rows,
    incidence,
    label_chain_witness,
    pool_queries,
    route_witness,
    search,
    simplex_on_a_path,
    tree_reflection,
    two_direction_bounds,
    vertex_route,
)


class TestPathLength:
    # carriers are rows of vertex ids; errors name their labels
    def test_trivial_path(self, triangle):
        x = make_point(triangle, {"a": 0.5, "b": 0.5})
        y = vertex_point(triangle, "c")
        got = path_length(triangle, [x, y], id_rows(triangle, [("a", "b", "c")]))
        assert got == simplex_l1(x, y)

    def test_two_segments_through_vertex(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        v = vertex_point(path3, "v")
        y = make_point(path3, {"v": 0.5, "w": 0.5})
        got = path_length(path3, [x, v, y], id_rows(path3, [("u", "v"), ("v", "w")]))
        assert got == 1.0

    def test_constant_path(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        assert path_length(path3, [x, x, x], id_rows(path3, [("u", "v"), ("u", "v")])) == 0.0

    def test_invalid_carrier(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        y = make_point(path3, {"v": 0.5, "w": 0.5})
        with pytest.raises(InvalidCarrier, match=r"supports \('u', 'v'\), \('v', 'w'\) not inside \('u', 'v'\)"):
            path_length(path3, [x, y], id_rows(path3, [("u", "v")]))
        with pytest.raises(InvalidCarrier, match=r"carrier \('u', 'v', 'w'\) is not a simplex"):
            path_length(path3, [x, y], id_rows(path3, [("u", "v", "w")]))
        with pytest.raises(InvalidCarrier, match="one carrier per"):
            path_length(path3, [x, y], [])

    @pytest.mark.parametrize("carrier", [(), (0, 0), (0, 0, 1), (1, 0, 1), (0, 3), (-1, 0), (3,)])
    def test_carrier_that_is_no_simplex(self, triangle, carrier):
        # empty, a repeated vertex or an id that names no vertex, though it holds both supports
        x, y = make_point(triangle, {"a": 1.0}), make_point(triangle, {"a": 0.5, "b": 0.5})
        ends = [x, x] if len(set(carrier)) < 2 else [x, y]
        with pytest.raises(InvalidCarrier, match="is not a simplex"):
            path_length(triangle, ends, [carrier])


class TestChainLP:
    def test_single_simplex(self, triangle):
        x = make_point(triangle, {"a": 0.5, "b": 0.5})
        y = make_point(triangle, {"a": 0.1, "c": 0.9})
        value, bps = chain_lp(triangle, Chain(simplices=id_rows(triangle, [("a", "b", "c")])), x, y)
        assert value == pytest.approx(simplex_l1(x, y), abs=1e-12)
        assert bps == []

    def test_forced_breakpoint(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        y = make_point(path3, {"v": 0.5, "w": 0.5})
        value, bps = chain_lp(path3, Chain(simplices=id_rows(path3, [("u", "v"), ("v", "w")])), x, y)
        assert value == 1.0
        assert len(bps) == 1 and bps[0] == vertex_point(path3, "v")

    def test_disjoint_chain_invalid(self):
        K = build_complex(list("uvwz"), [["u", "v"], ["w", "z"], ["v", "w"]])
        with pytest.raises(EmptyIntersection):
            Chain(simplices=id_rows(K, [("u", "v"), ("w", "z")]))

    def test_endpoint_not_in_carrier(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        y = make_point(path3, {"v": 0.5, "w": 0.5})
        with pytest.raises(EndpointNotInCarrier):
            chain_lp(path3, Chain(simplices=id_rows(path3, [("v", "w")])), x, y)

    def test_thick_strip_slide(self, strip):
        # sliding through shared faces beats huddling to vertices
        x = make_point(strip, {"a": 0.5, "b": 0.5})
        y = make_point(strip, {"d": 0.5, "e": 0.5})
        chain = Chain(simplices=id_rows(strip, [("a", "b", "c"), ("b", "c", "d"), ("c", "d", "e")]))
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
                value, bps = chain_lp(K, Chain(simplices=id_rows(K, chain)), x, y)
                assert value == pytest.approx(path_length(K, [x, *bps, y], id_rows(K, chain)), abs=1e-9), name
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
            assert d[i, j] == d[j, i]
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

    def test_query_bounds_are_the_lower_bounds_in_either_direction(self, complex_fleet, rng):
        for K in complex_fleet.values():
            for _ in range(30):
                x, y = random_point(K, rng), random_point(K, rng)
                priced = pathmetric._word_transport(word_metric(K), x, y)
                got = pathmetric.query_bounds(x, y, priced.total / priced.scale)
                assert got == lower_bounds(K, x, y) == lower_bounds(K, y, x)
                assert [name for name, _ in got] == ["coordinate", "disjoint_support", "transport"]
                assert [type(b) for _, b in got] == [float] * 3

    def test_closed_form_bounds_are_the_lower_bounds(self, monkeypatch, complex_fleet, rng):
        # the pool's common-simplex and two-vertex pairs, and seeded ones on the fleet; the
        # census's are in test_census.py
        pairs = [(K, x, y) for _, K, x, y in pool_queries(("path-fleet", "hard-rips", "big-tree"))]
        for K in complex_fleet.values():
            pairs += [(K, *random_same_simplex_pair(K, rng)) for _ in range(20)]
            pairs += [(K, random_vertex(K, rng), random_vertex(K, rng)) for _ in range(20)]
        assert assert_closed_form_bounds_are_the_lower_bounds(monkeypatch, pairs) == 436

    def test_respects_all_lower_bounds(self, book, rng):
        for _ in range(40):
            x = random_point(book, rng)
            y = random_point(book, rng)
            value = l1_path_distance(book, x, y).value
            for name, bound in lower_bounds(book, x, y):
                assert value >= bound - 1e-9, name


    def test_every_tier_is_symmetric_bit_for_bit(self):
        # points whose float weights do not sum to exactly 1 are normalised alike at either end
        # (`_masses`), so no answer depends on which end is x: a route's R and a chain's total
        # are the same integers over the same scale, and a closed form is symmetric as it stands
        rng = np.random.default_rng(9)
        fleet = [
            tree_complex(2, 3),
            rips_complex(cycle_complex(8), 2),
            rips_complex(path_complex(8), 3),
            random_complex(12, 0.3, seed=1),
        ]
        tiers = {"route": 0, "chain": 0, "closed form": 0}
        asymmetric = unnormalised = 0
        for K in fleet:
            for _ in range(300):
                x, y = random_point(K, rng), random_point(K, rng)
                forward = l1_path_distance(K, x, y)
                tiers["route" if forward._route else "chain" if forward._chain else "closed form"] += 1
                unnormalised += any(sum(Fraction(w) for _, w in p.items) != 1 for p in (x, y))
                asymmetric += forward.value != l1_path_distance(K, y, x).value
        assert tiers == {"route": 542, "chain": 268, "closed form": 390}
        assert asymmetric == 0 and unnormalised > 0


def _bound_pairs(complex_fleet, rng):
    """(K, x, y): every pool query, and seeded random pairs on the fleet, a vertex and a point among them."""
    pairs = [(K, x, y) for _, K, x, y in pool_queries(("path-fleet", "hard-rips", "big-tree"))]
    for K in complex_fleet.values():
        pairs += [(K, random_point(K, rng), random_point(K, rng)) for _ in range(40)]
        pairs += [(K, vertex_point(K, K.vertices[0]), random_point(K, rng))]
    return pairs


class TestWordTransportBound:
    """The word transport bounds the path, prices every root, and skips only searches that push nothing."""

    def test_at_least_every_bound_it_replaced(self, complex_fleet, rng):
        # the coordinate and disjoint-support bounds and the sphere bound around either end, but
        # for the rounding of the sphere bound's float sums
        stronger = 0
        for K, x, y in _bound_pairs(complex_fleet, rng):
            name, transport = lower_bounds(K, x, y)[-1]
            assert name == "transport"
            replaced = max(b for _, b in two_direction_bounds(K, x, y))
            assert transport >= replaced - 1e-12, (x, y)
            stronger += transport > replaced + 1e-12
        assert stronger > 0

    def test_every_root_prices_at_the_transport(self, complex_fleet, rng):
        # at a root sigma, val_u is 0 at u and 1 elsewhere, and
        # min_w val_u(w) + word(w, v) over sigma is word(u, v), whatever sigma holds supp(x)
        roots = 0
        for K, x, y in _bound_pairs(complex_fleet, rng):
            table = word_metric(K)
            priced = pathmetric._word_transport(table, x, y)
            assert _dijkstra_transport(priced.supply, priced.demand, priced.words)[0] == priced.total
            for s in K.maximal_indices_containing(x.ids):
                sigma = K.simplex_csr.row(s)
                cost = tuple(
                    tuple(min(int(w != u) + int(table.distance(w, v)) for w in sigma) for v in y.ids)
                    for u in x.ids
                )
                assert cost == priced.words, (x, y, sigma)
                roots += 1
        assert roots > 0

    def test_a_skipped_search_pushes_nothing(self, complex_fleet, rng, monkeypatch):
        # every query past the closed forms whose transport reaches the search's cutoff: the
        # pool's path queries, its extension queries past the coordinate floor (under their
        # ceiling) and seeded path queries on the fleet.  The tuple search, which prices its
        # roots itself, returns None on each, having pushed nothing.  Where the route lay
        # above every bound the transport replaced, by more than the 1e-12 those bounds
        # were compared with, the search used to run
        queries = []
        for q, K, x, y in pool_queries():
            if q["kind"] == "path":
                queries.append((q["kind"], K, x, y, None))
            elif set(x.ids) & set(y.ids):
                vm = word_vertex_metric(K)
                ceiling = (bilinear_extension(vm, x, y), 3.0 * vm.C)
                if ceiling[1] * simplex_l1(x, y) < ceiling[0]:
                    queries.append((q["kind"], K, x, y, ceiling))
        for K in complex_fleet.values():
            queries += [("fleet", K, random_point(K, rng), random_point(K, rng), None) for _ in range(40)]
        skipped, ran = {"path": 0, "ext": 0, "fleet": 0}, {"path": 0, "ext": 0, "fleet": 0}
        for kind, K, x, y, ceiling in queries:
            if x.key() == y.key() or (x.is_vertex and y.is_vertex) or common_simplex(K, x, y):
                continue
            table = word_metric(K)
            priced = pathmetric._word_transport(table, x, y)
            cut = cutoff(x, y, priced, ceiling=ceiling)
            if priced.total >= cut:
                log = _HeapLog()
                monkeypatch.setitem(globals(), "heapq", log)
                assert _tuple_best_first(K, x, y, table, priced, cut) is None
                monkeypatch.undo()
                assert log.pushed == [] and log.popped == []
                skipped[kind] += 1
                route = vertex_route(K, x, y)[0] / priced.scale
                ran[kind] += route > max(b for _, b in two_direction_bounds(K, x, y)) + 1e-12
        assert skipped == {"path": 51, "ext": 51, "fleet": 205}
        assert ran == {"path": 15, "ext": 51, "fleet": 74}


def _assert_route_lengths(K, x, y):
    """The route's value is its exact length rounded once, and each route's witness lies within VALUE_TOL of its own.

    The exact length of the route through (u, v) is (1 - x_u) + word(u, v) +
    (1 - y_v), with x and y normalised exactly from their float weights;
    the route is the least, ties going to the least (u, v).  A route
    through any (u, v) is a path, but only the least one's rows carry an
    optimal chain, so the witnesses come from the hand-laid reference
    (`route_witness`).
    """
    table = word_metric(K)
    sx, sy = sum(Fraction(w) for _, w in x.pairs), sum(Fraction(w) for _, w in y.pairs)
    lengths = {}
    for u, xu in x.pairs:
        for v, yv in y.pairs:
            exact = (1 - Fraction(xu) / sx) + int(table.distance(u, v)) + (1 - Fraction(yv) / sy)
            witness = route_witness(K, x, y, u, v)
            assert abs(witness.length - float(exact)) <= VALUE_TOL, (x, y, u, v)
            lengths[u, v] = exact
    route, u, v = vertex_route(K, x, y)
    exact = min(lengths.values())
    assert (u, v) == min(pair for pair, length in lengths.items() if length == exact), (x, y)
    scale = pathmetric._word_transport(table, x, y).scale
    assert Fraction(route, scale) == exact and route / scale == float(exact), (x, y)


class TestRouteLength:
    """The route is priced exactly, in the units of `_masses`, and its witness is its length to VALUE_TOL."""

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
        extra = rng.multinomial(120, [1 / 8] * 8)  # a point of the 1/128 grid on the last 8 vertices
        on_grid = make_point(K, {v: (1 + int(e)) / 128 for v, e in zip(simplex[-8:], extra)})
        routes = 0
        for y in (vertex_point(K, "p10"), vertex_point(K, "s63"), on_grid):
            _assert_route_lengths(K, x, y)
            _assert_route_lengths(K, y, x)
            routes += _assert_lazy_route_is_the_route(K, x, y)
            routes += _assert_lazy_route_is_the_route(K, x, y, chain_solver_distance)
        # with s63 in supp(x) the route through it ties the chain over the simplex, and a tie
        # goes to the route; without it the chain is shorter
        assert routes == {60: 0, 61: 0, 64: 3}[atoms]

    def test_a_vertex_route_with_no_segment(self, path3):
        # x is e_u, y is e_v and u == v: no segment, and the length is 0.0
        x = vertex_point(path3, "v")
        assert vertex_route(path3, x, x) == (0, 1, 1)  # v's vertex id, both ends
        assert route_witness(path3, x, x, 1, 1).length == 0.0
        _assert_route_lengths(path3, x, x)


def _assert_lazy_route_is_the_route(K, x, y, solve=l1_path_distance) -> bool:
    """Whether x, y is a route answer; if so, both ways, its value is R / scale and its witness the reference's.

    The witness, built on read, is the chain of the route's own carrier
    rows.  The reference (`route_witness`) lays the route out by hand, as
    route answers did before: their point pairs, rows, carriers and lengths
    are equal bit for bit.
    """
    if solve(K, x, y)._route is None:  # a closed form or a chain, built with its answer
        return False
    for a, b in ((x, y), (y, x)):
        got = solve(K, a, b)
        assert got._route is not None, (a, b)
        route, u, v = vertex_route(K, a, b)
        assert got.value == route / pathmetric._word_transport(word_metric(K), a, b).scale, (a, b)
        want = route_witness(K, a, b, u, v)
        witness = got.witness
        assert [p.pairs for p in witness.points] == [p.pairs for p in want.points], (a, b)
        assert witness.rows == want.rows and witness.carriers == want.carriers, (a, b)
        assert witness.length == want.length and abs(witness.length - got.value) <= VALUE_TOL, (a, b)
    return True


def _counting_route_rows(monkeypatch) -> list:
    """Patch `_route_rows` to record each call; the returned list fills as route witnesses are built."""
    built = []
    route_rows = pathmetric._route_rows

    def record(*args):
        built.append(args)
        return route_rows(*args)

    monkeypatch.setattr(pathmetric, "_route_rows", record)
    return built


class TestLazyRouteWitness:
    """A route answer carries its value and builds its witness on the first `.witness` read."""

    def test_pool_pairs(self):
        routes = [_assert_lazy_route_is_the_route(K, x, y) for _, K, x, y in pool_queries()]
        assert routes.count(True) == 78

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_vertex_random_and_grid_points(self, complex_fleet, data):
        K = complex_fleet[data.draw(st.sampled_from(sorted(complex_fleet)))]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["random", "grid", "vertex"]))
        draw = {"random": random_point, "vertex": random_vertex, "grid": lambda K, rng: grid_point(K, rng, 128)}
        x, y = draw[kind](K, rng), draw[kind](K, rng)
        _assert_lazy_route_is_the_route(K, x, y)

    def test_value_builds_nothing_and_witness_builds_once(self, monkeypatch):
        built = _counting_route_rows(monkeypatch)
        K = tree_complex(2, 4)
        vertices = (vertex_point(K, "t07"), vertex_point(K, "t12"))
        edges = (make_point(K, {"t03": 0.5, "t07": 0.5}), make_point(K, {"t05": 0.25, "t12": 0.75}))
        for x, y in (vertices, edges):
            got = l1_path_distance(K, x, y)
            assert got._route is not None
            assert got.value == got[0] == got[-2] and built == []
            witness = got.witness
            assert len(built) == 1 and abs(witness.length - got.value) <= VALUE_TOL
            assert got.witness is witness and got[1] is witness and tuple(got) == (got.value, witness)
            assert got == pathmetric.PathResult(got.value, witness) and len(built) == 1
            built.clear()

    def test_the_extension_builds_a_route_when_its_witness_is_read(self, monkeypatch):
        # the extension never answers with a route (D <= C * route), so its cache is given one
        built = _counting_route_rows(monkeypatch)
        K = tree_complex(2, 4)
        M = ExtendedMetric(K, word_vertex_metric(K))
        x, y = vertex_point(K, "t07"), make_point(K, {"t05": 0.25, "t12": 0.75})
        path = l1_path_distance(K, x, y)
        M._cache[tuple(sorted((x.key(), y.key())))] = ((3.0, "l1path"), path)
        assert M.distance(x, y) == 3.0 and built == []
        there, back = M.distance_with_witness(x, y)[2], M.distance_with_witness(y, x)[2]
        assert len(built) == 1 and back == there.reversed() and there.points[0].key() == x.key()

    def test_a_near_query_keeps_only_the_rows_it_reads(self):
        # its word transport meets the route of 1.25, so the chain search is not run; whole-table
        # list mirrors of the three id tables once kept 15.5 MiB here, and the route witness's
        # geodesic reads one word row, 0.125 MiB
        K = tree_complex(2, 15)
        word_metric(K)
        x = make_point(K, {"t10000": 0.25, "t20001": 0.75})
        y = make_point(K, {"t10000": 0.5, "t20002": 0.5})
        assert max(b for _, b in lower_bounds(K, x, y)) == 1.25
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = l1_path_distance(K, x, y)
            witness = got.witness
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert got.value == witness.length == 1.25
        assert [p.key() for p in witness.points] == [x.key(), vertex_point(K, "t10000").key(), y.key()]
        assert kept < 2 * 2**20

    def test_a_witness_off_the_value_raises(self):
        K = tree_complex(2, 3)
        x, y = vertex_point(K, "t00"), vertex_point(K, "t14")
        assert l1_path_distance(K, x, y).value == 3.0
        got = pathmetric.PathResult(3.0 + 1e-6, route=(K, x, y, *x.ids, *y.ids))
        assert got.value == 3.0 + 1e-6
        with pytest.raises(InternalConsistencyError, match="witness length 3.0"):
            got.witness

    def test_a_value_one_ulp_off_the_route_raises(self):
        # the route's witness is its rows' chain, whose exact optimum must be the value bit
        # for bit; a float length within VALUE_TOL of it is not enough
        K = tree_complex(2, 3)
        x, y = make_point(K, {"t00": 0.25, "t01": 0.75}), make_point(K, {"t06": 0.5, "t14": 0.5})
        exact = l1_path_distance(K, x, y)
        route = exact._route
        assert route is not None and exact.witness.length == exact.value == 3.25
        for value in (math.nextafter(3.25, 0.0), math.nextafter(3.25, math.inf)):
            with pytest.raises(InternalConsistencyError, match="chain optimum 3.25"):
                pathmetric.PathResult(value, route=route).witness

    def test_chain_solver_routes_on_shared_supports(self, complex_fleet):
        # pairs of one simplex, which the chain solver sends past the closed forms: each of
        # their routes has u == v, and its rows, the two supports, meet in {u} alone
        rng = np.random.default_rng(39)
        routes = same = 0
        for K in complex_fleet.values():
            for _ in range(40):
                x, y = random_same_simplex_pair(K, rng)
                if _assert_lazy_route_is_the_route(K, x, y, chain_solver_distance):
                    routes += 1
                    _, u, v = vertex_route(K, x, y)
                    same += u == v
                    assert u != v or set(x.ids) & set(y.ids) == {u}
        assert (routes, same) == (196, 196)


def _assert_lazy_chain_is_the_chain(K, x, y) -> bool:
    """Whether x, y is a chain answer; if so its witness, built from ids on read, is the label-built one.

    The reference (`label_chain_witness`) builds the witness of the chain
    the search finds from labels, as chain answers did before witnesses
    held ids: their point pairs, carriers and lengths are equal bit for bit.
    """
    got = l1_path_distance(K, x, y)
    if got._chain is None:  # a closed form or a route
        return False
    rows, _, _ = search(K, x, y, word_metric(K))
    value, points, carriers, length = label_chain_witness(K, x, y, rows)
    witness = got.witness
    assert [p.key() for p in witness.points] == [p.key() for p in points], (x, y)
    assert witness.rows == rows and witness.carriers == carriers, (x, y)
    assert witness.length == length and got.value == value, (x, y)
    return True


def _counting(monkeypatch, *names) -> dict:
    """Patch each named pathmetric function to count its calls; the returned dict fills as they run."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def record(*args, f=getattr(pathmetric, name), name=name):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(pathmetric, name, record)
    return calls


# a pair whose path is a chain of five triangles: value 1.75, six points
CHAIN_PAIR = ({"c00": 0.25, "c01": 0.25, "c02": 0.5}, {"c04": 0.5, "c05": 0.25, "c06": 0.25})


class TestLazyChainWitness:
    """A chain answer checks its optimum when answered and builds its witness on the first `.witness` read."""

    def test_pool_pairs(self):
        # path and extension pairs alike, as path queries
        chains = [_assert_lazy_chain_is_the_chain(K, x, y) for _, K, x, y in pool_queries()]
        assert chains.count(True) == 227

    def test_seeded_fleet_and_truncated_rips(self, complex_fleet, truncated_rips):
        rng = np.random.default_rng(33)
        chains = 0
        for K in (*complex_fleet.values(), truncated_rips):
            for _ in range(40):
                chains += _assert_lazy_chain_is_the_chain(K, random_point(K, rng), random_point(K, rng))
        assert chains == 66

    def test_six_atoms_a_side(self):
        # two 11-simplices sharing a 5-face, six atoms a side: each flow is 6 x 6
        a, b = [f"a{i:02d}" for i in range(12)], [f"b{i:02d}" for i in range(6)]
        K = build_complex(a + b, [a, a[6:] + b])
        x = make_point(K, dict(zip(a, [0.25, 0.125, 0.125, 0.25, 0.125, 0.125])))
        y = make_point(K, dict(zip(b, [0.125, 0.125, 0.25, 0.25, 0.125, 0.125])))
        assert _assert_lazy_chain_is_the_chain(K, x, y)
        assert l1_path_distance(K, x, y).value == 2.0

    def test_value_builds_nothing_and_witness_builds_once(self, monkeypatch):
        calls = _counting(monkeypatch, "chain_lp", "path_length")
        K = rips_complex(cycle_complex(8), 2)
        x, y = (make_point(K, w) for w in CHAIN_PAIR)
        got = l1_path_distance(K, x, y)
        assert got._route is None and got._chain is not None
        assert got.value == got[0] == got[-2] == 1.75 and calls == {"chain_lp": 0, "path_length": 0}
        witness = got.witness
        assert calls == {"chain_lp": 1, "path_length": 1}
        assert (len(witness.points), len(witness.carriers), witness.length) == (6, 5, 1.75)
        assert got.witness is witness and got[1] is witness and tuple(got) == (got.value, witness)
        assert got == pathmetric.PathResult(got.value, witness)
        assert calls == {"chain_lp": 1, "path_length": 1}

    def test_an_optimum_off_the_search_total_raises_when_answered(self, monkeypatch):
        switch_counts = pathmetric._switch_counts

        def one_more_switch(*args):
            faces, routes, cost = switch_counts(*args)
            return faces, routes, [[c + 1 for c in row] for row in cost]

        monkeypatch.setattr(pathmetric, "_switch_counts", one_more_switch)
        K = rips_complex(cycle_complex(8), 2)
        x, y = (make_point(K, w) for w in CHAIN_PAIR)
        with pytest.raises(InternalConsistencyError, match="chain optimum"):
            l1_path_distance(K, x, y)

    def test_answers_hold_ids_and_make_labels_when_the_witness_is_read(self):
        # a chain answer keeps its simplices as vertex id rows and a route its two ends as vertex
        # ids; reading the witness maps them to the label carriers and points it has always had
        K = rips_complex(cycle_complex(8), 2)
        x, y = (make_point(K, w) for w in CHAIN_PAIR)
        chain = l1_path_distance(K, x, y)
        rows = chain._chain[3]
        assert len(rows) == 5 and all(type(w) is int for row in rows for w in row)
        assert chain.witness.carriers == tuple(tuple(K.vertices[w] for w in row) for row in rows)
        T = tree_complex(2, 3)
        x, y = make_point(T, {"t00": 0.25, "t01": 0.75}), vertex_point(T, "t14")
        route = l1_path_distance(T, x, y)
        assert route._route[3:] == (0, 14)
        walk = ["t00", "t02", "t06", "t14"]
        assert [p.support for p in route.witness.points] == [("t00", "t01"), *[(v,) for v in walk]]
        assert route.witness.carriers == (("t00", "t01"), *zip(walk, walk[1:]))

    def test_a_witness_off_the_value_raises_when_read(self, monkeypatch):
        length = pathmetric.path_length
        monkeypatch.setattr(pathmetric, "path_length", lambda *args: length(*args) + 1e-6)
        K = rips_complex(cycle_complex(8), 2)
        x, y = (make_point(K, w) for w in CHAIN_PAIR)
        got = l1_path_distance(K, x, y)
        assert got.value == 1.75
        with pytest.raises(InternalConsistencyError, match="witness length 1.750001"):
            got.witness


def _assert_vertex_pairs_take_the_route(K):
    table = word_metric(K)
    for (i, u), (j, v) in itertools.combinations(enumerate(K.vertices), 2):
        x, y = vertex_point(K, u), vertex_point(K, v)
        assert max(b for _, b in lower_bounds(K, x, y)) == table.distance(i, j)
        got = chain_solver_distance(K, x, y)
        assert got._route is not None  # the route, its witness not yet built
        assert got == (table.distance(i, j), route_witness(K, x, y, i, j))


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


@pytest.fixture(scope="module")
def truncated_rips():
    # cliques of up to 6 vertices cut at the default max_dim 3: 255 maximal
    # simplices, each meeting 85 others on average through 14 distinct faces
    return rips_complex(path_complex(30), 5)


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


# an earlier solver of the transport, kept verbatim as a reference: Dijkstra on reduced costs
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
    """A point built by hand on the vertices v0, v1, ..., with ids 0, 1, ..."""
    return BarycentricPoint(tuple(enumerate(weights)), tuple(f"v{i}" for i in range(len(weights))))


# the search `_best_first` replaced, kept verbatim but for its names, its
# arguments, its heap key, the overlaps table, now built here, and its chain,
# now returned as id rows: each state stores per atom of supp(x) an int tuple
# aligned with the simplex, and moves through shared positions
def _overlaps(K):
    """Per maximal simplex s, one (t, positions, shared) per other maximal simplex t meeting it.

    The t ascend.  positions[q] is the position in s of the q-th vertex
    of t, or -1 if s lacks it; shared lists the positions in s of the
    vertices the two share.
    """
    M = K.maximal_simplices
    held = incidence(K)
    out = []
    for s, sigma in enumerate(M):
        at = {w: p for p, w in enumerate(sigma)}
        row = []
        for t in sorted({t for w in sigma for t in held[w]} - {s}):
            positions = tuple(at.get(w, -1) for w in M[t])
            row.append((t, positions, tuple(p for p in positions if p >= 0)))
        out.append(tuple(row))
    return tuple(out)


def _tuple_best_first(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
    table,
    priced,
    cutoff: int,
) -> tuple[tuple[tuple[int, ...], ...], int, int] | None:
    """Best chain whose total lies below the cutoff: (chain of id rows, total, scale), or None.

    A state is a maximal simplex sigma reached by a chain from supp(x) plus,
    for each u in supp(x), the fewest switches val_u(w) that bring the mass
    of u to each w in sigma, as a tuple aligned with sigma.  States are
    popped in the order of an integer transport (`_masses`) whose cost from
    u to v is min_w val_u(w) + word(w, v): a bound no extension of the chain
    can beat, equal to the chain optimum times the scale once sigma holds
    supp(y).  So the first such state popped is optimal; among equal totals
    the state nearer supp(y), of least sum_v min_w word(w, v), goes first.
    Only the masses are read from `priced`: every state, the roots
    included, is priced here, each distinct cost matrix once, by the
    Dijkstra solver (`_dijkstra_transport`) and with no floor.  A state is
    pruned when its total reaches the cutoff (the route's R, or a ceiling's
    E below it; `_solve_by_search`).  A state is dropped when another state
    at the same sigma is nowhere worse; a chain that returns to a simplex is
    always dropped this way, so the search is finite.  Under a ceiling the
    answer is the same as under R, or None where a chain of total in
    [E, R) was pruned (see `pathmetric._best_first`).
    """
    M = K.maximal_simplices
    overlaps = _overlaps(K)
    ends = set(K.maximal_indices_containing(y.ids))
    supply, demand, scale = priced.supply, priced.demand, priced.scale
    index = K.index
    rows_y = [table.row(v) for v in y.ids]  # one search per vertex of supp(y) answers every word(w, v)
    to_y: dict[str, tuple[int, ...]] = {}  # w -> word(w, v) for v in supp(y)
    columns: dict[int, tuple[tuple[int, ...], ...]] = {}  # s -> per v, word(w, v) along M[s]
    transports: dict[tuple, int] = {}
    labels: list[tuple[int, tuple, int | None]] = []  # (s, vals, parent)
    alive: list[bool] = []
    front: dict[int, list[int]] = {}  # s -> its undominated live labels
    heap: list[tuple[int, int, int]] = []

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
            total = transports[cost] = _dijkstra_transport(supply, demand, cost)[0]
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
        heapq.heappush(heap, (b, sum(map(min, columns[s])), len(labels) - 1))

    for s in K.maximal_indices_containing(x.ids):
        push(s, tuple(tuple(int(w != u) for w in M[s]) for u in x.support), None)

    while heap:
        b, _, li = heapq.heappop(heap)
        if not alive[li]:
            continue
        s, vals, _ = labels[li]
        if s in ends:
            chain = []
            while li is not None:
                chain.append(K.simplex_csr.row(labels[li][0]))
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


def _shape(data, rows, columns):
    """Draws m (a row's part), d (a column's) and e (0 or 1 per arc) for costs m_u + d_v + e_uv."""
    m = data.draw(st.lists(st.integers(0, 4), min_size=rows, max_size=rows))
    d = data.draw(st.lists(st.integers(0, 4), min_size=columns, max_size=columns))
    e = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=columns, max_size=columns), min_size=rows, max_size=rows))
    return m, d, e


def _zeros(e):
    """Per row, the columns of its arcs with e = 0."""
    return [tuple(j for j, bit in enumerate(row) if not bit) for row in e]


def _flow_total(supply, demand, m, d, e):
    """The least total over costs m_u + d_v + e_uv, as the solver prices it: the separable sum plus scale - F."""
    carried = pathmetric._zero_flow(supply, demand, _zeros(e))[0]
    return sum(map(mul, supply, m)) + sum(map(mul, demand, d)) + sum(supply) - carried


def _planted(x, y, words):
    """A word table that reads words[i][j] between the i-th vertex of supp(x) and the j-th of supp(y), by id."""
    return SimpleNamespace(distance=lambda u, v: words[x.ids.index(u)][y.ids.index(v)])


def _assert_plan(supply, demand, cost, total, plan):
    """plan sends every supply, fills every demand and costs exactly total."""
    assert [sum(row) for row in plan] == list(supply)
    assert [sum(column) for column in zip(*plan)] == list(demand)
    assert sum(f * c for line, fl in zip(cost, plan) for f, c in zip(fl, line)) == total


class TestIntegerSearchCore:
    weight = st.builds(lambda num, k: num / 2**k, st.integers(1, 1024), st.integers(0, 10))

    @given(
        xw=st.lists(weight, min_size=1, max_size=5),
        yw=st.lists(weight, min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_transport_matches_the_rational_bellman_ford(self, xw, yw, data):
        # costs m_u + d_v + e_uv, the shape of every transport the solver prices: the total
        # by the zero-arc flow, and chain_lp's plan where d = 0, against the transport over
        # Fractions
        m, d, e = _shape(data, len(xw), len(yw))
        supply, demand, scale = pathmetric._masses(_weights_point(xw), _weights_point(yw))
        assert all(type(v) is int for v in (*supply, *demand, scale))
        assert sum(supply) == sum(demand)
        # both ends normalised to total exactly 1
        old_supply = [Fraction(w) / sum(map(Fraction, xw)) for w in xw]
        old_demand = [Fraction(w) / sum(map(Fraction, yw)) for w in yw]
        cost = [[mu + dv + bit for dv, bit in zip(d, row)] for mu, row in zip(m, e)]
        assert Fraction(_flow_total(supply, demand, m, d, e), scale) == _bellman_ford_transport(old_supply, old_demand, cost)[0]
        rows = [[mu + bit for bit in row] for mu, row in zip(m, e)]
        total, plan = pathmetric._chain_transport(supply, demand, rows)
        _assert_plan(supply, demand, rows, total, plan)
        assert Fraction(total, scale) == _bellman_ford_transport(old_supply, old_demand, rows)[0]

    @given(
        xw=st.lists(weight, min_size=1, max_size=6),
        yw=st.lists(weight, min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_transport_matches_the_dijkstra_solver(self, xw, yw, data):
        m, d, e = _shape(data, len(xw), len(yw))
        supply, demand, _ = pathmetric._masses(_weights_point(xw), _weights_point(yw))
        cost = [[mu + dv + bit for dv, bit in zip(d, row)] for mu, row in zip(m, e)]
        assert _flow_total(supply, demand, m, d, e) == _dijkstra_transport(supply, demand, cost)[0]
        rows = [[mu + bit for bit in row] for mu, row in zip(m, e)]
        total, plan = pathmetric._chain_transport(supply, demand, rows)
        _assert_plan(supply, demand, rows, total, plan)
        assert total == _dijkstra_transport(supply, demand, rows)[0]

    @pytest.mark.parametrize("k", [8, 12, 16, 24])
    def test_transport_matches_the_dijkstra_solver_on_large_squares(self, k):
        rng = np.random.default_rng(k)
        for _ in range(4):
            xw, yw = ([int(n) / 2 ** int(e) for n, e in zip(rng.integers(1, 1025, k), rng.integers(0, 11, k))]
                      for _ in range(2))
            supply, demand, _ = pathmetric._masses(_weights_point(xw), _weights_point(yw))
            m, d, e = rng.integers(0, 5, k).tolist(), rng.integers(0, 5, k).tolist(), rng.integers(0, 2, (k, k)).tolist()
            cost = [[mu + dv + bit for dv, bit in zip(d, row)] for mu, row in zip(m, e)]
            assert _flow_total(supply, demand, m, d, e) == _dijkstra_transport(supply, demand, cost)[0]
            rows = [[mu + bit for bit in row] for mu, row in zip(m, e)]
            total, plan = pathmetric._chain_transport(supply, demand, rows)
            _assert_plan(supply, demand, rows, total, plan)
            assert total == _dijkstra_transport(supply, demand, rows)[0]

    def test_pool_chains_and_witnesses_match_the_dijkstra_solver(self, monkeypatch):
        # every pool chain's transport, checked when the chain is answered and solved
        # again by chain_lp when its witness is read, has a plan that sends every supply,
        # fills every demand and costs exactly the Dijkstra optimum
        solved = []
        real = pathmetric._chain_transport

        def record(supply, demand, cost):
            solved.append((supply, demand, cost, real(supply, demand, cost)))
            return solved[-1][3]

        monkeypatch.setattr(pathmetric, "_chain_transport", record)
        extended = {}
        for q, K, x, y in pool_queries():
            if q["kind"] == "path":
                l1_path_distance(K, x, y).witness
            else:
                extended.setdefault(id(K), ExtendedMetric(K, word_vertex_metric(K))).distance_with_witness(x, y)
        for supply, demand, cost, (total, plan) in solved:
            _assert_plan(supply, demand, cost, total, plan)
            assert total == _dijkstra_transport(supply, demand, cost)[0]
        assert len(solved) == 2 * 27 + 78

    @given(
        xw=st.lists(weight, min_size=1, max_size=5),
        yw=st.lists(weight, min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_transport_floor_never_exceeds_the_total(self, xw, yw, data):
        # the floors ahead of a flow: a search state's separable sum, and a word block's,
        # over its column minima, plus the supply of each u at none of them
        m, d, e = _shape(data, len(xw), len(yw))
        x, y = _weights_point(xw), _weights_point(yw)
        supply, demand, _ = pathmetric._masses(x, y)
        cost = [[mu + dv + bit for dv, bit in zip(d, row)] for mu, row in zip(m, e)]
        separable = sum(map(mul, supply, m)) + sum(map(mul, demand, d))
        assert type(separable) is int
        assert separable <= _dijkstra_transport(supply, demand, cost)[0]
        words = tuple(tuple(dv + bit for dv, bit in zip(d, row)) for row in e)
        priced = pathmetric._word_transport(_planted(x, y, words), x, y)
        unmet = sum(a for a, row in zip(supply, words) if all(w > dv for w, dv in zip(row, priced.near)))
        assert priced.floor == sum(map(mul, demand, priced.near)) + unmet
        assert type(priced.floor) is int and priced.floor <= _dijkstra_transport(supply, demand, words)[0]

    @given(
        xw=st.lists(weight, min_size=1, max_size=6),
        yw=st.lists(weight, min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_zero_flow_leaves_the_hall_deficiency(self, xw, yw, data):
        # scale - F is the deficiency max over row sets S of supply(S) - demand(N(S)), N(S)
        # the columns S's zero arcs meet (Gale 1957), found here over every S.  The flow
        # runs along zero arcs only, and within the masses
        e = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=len(yw), max_size=len(yw)),
                               min_size=len(xw), max_size=len(xw)))
        supply, demand, scale = pathmetric._masses(_weights_point(xw), _weights_point(yw))
        zero = _zeros(e)
        carried, flow = pathmetric._zero_flow(supply, demand, zero)
        deficiency = max(
            sum(supply[i] for i in rows) - sum(demand[j] for j in set().union(*(zero[i] for i in rows)))
            for k in range(len(xw) + 1)
            for rows in itertools.combinations(range(len(xw)), k)
        )
        assert scale - carried == deficiency
        assert all(f == 0 for z, row in zip(zero, flow) for j, f in enumerate(row) if j not in z)
        assert all(sum(row) <= a for a, row in zip(supply, flow))
        assert all(sum(column) <= b for b, column in zip(demand, zip(*flow)))
        assert sum(map(sum, flow)) == carried

    @given(
        xw=st.lists(weight, min_size=1, max_size=4),
        yw=st.lists(weight, min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=600, deadline=None)
    def test_transport_total_is_the_solved_total(self, xw, yw, data):
        # T_W over word blocks d_v + e_uv, every shape from 1x1 to 4x4; d from 0..2 and e
        # from 0..1 tie often.  The block's floor lies below it
        d = data.draw(st.lists(st.integers(0, 2), min_size=len(yw), max_size=len(yw)))
        e = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=len(yw), max_size=len(yw)),
                               min_size=len(xw), max_size=len(xw)))
        words = tuple(tuple(dv + bit for dv, bit in zip(d, row)) for row in e)
        x, y = _weights_point(xw), _weights_point(yw)
        priced = pathmetric._word_transport(_planted(x, y, words), x, y)
        assert priced.words == words
        assert type(priced.total) is int and type(priced.floor) is int
        assert priced.floor <= priced.total == _dijkstra_transport(priced.supply, priced.demand, words)[0]

    def test_a_cost_that_does_not_decompose_raises(self):
        # a word block whose column spans 0 and 2, which no two vertices of a simplex give,
        # and a chain's row of costs that does the same, raise instead of pricing a total
        x, y = _weights_point([0.5, 0.5]), _weights_point([1.0])
        planted = SimpleNamespace(distance=lambda u, v: (0, 2)[u])
        with pytest.raises(InternalConsistencyError, match=r"costs .0, 2. take more than two successive values"):
            pathmetric._word_transport(planted, x, y)
        with pytest.raises(InternalConsistencyError, match="more than two successive values"):
            pathmetric._chain_transport([2], [1, 1], [[1, 3]])

    def test_every_word_block_and_chain_cost_decomposes(self, complex_fleet, rng):
        # the pool's queries and seeded pairs on the fleet; the census's are in test_census.py
        pairs = [(K, x, y) for _, K, x, y in pool_queries()]
        for K in complex_fleet.values():
            pairs += [(K, random_point(K, rng), random_point(K, rng)) for _ in range(40)]
        assert assert_costs_decompose(pairs) == (750, 272)

    def test_flow_totals_keep_every_label_and_chain(self, monkeypatch):
        # with every zero-arc flow taken from the Dijkstra solver's plan over the costs
        # e_uv instead, the pool's path and extension queries push and pop the same
        # labels, find the same chains and give the same values
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

        def dijkstra_flow(supply, demand, zero):
            e = [[int(j not in z) for j in range(len(demand))] for z in zero]
            total, plan = _dijkstra_transport(supply, demand, e)
            return sum(supply) - total, [[f if j in z else 0 for j, f in enumerate(row)] for z, row in zip(zero, plan)]

        monkeypatch.setattr(pathmetric, "heapq", SimpleNamespace(heappush=record_push, heappop=record_pop))
        monkeypatch.setattr(pathmetric, "_best_first", record_found)
        queries = list(pool_queries())
        runs = []
        for flow in (pathmetric._zero_flow, dijkstra_flow):
            monkeypatch.setattr(pathmetric, "_zero_flow", flow)
            for log in (pushed, popped, found):
                log.clear()
            extended, values = {}, []
            for q, K, x, y in queries:
                if q["kind"] == "path":
                    values.append(l1_path_distance(K, x, y).value)
                else:
                    values.append(extended.setdefault(id(K), ExtendedMetric(K, word_vertex_metric(K))).distance(x, y))
            runs.append((values, list(pushed), list(popped), list(found)))
        assert runs[0] == runs[1]
        assert runs[0][1] and runs[0][2] and any(f is not None for f in runs[0][3])

    def test_floor_pruning_keeps_every_pushed_label(self, monkeypatch):
        # the states the floor prunes without a flow would all have been pruned by their
        # totals: on the pool's path queries the tuple search, which prices every state
        # exactly and has no floor, pushes the same labels and returns the same chains,
        # while the search finds far fewer flows than the transports the tuple search
        # solves.  Each query's word transport is one of the flows
        flows, solves = [0], [0]
        zero_flow, dijkstra = pathmetric._zero_flow, _dijkstra_transport

        def count_flow(*args):
            flows[0] += 1
            return zero_flow(*args)

        def count_solve(*args):
            solves[0] += 1
            return dijkstra(*args)

        monkeypatch.setattr(pathmetric, "_zero_flow", count_flow)
        monkeypatch.setitem(globals(), "_dijkstra_transport", count_solve)
        queries = [(K, x, y) for q, K, x, y in pool_queries() if q["kind"] == "path"]
        for K, x, y in queries:
            table = word_metric(K)
            priced = pathmetric._word_transport(table, x, y)
            cut = cutoff(x, y, priced)
            logs = _HeapLog(), _HeapLog()
            monkeypatch.setattr(pathmetric, "heapq", logs[0])
            monkeypatch.setitem(globals(), "heapq", logs[1])
            found = pathmetric._best_first(K, x, y, table, priced, cut)
            assert found == _tuple_best_first(K, x, y, table, priced, cut)
            assert logs[0].pushed == logs[1].pushed
        assert (flows[0], solves[0]) == (184, 272)

    def test_pool_transports_are_integer(self, monkeypatch):
        # every supply, demand and zero arc a flow is found for, every word block and
        # chain cost split, and everything they return, word blocks' floors included, is
        # an int, and the answers are the pool's where it has one
        real_floor = pathmetric._WordTransport.floor.func
        real_flow, real_split = pathmetric._zero_flow, pathmetric._row_split
        floored = {"path": 0, "ext": 0, "witness": 0}  # word blocks floored under a ceiling
        flows = {"path": 0, "ext": 0, "witness": 0}  # zero-arc flows found
        split = {"path": 0, "ext": 0, "witness": 0}  # cost matrices split: word blocks and chain costs
        kind = [None]

        def ints(*values):
            assert all(type(v) is int for v in values)

        def floor(priced):
            floored[kind[0]] += 1
            value = real_floor(priced)
            ints(value)
            return value

        def flow(supply, demand, zero):
            flows[kind[0]] += 1
            ints(*supply, *demand, *itertools.chain(*zero))
            carried, plan = real_flow(supply, demand, zero)
            ints(carried, *itertools.chain(*plan))
            return carried, plan

        def row_split(cost):
            split[kind[0]] += 1
            cost = [list(row) for row in cost]
            ints(*itertools.chain(*cost))
            mins, zero = real_split(cost)
            ints(*mins, *itertools.chain(*zero))
            return mins, zero

        monkeypatch.setattr(pathmetric._WordTransport, "floor", property(floor))
        monkeypatch.setattr(pathmetric, "_zero_flow", flow)
        monkeypatch.setattr(pathmetric, "_row_split", row_split)
        extended = {}
        for q, K, x, y in pool_queries():
            kind[0] = q["kind"]
            if q["kind"] == "path":
                result = l1_path_distance(K, x, y)
                value = result.value
                kind[0] = "witness"
                result.witness
            else:
                value = extended.setdefault(id(K), ExtendedMetric(K, word_vertex_metric(K))).distance(x, y)
            if q["expected"] is not None:
                assert value == pytest.approx(q["expected"], abs=1e-9), q["id"]
        # exact counts.  Each of the 87 path queries past the closed forms splits its word
        # block by its columns and prices its word transport by one flow; the 23 closed
        # forms take their transport bound in closed form.  The 41 extension queries past
        # the coordinate floor floor their word block under the ceiling, and that floor
        # decides every one, so none finds a flow or searches.  The path queries' searches
        # find 74 flows, one per zero pattern among the states their separable sum leaves
        # below the cutoff.  Each of the 27 chains found splits its DP's costs and finds one
        # flow to check its optimum, and chain_lp does the same again when its witness is
        # read, as it does for each of the 78 routes, along the route's own rows
        assert floored == {"path": 0, "ext": 41, "witness": 0}
        assert flows == {"path": 87 + 74 + 27, "ext": 0, "witness": 27 + 78}
        assert split == {"path": 87 + 27, "ext": 41, "witness": 27 + 78}

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
            priced = pathmetric._word_transport(word_metric(K), x, y)
            for factor in (1.0, 1.7, math.pi, 3.3000000000000003):
                tie = factor * exact.value
                for bilinear in (tie, math.nextafter(tie, math.inf)):
                    got = pathmetric._solve_by_search(K, x, y, priced, (bilinear, factor))
                    if got is None:
                        assert tie >= bilinear, q["id"]
                        answers["none"] += 1
                    else:
                        assert got == exact, q["id"]
                        answers["path"] += 1
        assert answers["path"] and answers["none"]

    @pytest.mark.parametrize("xw, yw, want", HARD_RIPS_PAIRS)
    def test_search_prunes_exactly_at_the_cutoff(self, rips_path40, xw, yw, want):
        # the optimum is found iff its total lies below the cutoff: at total + 1, not at total
        K = rips_path40
        x, y = make_point(K, xw), make_point(K, yw)
        table = word_metric(K)
        priced = pathmetric._word_transport(table, x, y)
        chain, total, scale = search(K, x, y, table, want + 1.0)
        assert Fraction(total, scale) == Fraction(want)
        assert pathmetric._best_first(K, x, y, table, priced, total + 1) == (chain, total, scale)
        assert pathmetric._best_first(K, x, y, table, priced, total) is None

    def test_neighbours_list_the_simplices_that_meet_s(self, complex_fleet):
        # each row pairs every other simplex t that meets s, t ascending, with
        # the ascending vertex ids of s & t; equal faces are one tuple, and
        # the row is kept
        for K in complex_fleet.values():
            M = K.maximal_simplices
            for s in range(len(M)):
                row = list(K.neighbours(s))
                ts = [t for t, _ in row]
                assert ts == sorted(set(ts))
                assert set(ts) == {t for t in range(len(M)) if t != s and set(M[t]) & set(M[s])}
                for t, face in row:
                    assert face == tuple(sorted(K.index[w] for w in set(M[s]) & set(M[t])))
                assert len({id(f) for _, f in row}) == len({f for _, f in row})
                kept = K._neighbour_rows[s]
                assert list(K.neighbours(s)) == row and K._neighbour_rows[s] is kept
        # one search builds the rows of the simplices it expands, not the
        # whole table (the bounds decide a tree's queries, so the search is
        # given an incumbent above the optimum, 5.25 = 84 / 16)
        K = tree_complex(2, 9)
        x = make_point(K, {"t0003": 0.5, "t0007": 0.5})
        y = make_point(K, {"t0005": 0.25, "t0011": 0.75})
        found = search(K, x, y, word_metric(K), 5.75)
        assert found[1:] == (84, 16) and len(found[0]) == 6
        assert 0 < len(K._neighbour_rows) < len(K.maximal_simplices)

    def test_state_search_matches_the_tuple_search(self, monkeypatch, complex_fleet, rips_path40, truncated_rips):
        # the same chain, total and scale, and the same items pushed and
        # popped, as the search over int tuples, which prices its roots and
        # every neighbour from that neighbour's own vertices: on every search
        # the pool's path and extension queries make, the hard rips pairs, and
        # seeded random pairs on the fleet and on a truncated Rips complex,
        # each of those also under a ceiling halfway from its word transport
        # to its route
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

        def call(K, x, y, incumbent=None, ceiling=None):
            table = word_metric(K)
            priced = pathmetric._word_transport(table, x, y)
            return K, x, y, table, priced, cutoff(x, y, priced, incumbent, ceiling)

        for xw, yw, want in HARD_RIPS_PAIRS:
            x, y = make_point(rips_path40, xw), make_point(rips_path40, yw)
            calls.append(call(rips_path40, x, y, want + 1.0))
        rng = np.random.default_rng(16)
        with_ceiling = 0
        for K in [*complex_fleet.values(), truncated_rips]:
            for _ in range(20):
                x, y = random_point(K, rng), random_point(K, rng)
                calls.append(call(K, x, y))
                priced, route = calls[-1][4:]
                calls.append(call(K, x, y, ceiling=(0.5 * (priced.total + route) / priced.scale, 1.0)))
                with_ceiling += calls[-1][5] < calls[-2][5]
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

    def test_a_moves_costs_are_read_over_its_face(self, complex_fleet, truncated_rips):
        # after a move from sigma to t, min over t of val_u(w) + word(w, v),
        # read from all of t's vertices, is m + d_v, plus 1 when Z misses
        # Y_v, with m and Z the least count on t and where it is attained
        # (inside sigma & t), and d_v and Y_v taken over sigma & t alone; on
        # states reached by seeded random moves from the roots
        rng = np.random.default_rng(32)
        checked = 0
        for K in [*complex_fleet.values(), truncated_rips]:
            table, simplex = word_metric(K), K.simplex_csr.row
            for _ in range(6):
                x, y = random_point(K, rng), random_point(K, rng)
                rows_y = [table.row(v) for v in y.ids]
                roots = K.maximal_indices_containing(x.ids)
                s = roots[int(rng.integers(len(roots)))]
                vals = [{w: int(w != u) for w in simplex(s)} for u in x.ids]  # per u, its counts on s
                for _ in range(8):
                    row = list(K.neighbours(s))
                    if not row:
                        break
                    moves = []
                    for t, face in row:
                        assert set(face) == set(simplex(s)) & set(simplex(t))
                        moved = []
                        for val in vals:
                            # shared vertices keep their counts, the others get the least shared count + 1
                            switch = min(val[w] for w in face) + 1
                            moved.append({w: val.get(w, switch) for w in simplex(t)})
                        for val in moved:
                            m = min(val.values())
                            z = {w for w in face if val[w] == m}
                            assert z and m == min(val[w] for w in face)
                            for row_v in rows_y:
                                d = min(row_v.item(w) for w in face)
                                near = {w for w in face if row_v.item(w) == d}
                                own = min(val[w] + row_v.item(w) for w in simplex(t))
                                assert own == m + d + (not z & near)
                                checked += 1
                        moves.append((t, moved))
                    s, vals = moves[int(rng.integers(len(moves)))]
        assert checked > 30_000

    def test_a_search_meets_only_the_simplices_it_pushes(self, monkeypatch, truncated_rips):
        # a neighbour dominated at t, or behind a face whose total reaches the
        # cutoff, is never met: a simplex's vertex row is first read just
        # before it is pushed, so the simplices met are the roots and the
        # simplices pushed.  Pricing every neighbour from its own vertices
        # would meet every neighbour of every simplex expanded
        K = truncated_rips
        events, expanded = [], []
        row, neighbours = K.simplex_csr.row, SimplicialComplex.neighbours

        class Log(_HeapLog):
            def heappush(self, heap, item):
                events.append(("push", item))
                super().heappush(heap, item)

        monkeypatch.setattr(K.simplex_csr, "row", lambda s: events.append(("row", s)) or row(s))
        monkeypatch.setattr(SimplicialComplex, "neighbours", lambda self, s: expanded.append(s) or neighbours(self, s))
        monkeypatch.setattr(pathmetric, "heapq", Log())
        rng = np.random.default_rng(15)
        counts = []
        for _ in range(4):
            x, y = random_point(K, rng), random_point(K, rng)
            events.clear()
            expanded.clear()
            assert search(K, x, y, word_metric(K)) is not None
            met = []
            for i, (kind, s) in enumerate(events):
                if kind == "row" and s not in met:
                    met.append(s)
                    assert events[i + 1][0] == "push"
            roots = K.maximal_indices_containing(x.ids)
            assert met[:len(roots)] == roots
            reached = set(roots).union(*[[t for t, _ in neighbours(K, s)] for s in expanded])
            pushes = sum(kind == "push" for kind, _ in events)
            counts.append((len(roots), len(met), pushes, len(expanded), len(reached)))
        # (roots, simplices met, pushes, expansions, simplices met by pricing each neighbour itself)
        assert counts == [(5, 200, 268, 8, 253), (1, 114, 160, 6, 184), (4, 172, 289, 7, 210), (1, 115, 532, 35, 139)]

    def test_a_zero_pattern_is_solved_once(self, monkeypatch):
        # a state's flow is kept per zero pattern, over the query's masses, so a search
        # finds no pattern's flow twice; it finds fewer flows than the tuple search, which
        # keeps its totals per cost matrix, solves transports
        patterns, solved = [], [0]
        zero_flow, dijkstra = pathmetric._zero_flow, _dijkstra_transport

        def record(supply, demand, zero):
            patterns.append(zero)
            return zero_flow(supply, demand, zero)

        def count(*args):
            solved[0] += 1
            return dijkstra(*args)

        monkeypatch.setattr(pathmetric, "_zero_flow", record)
        monkeypatch.setitem(globals(), "_dijkstra_transport", count)
        repeats = flows = 0
        for q, K, x, y in pool_queries():
            if q["kind"] == "path":
                table = word_metric(K)
                priced = pathmetric._word_transport(table, x, y)
                cut = cutoff(x, y, priced)
                priced.total
                patterns.clear()
                pathmetric._best_first(K, x, y, table, priced, cut)
                repeats += len(patterns) - len(set(patterns))
                flows += len(patterns)
                _tuple_best_first(K, x, y, table, priced, cut)
        assert repeats == 0 and 0 < flows < solved[0]

    def test_vertex_pairs_search_one_row_each_and_no_pairs(self, monkeypatch):
        # the vertex tier builds the geodesic's row before reading word(u, v)
        K = tree_complex(2, 9)
        table = word_metric(K)
        counts = {"rows": 0, "pairs": 0}
        search_row, search_pair = WordMetricTable._search_row, WordMetricTable._search_pair

        def count_row(self, i):
            counts["rows"] += 1
            return search_row(self, i)

        def count_pair(self, i, j):
            counts["pairs"] += 1
            return search_pair(self, i, j)

        monkeypatch.setattr(WordMetricTable, "_search_row", count_row)
        monkeypatch.setattr(WordMetricTable, "_search_pair", count_pair)
        rng = np.random.default_rng(9)
        pairs = []
        while len(pairs) < 50:
            i, j = rng.choice(len(K.vertices), size=2, replace=False).tolist()
            if j not in K.adjacency_csr.row(i):
                pairs.append((i, j))
        for i, j in pairs:
            x, y = (vertex_point(K, K.vertices[k]) for k in (i, j))
            value, witness = l1_path_distance(K, x, y)
            assert value == table.distance(i, j) == witness.length
        assert counts["rows"] <= 50 and counts["pairs"] == 0
