"""Bilinear extension, corrected extension metric, double differences."""

import itertools
import math
import sys
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricext import (
    ExtendedMetric,
    InvalidParameters,
    MissingQIConstants,
    PathResult,
    PathWitness,
    apply_automorphism,
    bilinear_extension,
    build_complex,
    common_simplex,
    double_difference,
    gromov_product,
    l1_path_distance,
    lower_bounds,
    make_point,
    sandwich_check,
    simplex_l1,
    transformed_word_metric,
    tripwire_log,
    validate_vertex_metric,
    vertex_point,
    word_metric,
    word_vertex_metric,
)
from metricext import pathmetric as pathmetric_module
from metricext.checks import run_checks
from metricext.generators import (
    cycle_complex,
    random_disjoint_pair,
    random_point,
    random_same_simplex_pair,
    rips_complex,
    tree_complex,
)

from conftest import (
    pool_queries,
    sample_geodesic_triples,
    simplex_on_a_path,
    tree_reflection,
    vertex_route,
)


class TestBilinearExtension:
    def test_vertices_give_vertex_metric(self, path3):
        vm = word_vertex_metric(path3)
        u, v = vertex_point(path3, "u"), vertex_point(path3, "v")
        assert bilinear_extension(vm, u, v) == 1.0

    def test_positive_on_diagonal_off_vertices(self, path3):
        vm = word_vertex_metric(path3)
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        assert bilinear_extension(vm, x, x) == 0.5

    def test_mixed_example(self, path3):
        vm = word_vertex_metric(path3)
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        w = vertex_point(path3, "w")
        assert bilinear_extension(vm, x, w) == 1.5

    def test_exact_symmetry(self, book, rng):
        vm = word_vertex_metric(book)
        for _ in range(40):
            x, y = random_point(book, rng), random_point(book, rng)
            assert bilinear_extension(vm, x, y) == bilinear_extension(vm, y, x)

    def test_triangle_inequality(self, book, rng):
        vm = word_vertex_metric(book)
        for _ in range(150):
            x, y, z = (random_point(book, rng) for _ in range(3))
            assert bilinear_extension(vm, x, z) <= (
                bilinear_extension(vm, x, y) + bilinear_extension(vm, y, z) + 1e-9
            )


@pytest.mark.parametrize("build", [lambda: tree_complex(2, 10), lambda: rips_complex(cycle_complex(12), 2)],
                         ids=["tree", "rips"])
def test_queries_on_id_built_points_build_no_label_index(build):
    # every reader on the query path takes vertex ids and (id, weight) pairs, which the points
    # carry, so no query maps a label back to an id and the label -> id dict is never built,
    # nor is any point's label view, chain answers included; their witnesses are built from
    # ids too, and reading, validating and reversing them maps no label either; an explicit
    # metric, whose validation scans every triple, only on the small complex
    K = build()
    rng = np.random.default_rng(36)
    metrics = [word_vertex_metric(K), transformed_word_metric(K, 1.5, 0.5)]
    if len(K.vertices) <= 60:
        metrics.append(validate_vertex_metric(K, 1.5 * word_metric(K).matrix))
    points, tiers, witnessed = [], Counter(), 0
    for vm in metrics:
        M = ExtendedMetric(K, vm)
        for _ in range(40):
            x, y = random_point(K, rng), random_point(K, rng)
            got = l1_path_distance(K, x, y)
            tiers["chain" if got._chain else "route" if got._route else "closed form"] += 1
            M.distance(x, y)
            bilinear_extension(vm, x, y)
            simplex_l1(x, y)
            witness = got.witness
            witness.validate(K)
            witness.reversed().validate(K)
            M.distance_with_witness(x, y)
            points += [x, y, *witness.points]
        for _ in range(10):
            # pairs of one simplex, which the extension answers by the path and its witness
            x, y = random_same_simplex_pair(K, rng)
            witness = M.distance_with_witness(x, y)[2]
            if witness is not None:
                witness.validate(K)
                witnessed += 1
            points += [x, y]
    # no chain answers a tree pair here; the Rips complex's pairs include chain answers
    assert tiers["route"] and (tiers["chain"] > 0) == (K.dimension > 1), tiers
    assert witnessed > 0
    assert not [p for p in points if "support" in vars(p) or "items" in vars(p)]
    assert "index" not in K.__dict__


@pytest.mark.parametrize("build", [lambda: tree_complex(2, 6), lambda: rips_complex(cycle_complex(12), 2)],
                         ids=["tree", "rips"])
def test_the_id_suites_build_no_label_index(build):
    # the complex, vertex, path, extension and oracle suites draw, build and validate from ids
    # alone (the oracle's grid reads the label adjacency, which maps no label to an id); the
    # probes take label rays
    K = build()
    vm = word_vertex_metric(K)
    for suite in ("complex", "vertex", "path", "extension", "oracle"):
        assert all(r.ok for r in run_checks(K, vm, suite=suite)), suite
    assert "index" not in K.__dict__


class TestExtendedDistance:
    def test_same_point_zero(self, path3):
        M = ExtendedMetric(path3, word_vertex_metric(path3))
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        assert M.distance_with_branch(x, x) == (0.0, "l1path")
        u = vertex_point(path3, "u")
        assert M.distance_with_branch(u, u) == (0.0, "bilinear")
        # a diagonal that validation accepts within VALUE_TOL still gives exactly 0
        word = word_metric(path3).matrix.astype(float)
        near = ExtendedMetric(path3, validate_vertex_metric(path3, word + 1e-13 * np.eye(3)))
        assert near.distance_with_witness(u, u) == (0.0, "bilinear", None)

    def test_extends_vertex_metric(self, book):
        vm = transformed_word_metric(book, scale=1.5, saturation=0.5)
        M = ExtendedMetric(book, vm)
        for (i, u), (j, v) in itertools.combinations(enumerate(book.vertices), 2):
            value, branch = M.distance_with_branch(vertex_point(book, u), vertex_point(book, v))
            assert value == vm.distance(i, j)
            assert branch == "bilinear"

    def test_a_metric_made_for_another_complex_is_rejected(self):
        # on the 4-cycle, the path's word metric puts a and d 3 apart against a word
        # distance of 1, so d <= C * word fails at C = 1
        path = build_complex("abcd", ["ab", "bc", "cd"])
        cycle = build_complex("abcd", ["ab", "bc", "cd", "da"])
        other = build_complex("wxyz", ["wx", "xy", "yz"])
        word = word_metric(path).matrix.astype(float)
        for vm in (word_vertex_metric(path), validate_vertex_metric(path, word)):
            for K in (cycle, other):
                with pytest.raises(InvalidParameters, match="another complex"):
                    ExtendedMetric(K, vm)
            with pytest.raises(InvalidParameters, match="another complex"):
                run_checks(cycle, vm, suite="complex")
            # an equal complex built separately is the same complex
            same = build_complex("dcba", ["dc", "ba", "cb"])
            assert same is not path and same == path
            M = ExtendedMetric(same, vm)
            assert M.distance(vertex_point(same, "a"), vertex_point(same, "d")) == 3.0

    def test_c_below_the_minimal_bound_is_rejected(self, path3):
        words = word_metric(path3).matrix.astype(float)
        vm = validate_vertex_metric(path3, 2.0 * words)
        assert vm.minimal_C == 2.0
        vm.C = 1.5
        with pytest.raises(ValueError, match="C=1.5 below minimal linear bound 2.0"):
            ExtendedMetric(path3, vm)

    def test_worked_example_on_path(self, path3):
        M = ExtendedMetric(path3, word_vertex_metric(path3))
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        y = make_point(path3, {"v": 0.5, "w": 0.5})
        value, branch = M.distance_with_branch(x, y)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert branch == "bilinear"

    def test_l1path_branch_for_close_points(self, triangle):
        M = ExtendedMetric(triangle, word_vertex_metric(triangle))
        x = make_point(triangle, {"a": 0.50, "b": 0.50})
        y = make_point(triangle, {"a": 0.49, "b": 0.51})
        value, branch = M.distance_with_branch(x, y)
        assert branch == "l1path"
        assert value == pytest.approx(3.0 * simplex_l1_local(x, y), abs=1e-12)

    def test_witness_is_the_solved_path(self, triangle):
        K = rips_complex(cycle_complex(8), 2)
        M = ExtendedMetric(K, word_vertex_metric(K))
        x = make_point(K, {"c00": 0.0625, "c01": 0.46875, "c02": 0.46875})
        y = make_point(K, {"c01": 0.46875, "c02": 0.46875, "c03": 0.0625})
        path = l1_path_distance(K, x, y)
        assert M.distance_with_witness(x, y) == (3.0 * path.value, "l1path", path.witness)
        value, branch, back = M.distance_with_witness(y, x)  # answered from the cache
        assert (value, branch) == (3.0 * path.value, "l1path")
        assert back.points == path.witness.points[::-1] and back.length == path.witness.length
        back.validate(K)
        tri = ExtendedMetric(triangle, word_vertex_metric(triangle))
        a = make_point(triangle, {"a": 0.50, "b": 0.50})
        b = make_point(triangle, {"a": 0.49, "b": 0.51})
        assert tri.distance_with_witness(a, b)[2] == l1_path_distance(triangle, a, b).witness
        assert tri.distance_with_witness(a, a) == (0.0, "l1path", l1_path_distance(triangle, a, a).witness)
        u = vertex_point(triangle, "a")
        assert tri.distance_with_witness(u, b) == (*tri.distance_with_branch(u, b), None)

    def test_a_chain_answer_builds_its_witness_when_it_is_read(self, book, monkeypatch):
        # a near pair of TestL1PathBelowBilinear's seeded ones, whose l1path answer is a
        # chain of two triangles: the distance builds no witness, and the first witness
        # read builds it once, for either end
        built = []
        chain_lp = pathmetric_module.chain_lp
        monkeypatch.setattr(pathmetric_module, "chain_lp", lambda *args: built.append(args) or chain_lp(*args))
        M = ExtendedMetric(book, word_vertex_metric(book))
        x = make_point(book, {"b": 20, "c": 17, "d": 5})
        y = make_point(book, {"a": 1, "b": 26, "c": 23})
        value = M.distance(x, y)
        assert M.distance_with_branch(y, x) == (value, "l1path") and built == []
        there, back = M.distance_with_witness(x, y)[2], M.distance_with_witness(y, x)[2]
        assert len(built) == 1 and len(there.carriers) == 2
        assert there.points[0].key() == x.key() and back == there.reversed()
        path = l1_path_distance(book, x, y)
        assert value == 3.0 * path.value and there == path.witness

    def test_a_search_query_is_priced_once(self, monkeypatch):
        K = rips_complex(cycle_complex(8), 2)
        M = ExtendedMetric(K, word_vertex_metric(K))
        x = make_point(K, {"c00": 0.0625, "c01": 0.46875, "c02": 0.46875})
        y = make_point(K, {"c01": 0.46875, "c02": 0.46875, "c03": 0.0625})
        word_transport, query_bounds = pathmetric_module._word_transport, pathmetric_module.query_bounds
        priced, queries, singles = [], [], []
        counted_transport = lambda table, a, b: priced.append((a, b)) or word_transport(table, a, b)
        counted_query = lambda a, b, p: queries.append((a, b)) or query_bounds(a, b, p)
        monkeypatch.setattr(pathmetric_module, "_word_transport", counted_transport)
        monkeypatch.setattr(pathmetric_module, "query_bounds", counted_query)
        monkeypatch.setattr(pathmetric_module, "lower_bounds", lambda *args: singles.append(args))
        checks = tripwire_log().checks
        assert M.distance_with_branch(x, y)[1] == "l1path"  # the search tier ran
        # one word transport prices the query, and its one list of bounds checks the chain found
        assert priced == [(x, y)]
        assert queries == [(x, y)]
        assert singles == []
        monkeypatch.undo()
        assert tripwire_log().checks - checks == len(lower_bounds(K, x, y)) == 3

    def test_disjoint_supports_use_bilinear(self, book, rng):
        vm = word_vertex_metric(book)
        M = ExtendedMetric(book, vm)
        for _ in range(60):
            x, y = random_disjoint_pair(book, rng)
            value, branch = M.distance_with_branch(x, y)
            assert branch == "bilinear"
            assert value == bilinear_extension(vm, x, y)
            d_path = l1_path_distance(book, x, y).value
            assert value <= M.scale * d_path + 1e-9

    def test_metric_axioms_sampled(self, book, rng):
        M = ExtendedMetric(book, transformed_word_metric(book, 1.25, 0.75))
        pts = [random_point(book, rng) for _ in range(10)]
        for x, y in itertools.combinations(pts, 2):
            assert M.distance(x, y) == M.distance(y, x)
            if x.key() != y.key():
                assert M.distance(x, y) > 0.0
        for x, y, z in itertools.permutations(pts, 3):
            assert M.distance(x, z) <= M.distance(x, y) + M.distance(y, z) + 1e-9

    def test_mixed_inequality(self, book, rng):
        vm = word_vertex_metric(book)
        M = ExtendedMetric(book, vm)
        for _ in range(150):
            x, y, z = (random_point(book, rng) for _ in range(3))
            lhs = bilinear_extension(vm, x, z)
            rhs = bilinear_extension(vm, x, y) + 2.0 * vm.C * l1_path_distance(book, y, z).value
            assert lhs <= rhs + 1e-9


def _near_pair_in(K, data, a, b):
    """Points on maximal simplices a and b, most of their weight where a and b meet."""

    def near(simplex):
        return make_point(K, {
            v: data.draw(st.integers(8, 32) if v in a and v in b else st.integers(0, 8))
            for v in simplex
        })

    return near(a), near(b)


def _reference(M, x, y):
    """min(bilinear, 3C * path) from the full path solve, ties reporting bilinear."""
    bilinear = bilinear_extension(M.vertex, x, y)
    path = l1_path_distance(M.K, x, y)
    scaled = 3.0 * M.vertex.C * path.value
    if bilinear <= scaled:
        return (bilinear, "bilinear", None)
    return (scaled, "l1path", path.witness)


def _capped(K, x, y, priced, ceiling):
    """`pathmetric._solve_by_search` under a ceiling, checked against the uncapped search.

    Under (bilinear, factor) the answer must be None exactly where factor *
    path reaches bilinear, and otherwise the path, value and witness, that
    the search gives without a ceiling.
    """
    got = pathmetric_module._solve_by_search(K, x, y, priced, ceiling)
    path = pathmetric_module._solve_by_search(K, x, y, priced)
    bilinear, factor = ceiling
    assert got == (None if factor * path.value >= bilinear else path), (x, y, ceiling)
    return got


def _route_decisions(M, x, y):
    """The search's answer under the extension's ceiling, checked by `_capped`; False if not asked.

    Every query past the coordinate floor is asked, those that the word
    transport decides before the search included.
    """
    bilinear = bilinear_extension(M.vertex, x, y)
    if x.key() == y.key() or M.scale * simplex_l1(x, y) >= bilinear:
        return False
    priced = pathmetric_module._word_transport(word_metric(M.K), x, y)
    return _capped(M.K, x, y, priced, (bilinear, M.scale))


class TestSearchCeiling:
    """The search stops once 3C * path reaches bilinear; every answer stays the full min's."""

    def test_the_route_decides_as_the_uncapped_search_on_the_pool(self, monkeypatch):
        # every answer, None or path, is the one the search gives without a
        # ceiling; the search never lays out the route's rows for a witness: R decides
        built = []
        route_rows = pathmetric_module._route_rows

        def record(*args):
            built.append(sys._getframe(1).f_code.co_name)
            return route_rows(*args)

        monkeypatch.setattr(pathmetric_module, "_route_rows", record)
        answers = []
        for q, K, x, y in pool_queries(("path-fleet",)):
            if q["kind"] == "ext":
                got = _route_decisions(ExtendedMetric(K, word_vertex_metric(K)), x, y)
                if got is not False:
                    answers.append(got is None)
        assert answers.count(True) == 51 and answers.count(False) == 0
        assert "_solve_by_search" not in built

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_the_route_decides_as_the_uncapped_search_on_near_pairs(self, complex_fleet, data):
        name = data.draw(st.sampled_from(sorted(complex_fleet)))
        K = complex_fleet[name]
        M = K.maximal_simplices
        meeting = [(a, b) for a in M for b in M if a != b and len(set(a) & set(b)) >= 2]
        if not meeting:
            return
        x, y = _near_pair_in(K, data, *data.draw(st.sampled_from(meeting)))
        vm = transformed_word_metric(
            K, data.draw(st.sampled_from([1.0, 1.5])), data.draw(st.sampled_from([0.0, 0.5]))
        )
        _route_decisions(ExtendedMetric(K, vm), x, y)

    def test_pool_pairs_match_the_reference(self):
        for q, K, x, y in pool_queries(("path-fleet",)):
            if q["kind"] == "ext":
                M = ExtendedMetric(K, word_vertex_metric(K))
                assert M.distance_with_witness(x, y) == _reference(M, x, y), q["id"]

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_near_pairs_match_the_reference(self, complex_fleet, data):
        # most weight on an edge or more that two maximal simplices share, some
        # off it: about a quarter reach the search, half of those decided by the ceiling
        name = data.draw(st.sampled_from(sorted(complex_fleet)))
        K = complex_fleet[name]
        M = K.maximal_simplices
        meeting = [(a, b) for a in M for b in M if a != b and len(set(a) & set(b)) >= 2]
        if not meeting:  # a graph, or a lone simplex
            return
        x, y = _near_pair_in(K, data, *data.draw(st.sampled_from(meeting)))
        vm = transformed_word_metric(
            K, data.draw(st.sampled_from([1.0, 1.5])), data.draw(st.sampled_from([0.0, 0.5]))
        )
        ext = ExtendedMetric(K, vm)
        assert ext.distance_with_witness(x, y) == _reference(ext, x, y)

    def test_tie_at_the_ceiling_reports_bilinear(self):
        # 3C * path(x, y) = 4.515625 * 0.125 = bilinear(x, y) exactly at C = tie
        K = rips_complex(cycle_complex(8), 2)
        x = make_point(K, {"c00": 1 / 16, "c01": 15 / 32, "c02": 15 / 32})
        y = make_point(K, {"c01": 15 / 32, "c02": 15 / 32, "c03": 1 / 16})
        word = word_metric(K).matrix
        tie = 1.5052083333333333
        below = math.nextafter(tie, 0.0)
        answers, checked = {}, {}
        for C in (tie, below):
            M = ExtendedMetric(K, validate_vertex_metric(K, word, C=C))
            assert M.vertex.minimal_C == 1.0 < C
            checks = tripwire_log().checks
            answers[C] = M.distance_with_witness(x, y)
            checked[C] = tripwire_log().checks - checks
            assert answers[C] == _reference(M, x, y)
        assert answers[tie] == (0.564453125, "bilinear", None)
        assert answers[below][:2] == (0.5644531249999999, "l1path")
        assert answers[below][2].length == 0.125
        # the ceiling decides the tie, leaving no path result to check against
        # the query's three bounds; just below it the path is solved and checked
        assert checked == {tie: 0, below: 3}

    def test_rounding_near_the_ceiling_matches_the_reference(self):
        # 3C * path(x, y) crosses bilinear(x, y) = 0.48046875 near C = 1.025; on
        # each float C around it the answer is the full min's, so the cutoff
        # takes its rounding from 3C * (total / scale), not from bilinear / 3C
        K = rips_complex(cycle_complex(8), 2)
        x = make_point(K, {"c00": 1 / 32, "c01": 7 / 32, "c02": 24 / 32})
        y = make_point(K, {"c01": 8 / 32, "c02": 20 / 32, "c03": 4 / 32})
        word = word_metric(K).matrix
        C = 1.025
        for _ in range(80):
            C = math.nextafter(C, 0.0)
        branches = set()
        for _ in range(160):
            M = ExtendedMetric(K, validate_vertex_metric(K, word, C=C))
            got = M.distance_with_witness(x, y)
            assert got == _reference(M, x, y), C
            branches.add(got[1])
            C = math.nextafter(C, math.inf)
        assert branches == {"bilinear", "l1path"}

    def test_a_ceiling_at_the_route_and_one_ulp_either_side(self, complex_fleet):
        # bilinear at R / scale, the route's value, and one float to either side: at it and
        # below it the answer is None, above it the route itself
        rng = np.random.default_rng(0)
        routes = 0
        for K in complex_fleet.values():
            table = word_metric(K)
            for _ in range(100):
                x, y = random_point(K, rng), random_point(K, rng)
                if x.key() == y.key():
                    continue
                priced = pathmetric_module._word_transport(table, x, y)
                if pathmetric_module._solve_by_search(K, x, y, priced)._route is None:
                    continue  # a chain answer
                value = vertex_route(K, x, y)[0] / priced.scale
                answers = [
                    _capped(K, x, y, priced, (bilinear, 1.0))
                    for bilinear in (math.nextafter(value, 0.0), value, math.nextafter(value, math.inf))
                ]
                assert answers[:2] == [None, None] and answers[2].value == value, (x, y)
                routes += 1
        assert routes == 849

    @pytest.mark.parametrize("atoms", [60, 61, 64])
    def test_the_route_decides_large_supports(self, monkeypatch, atoms):
        # the route's R decides whatever the supports' size: no witness is built
        calls = []
        route_rows = pathmetric_module._route_rows

        def record(*args):
            calls.append(sys._getframe(1).f_code.co_name)
            return route_rows(*args)

        monkeypatch.setattr(pathmetric_module, "_route_rows", record)
        K = simplex_on_a_path(64, 10)
        x = make_point(K, {f"s{i:02d}": 1.0 for i in range(atoms)})
        y = vertex_point(K, "p10")
        priced = pathmetric_module._word_transport(word_metric(K), x, y)
        ceiling = (bilinear_extension(word_vertex_metric(K), x, y), 3.0)
        got = _capped(K, x, y, priced, ceiling)
        assert calls.count("_solve_by_search") == 0 and got is None


def _l1path_below_bilinear(M, x, y):
    """Whether ext(x, y) took the l1path branch; if so, its value is 3C * path and below D."""
    value, branch = M.distance_with_branch(x, y)
    if branch == "l1path":
        bilinear = bilinear_extension(M.vertex, x, y)
        assert value == M.scale * l1_path_distance(M.K, x, y).value < bilinear
    return branch == "l1path"


class TestL1PathBelowBilinear:
    """Every path that reaches the l1path answer has 3C * path < D; the answer compares nothing more."""

    def test_pool_and_seeded_near_pairs(self, complex_fleet):
        # under the word metric and one transformed metric; the pool's pairs
        # all settle on the bilinear branch, so near pairs on the fleet, some in
        # one simplex and some reaching the search, give the l1path answers
        for q, K, x, y in pool_queries():
            for vm in (word_vertex_metric(K), transformed_word_metric(K, 1.5, 0.5)):
                assert not _l1path_below_bilinear(ExtendedMetric(K, vm), x, y), q["id"]
        rng = np.random.default_rng(0)
        found = {"common simplex": 0, "search": 0}
        for K in complex_fleet.values():
            S = K.maximal_simplices
            meeting = [(a, b) for a in S for b in S if len(set(a) & set(b)) >= 2]
            for vm in (word_vertex_metric(K), transformed_word_metric(K, 1.5, 0.5)):
                M = ExtendedMetric(K, vm)
                for a, b in (meeting[i] for i in rng.integers(len(meeting), size=40) if meeting):
                    x, y = (
                        make_point(K, {
                            v: int(rng.integers(8, 33)) if v in a and v in b else int(rng.integers(0, 9))
                            for v in s
                        })
                        for s in (a, b)
                    )
                    if _l1path_below_bilinear(M, x, y):
                        found["common simplex" if common_simplex(K, x, y) else "search"] += 1
        assert found == {"common simplex": 468, "search": 17}

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_near_pairs(self, complex_fleet, data):
        K = complex_fleet[data.draw(st.sampled_from(sorted(complex_fleet)))]
        S = K.maximal_simplices
        meeting = [(a, b) for a in S for b in S if len(set(a) & set(b)) >= 2]
        if not meeting:
            return
        x, y = _near_pair_in(K, data, *data.draw(st.sampled_from(meeting)))
        vm = transformed_word_metric(
            K, data.draw(st.sampled_from([1.0, 1.5])), data.draw(st.sampled_from([0.0, 0.5]))
        )
        _l1path_below_bilinear(ExtendedMetric(K, vm), x, y)


def _bounds_first(M, x, y):
    """The answer when common_simplex and every bound are computed before the floor test.

    For pairs that share a support vertex and are not both vertices or equal:
    the order in which the extension decided them before it tested the
    coordinate bound on its own.
    """
    bilinear = bilinear_extension(M.vertex, x, y)
    carrier = common_simplex(M.K, x, y)
    if carrier is not None:
        value = simplex_l1(x, y)
        path = PathResult(value, PathWitness(points=(x, y), rows=(carrier,), length=value))
    else:
        priced = pathmetric_module._word_transport(word_metric(M.K), x, y)
        if M.scale * max(v for _, v in pathmetric_module.query_bounds(x, y, priced.total / priced.scale)) >= bilinear:
            return (bilinear, "bilinear", None)
        path = pathmetric_module._solve_by_search(M.K, x, y, priced, ceiling=(bilinear, M.scale))
        if path is None:
            return (bilinear, "bilinear", None)
    scaled = M.scale * path.value
    if bilinear <= scaled:
        return (bilinear, "bilinear", None)
    return (scaled, "l1path", path.witness)


def _reaches_the_floor(x, y):
    """Whether the extension decides x, y past its early returns (equal, two vertices, disjoint)."""
    return x.key() != y.key() and not (x.is_vertex and y.is_vertex) and bool(set(x.support) & set(y.support))


def _count_lookups(mp):
    """Record each call of common_simplex, _word_transport and query_bounds, by name."""
    calls = []
    for module, name in [
        (pathmetric_module, "common_simplex"),
        (pathmetric_module, "_word_transport"),
        (pathmetric_module, "query_bounds"),
    ]:
        f = getattr(module, name)
        mp.setattr(module, name, lambda *args, f=f, name=name: calls.append(name) or f(*args))
    return calls


def _floor_and_lookups(K, vm, x, y, calls):
    """(whether the coordinate floor decides x, y; the lookups a fresh extension made for it)."""
    M = ExtendedMetric(K, vm)
    calls.clear()
    value, branch = M.distance_with_branch(x, y)
    floored = M.scale * simplex_l1(x, y) >= bilinear_extension(vm, x, y)
    assert not floored or (value, branch) == (bilinear_extension(vm, x, y), "bilinear")
    return floored, list(calls)


def _near_pair(K, a, b, count):
    """Points on maximal simplices a and b, with count(lo, hi) weight in [lo, hi] on each vertex.

    Every vertex a and b share gets weight 1 to 32, so the supports share it;
    the others 0 to 8.  With a == b, or all other weights 0, the pair shares a simplex.
    """
    def near(simplex):
        return make_point(K, {v: count(1, 32) if v in a and v in b else count(0, 8) for v in simplex})

    return near(a), near(b)


def _meeting(K):
    """Pairs of maximal simplices of K that share a vertex, each simplex with itself included."""
    M = K.maximal_simplices
    return [(a, b) for a in M for b in M if set(a) & set(b)]


def _shared_vertex_pair(K, data):
    a, b = data.draw(st.sampled_from(_meeting(K)))
    return _near_pair(K, a, b, lambda lo, hi: data.draw(st.integers(lo, hi)))


class TestCoordinateFloor:
    """The coordinate bound is tested alone first; answers are the ones of the bounds-first order."""

    def test_the_floor_skips_the_lookups_on_the_tree_pool(self, monkeypatch):
        calls = _count_lookups(monkeypatch)
        vm, floored = None, 0
        for q, K, x, y in itertools.islice(pool_queries(("big-tree",)), 600):
            vm = vm or word_vertex_metric(K)
            assert _reaches_the_floor(x, y), q["id"]
            decided, lookups = _floor_and_lookups(K, vm, x, y, calls)
            assert lookups == [] if decided else lookups[0] == "common_simplex", q["id"]
            floored += decided
        assert floored == 600  # as on the benchmark's big-tree pass: the coordinate decides every one

    def test_the_floor_skips_the_lookups_on_the_fleet(self, complex_fleet, monkeypatch):
        calls = _count_lookups(monkeypatch)
        rng = np.random.default_rng(7)
        count = lambda lo, hi: int(rng.integers(lo, hi + 1))
        floored = searched = 0
        for K in complex_fleet.values():
            vm = word_vertex_metric(K)
            for a, b in _meeting(K)[:60]:
                x, y = _near_pair(K, a, b, count)
                if _reaches_the_floor(x, y):
                    decided, lookups = _floor_and_lookups(K, vm, x, y, calls)
                    assert lookups == [] if decided else lookups[0] == "common_simplex"
                    floored += decided
                    searched += "_word_transport" in lookups
        assert floored > 0 and searched > 0

    def test_pool_pairs_match_the_bounds_first_order(self):
        for q, K, x, y in pool_queries(("path-fleet",)):
            if q["kind"] == "ext" and _reaches_the_floor(x, y):
                vm = word_vertex_metric(K)
                value, branch, witness = ExtendedMetric(K, vm).distance_with_witness(x, y)
                want = _bounds_first(ExtendedMetric(K, vm), x, y)
                assert (value.hex(), branch, witness) == (want[0].hex(), *want[1:]), q["id"]

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_shared_vertex_pairs(self, complex_fleet, data):
        # a pair the coordinate floor decides makes no lookup, and every answer is
        # the bounds-first one; a == b, or zero weight off the shared face, shares a simplex
        K = complex_fleet[data.draw(st.sampled_from(sorted(complex_fleet)))]
        x, y = _shared_vertex_pair(K, data)
        if not _reaches_the_floor(x, y):
            return
        vm = transformed_word_metric(K, data.draw(st.sampled_from([1.0, 1.5])), data.draw(st.sampled_from([0.0, 0.5])))
        with pytest.MonkeyPatch.context() as mp:
            decided, lookups = _floor_and_lookups(K, vm, x, y, _count_lookups(mp))
        assert lookups == [] if decided else lookups[0] == "common_simplex"
        value, branch, witness = ExtendedMetric(K, vm).distance_with_witness(x, y)
        want = _bounds_first(ExtendedMetric(K, vm), x, y)
        assert (value.hex(), branch, witness) == (want[0].hex(), *want[1:])


def _dyadic(K, counts):
    """The point with weights proportional to counts, which sum to a power of two."""
    total = sum(counts.values())
    return make_point(K, {v: c / total for v, c in counts.items()})


class TestSimplexOnAPath:
    """A 24-vertex simplex glued to a path: 2^24 - 1 faces, none of them stored."""

    # (x, y, path distance): every path crosses the glue vertex s23 unless x, y share a simplex
    QUERIES = [
        ({f"s{i:02d}": 1 for i in range(16)}, {"s23": 1, "p01": 1}, 1.5),
        (
            {**{f"s{i:02d}": 2 for i in range(8)}, **{f"s{i:02d}": 1 for i in range(8, 24)}},
            {"p01": 1, "p02": 3},
            (1 - 1 / 32) + 1 + 0.75,
        ),
        ({"s05": 1}, {"p03": 1, "p04": 1}, 4.5),
        ({"s22": 1, "s23": 3}, {"s23": 3, "p01": 1}, 0.5),
        ({"s00": 16, "s01": 16}, {"s00": 15, "s01": 17}, 1 / 32),
    ]

    def test_path_and_extension_queries(self):
        K = simplex_on_a_path(24, 10)
        assert K.dimension == 23 and len(K.maximal_simplices) == 11
        M = ExtendedMetric(K, word_vertex_metric(K))
        branches = []
        for xc, yc, want in self.QUERIES:
            x, y = _dyadic(K, xc), _dyadic(K, yc)
            floor = max(v for _, v in lower_bounds(K, x, y))
            path = l1_path_distance(K, x, y)
            path.witness.validate(K)
            assert path.value == pytest.approx(want, abs=1e-12)
            assert path.value >= floor - 1e-12
            value, branch, witness = got = M.distance_with_witness(x, y)
            assert got == _reference(M, x, y)
            assert value >= min(bilinear_extension(M.vertex, x, y), M.scale * floor) - 1e-12
            if witness is not None:
                witness.validate(K)
                assert value == M.scale * witness.length
            branches.append(branch)
        assert branches == ["bilinear"] * 4 + ["l1path"]


def simplex_l1_local(x, y):
    keys = set(x.weights) | set(y.weights)
    return 0.5 * sum(abs(x.get(v) - y.get(v)) for v in keys)


class TestSandwich:
    def test_two_sided_bound(self, book, rng):
        vm = transformed_word_metric(book, scale=1.25, saturation=0.8)
        M = ExtendedMetric(book, vm)
        assert M.sandwich_width == pytest.approx(2.0 * (1.25 + 0.8))
        for _ in range(80):
            x, y = random_point(book, rng), random_point(book, rng)
            res = sandwich_check(M, x, y)
            assert res.passed, res.message

    def test_requires_constants(self, book):
        vm = word_vertex_metric(book)
        without_qi = type(vm)(K=vm.K, matrix=vm.matrix, C=vm.C, minimal_C=vm.minimal_C, A=None, B=None)
        M = ExtendedMetric(book, without_qi)
        with pytest.raises(MissingQIConstants):
            sandwich_check(M, vertex_point(book, "a"), vertex_point(book, "b"))


class TestDoubleDifferenceExt:
    def test_identities_at_arbitrary_points(self, book, rng):
        M = ExtendedMetric(book, transformed_word_metric(book, 1.2, 0.4))
        dd = partial(double_difference, M.distance)
        for _ in range(120):
            a, a2, a3, b, b2 = (random_point(book, rng) for _ in range(5))
            assert dd(a, a2, b, b2) == pytest.approx(dd(b, b2, a, a2), abs=1e-9)
            assert dd(a, a2, b, b2) == pytest.approx(-dd(a2, a, b, b2), abs=1e-9)
            assert dd(a, a2, b, b2) == pytest.approx(-dd(a, a2, b2, b), abs=1e-9)
            assert dd(a, a, b, b2) == 0.0 and dd(a, a2, b, b) == 0.0
            assert dd(a, a2, b, b2) + dd(a2, a3, b, b2) == pytest.approx(
                dd(a, a3, b, b2), abs=1e-9
            )
            assert dd(a, b, a3, b2) + dd(a3, a, b, b2) + dd(b, a3, a, b2) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_four_bprime_window(self, book, rng):
        vm = transformed_word_metric(book, 1.25, 0.8)
        M = ExtendedMetric(book, vm)
        window = 4.0 * M.sandwich_width
        bilinear = partial(bilinear_extension, vm)
        for _ in range(80):
            quad = [random_point(book, rng) for _ in range(4)]
            gap = abs(double_difference(M.distance, *quad) - double_difference(bilinear, *quad))
            assert gap <= window + 1e-9

    def test_gp_consistency(self, book, rng):
        M = ExtendedMetric(book, word_vertex_metric(book))
        for _ in range(120):
            a, b, c = (random_point(book, rng) for _ in range(3))
            gp = gromov_product(M.distance, a, b, c)
            assert gp == pytest.approx(double_difference(M.distance, c, a, b, c), abs=1e-9)
            assert gp >= -1e-9

    def test_gp_at_base_zero(self, book):
        M = ExtendedMetric(book, word_vertex_metric(book))
        a = vertex_point(book, "a")
        b = vertex_point(book, "b")
        assert gromov_product(M.distance, a, b, a) == 0.0

    def test_vertex_triples_match_vertex_layer(self, book):
        vm = transformed_word_metric(book, 1.5, 0.0)
        M = ExtendedMetric(book, vm)
        for a, b, c in itertools.permutations(range(len(book.vertices)), 3):
            got = gromov_product(M.distance, *(vertex_point(book, book.vertices[i]) for i in (a, b, c)))
            assert got == pytest.approx(gromov_product(vm.distance, a, b, c), abs=1e-12)


def geodesic_defect(M, samples):
    """Largest additivity defect of the extension along word-metric geodesics.

    Considers sampled vertex triples (u, w, v) of labels with w on a
    shortest edge path from u to v and returns max |d(u,v) - d(u,w) - d(w,v)|.
    Triples where w is not on a geodesic are skipped.
    """
    word = word_metric(M.K)
    vm = M.vertex
    index = M.K.index
    worst = 0.0
    for u, w, v in ([index[s] for s in labels] for labels in samples):
        if word.distance(u, w) + word.distance(w, v) != word.distance(u, v):
            continue
        defect = abs(vm.distance(u, v) - vm.distance(u, w) - vm.distance(w, v))
        worst = max(worst, defect)
    return worst


class TestGeodesicDefect:
    def test_word_metric_has_zero_defect(self):
        K = tree_complex(2, 4)
        M = ExtendedMetric(K, word_vertex_metric(K))
        triples = [
            (u, w, v)
            for u, w, v in itertools.permutations(K.vertices, 3)
        ]
        assert geodesic_defect(M, triples[:5000]) == 0.0

    def test_cycle_word_metric_zero(self):
        K = cycle_complex(8)
        M = ExtendedMetric(K, word_vertex_metric(K))
        rng = np.random.default_rng(7)
        assert geodesic_defect(M, sample_geodesic_triples(K, rng, 200)) == 0.0

    def test_perturbed_metric_defect_bounded(self):
        K = cycle_complex(9)
        vm = transformed_word_metric(K, scale=1.0, saturation=0.9)
        M = ExtendedMetric(K, vm)
        rng = np.random.default_rng(8)
        defect = geodesic_defect(M, sample_geodesic_triples(K, rng, 300))
        # the saturation term is bounded by 0.9, so the additivity defect is too
        assert 0.0 <= defect <= 0.9 + 1e-9


class TestAutomorphismInvariance:
    def test_tree_reflection(self):
        K = tree_complex(2, 3)
        vm = word_vertex_metric(K)
        M = ExtendedMetric(K, vm)
        g = tree_reflection(K, 2)
        rng = np.random.default_rng(9)
        for _ in range(30):
            pts = [random_point(K, rng) for _ in range(4)]
            gpts = [apply_automorphism(K, g, p) for p in pts]
            assert M.distance(pts[0], pts[1]) == pytest.approx(
                M.distance(gpts[0], gpts[1]), abs=1e-12
            )
            assert double_difference(M.distance, *pts) == pytest.approx(
                double_difference(M.distance, *gpts), abs=1e-12
            )
