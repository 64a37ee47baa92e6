"""Complex construction, barycentric points, per-simplex l1 metric."""

import math
import pickle
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricext import (
    BarycentricPoint,
    DuplicateVertex,
    EmptySimplex,
    MetricExtError,
    NegativeWeight,
    NotAnAutomorphism,
    SupportNotASimplex,
    UnknownVertexInSimplex,
    WeightsNotNormalizable,
    apply_automorphism,
    build_complex,
    common_simplex,
    make_automorphism,
    make_point,
    simplex_l1,
    vertex_point,
)
from metricext import ExtendedMetric, l1_path_distance, pathmetric, word_metric, word_vertex_metric
from metricext.pathmetric import Chain, chain_lp
from metricext.checks import find_nontrivial_automorphism
from metricext.complexes import WEIGHT_FLOOR, Automorphism
from metricext.fileio import point_from_json
from metricext.generators import (
    cycle_complex,
    grid_point,
    path_complex,
    random_point,
    rips_complex,
    tree_complex,
)

from conftest import (
    all_faces,
    assert_identity_is_the_labels,
    assert_same_complex,
    assert_spans_is_membership,
    id_rows,
    incidence,
    reference_build_complex,
    search,
)


def spanned(K):
    """Every vertex subset K.spans, as sorted tuples."""
    return {t for k in range(len(K.vertices) + 1) for t in combinations(K.vertices, k) if K.spans(t)}


def assert_id_tables_are_the_dicts(K):
    """The int32 CSR tables hold, by id, what the label views hold by label, in the same order.

    Incidence is checked against a scan of the maximal simplices, and each
    row as `row` reads it, kept after its first read, against the arrays.
    """
    vs = K.vertices
    assert K.index == {v: i for i, v in enumerate(vs)}
    for rows, want in [
        (K.simplex_csr, [[K.index[v] for v in s] for s in K.maximal_simplices]),
        (K.incidence_csr, [[i for i, s in enumerate(K.maximal_simplices) if v in s] for v in vs]),
        (K.adjacency_csr, [[K.index[w] for w in K.adjacency[v]] for v in vs]),
    ]:
        assert rows.indptr.dtype == rows.indices.dtype == np.int32
        ptr, ids = rows.indptr.tolist(), rows.indices.tolist()
        assert [ids[a:b] for a, b in zip(ptr, ptr[1:])] == want
        assert [rows.row(i) for i in range(len(rows))] == [tuple(r) for r in want]
        assert all(type(w) is int for i in range(len(rows)) for w in rows.row(i))
        assert all(rows.row(i) is rows.row(i) for i in range(len(rows)))
    assert list(K.adjacency) == list(vs)


class TestBuildComplex:
    def test_triangle_closure(self):
        K = build_complex(["a", "b", "c"], [["a", "b", "c"]])
        assert spanned(K) == {
            ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"), ("a", "b", "c")
        }
        assert K.dimension == 2
        assert K.maximal_simplices == (("a", "b", "c"),)

    def test_single_vertex(self):
        K = build_complex(["a"], [["a"]])
        assert spanned(K) == {("a",)}
        assert K.dimension == 0

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexInSimplex):
            build_complex(["a", "b"], [["a", "c"]])

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertex):
            build_complex(["a", "a"], [["a"]])

    def test_empty_simplex(self):
        with pytest.raises(EmptySimplex):
            build_complex(["a"], [[]])

    def test_listed_faces_absorbed(self):
        K = build_complex(["a", "b", "c"], [["a", "b"], ["a", "b", "c"]])
        assert K.maximal_simplices == (("a", "b", "c"),)

    def test_uncovered_vertex_becomes_zero_simplex(self):
        K = build_complex(["a", "b", "c"], [["a", "b"]])
        assert ("c",) in K.maximal_simplices

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_indexed_maximality_matches_the_pairwise_scan(self, data):
        vs = [f"v{i}" for i in range(data.draw(st.integers(1, 9), label="n"))]
        listed = data.draw(
            st.lists(st.lists(st.sampled_from(vs), min_size=1, max_size=5), max_size=12),
            label="listed",
        )
        # repeats and nested faces of listed simplices, in any vertex order
        if listed:
            for s in data.draw(st.lists(st.sampled_from(listed), max_size=4), label="again"):
                listed.append(list(reversed(s)))
                listed.append(s[: data.draw(st.integers(1, len(s)), label="face")])
        K = build_complex(data.draw(st.permutations(vs), label="order"), listed)
        # the same list shuffled, each simplex reversed, is the same complex; another list
        # on the same vertices is equal exactly when its maximal simplices are
        shuffled = [list(reversed(s)) for s in data.draw(st.permutations(listed), label="shuffled")]
        again = data.draw(st.permutations(vs), label="again order")
        assert_identity_is_the_labels(build_complex(again, shuffled), K)
        other = data.draw(
            st.lists(st.lists(st.sampled_from(vs), min_size=1, max_size=5), max_size=12), label="other"
        )
        assert_identity_is_the_labels(build_complex(vs, other), K)

        canon = [tuple(sorted(set(s))) for s in listed]
        canon += [(v,) for v in vs if not any(v in s for s in canon)]
        want = sorted(
            {s for s in canon if not any(set(s) < set(t) for t in canon)},
            key=lambda s: (len(s), s),
        )
        assert K.vertices == tuple(sorted(vs))
        assert K.maximal_simplices == tuple(want)
        faces = {f for s in want for k in range(1, len(s) + 1) for f in combinations(s, k)}
        assert spanned(K) == faces
        assert_spans_is_membership(K)
        assert incidence(K) == {
            v: tuple(i for i, s in enumerate(want) if v in s) for v in K.vertices
        }
        assert K.adjacency == {
            v: tuple(w for w in K.vertices if w != v and tuple(sorted((v, w))) in faces)
            for v in K.vertices
        }
        assert_id_tables_are_the_dicts(K)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bulk_build_equals_the_list_built_reference(self, data):
        vs = [f"v{i}" for i in range(data.draw(st.integers(0, 8), label="n"))]
        vertices = data.draw(st.permutations(vs), label="order")
        if vs and data.draw(st.booleans(), label="repeat a vertex"):
            at = data.draw(st.integers(0, len(vertices)), label="at")
            vertices.insert(at, data.draw(st.sampled_from(vs), label="repeated"))
        # simplices of one or several sizes, with repeated labels inside a simplex
        simplex = st.lists(st.sampled_from(vs), min_size=1, max_size=5)
        listed = data.draw(st.lists(simplex, max_size=10), label="listed") if vs else []
        if listed:
            # faces of listed simplices, and copies of them in another vertex order
            for s in data.draw(st.lists(st.sampled_from(listed), max_size=6), label="again"):
                listed.append(data.draw(st.permutations(s), label="copy"))
                listed.append(s[: data.draw(st.integers(1, len(s)), label="face")])
        listed = data.draw(st.permutations(listed), label="shuffled")
        # empty and unknown-label simplices, anywhere: the first offender is reported
        bad = st.sampled_from([[], ["x"], ["v0", "y"], ["z", "z"]])
        for s in data.draw(st.lists(bad, max_size=3), label="bad"):
            listed.insert(data.draw(st.integers(0, len(listed)), label="at"), list(s))

        def outcome(build):
            try:
                return build(vertices, listed)
            except MetricExtError as exc:
                return type(exc), str(exc)

        got, want = outcome(build_complex), outcome(reference_build_complex)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_complex(got, want)
            # the same input in another order builds an equal complex, with an equal hash
            again = build_complex(vertices[::-1], data.draw(st.permutations(listed), label="reshuffled"))
            assert_identity_is_the_labels(again, got)

    def test_adjacency_is_simple_graph(self, book):
        for v, ns in book.adjacency.items():
            assert v not in ns
            assert len(ns) == len(set(ns))

    def test_maximal_containing_matches_scan(self, complex_fleet):
        for K in complex_fleet.values():
            for s in sorted(all_faces(K))[:60]:
                want = [i for i, m in enumerate(K.maximal_simplices) if set(s) <= set(m)]
                assert K.maximal_indices_containing(tuple([K.index[v] for v in s])) == want
            assert K.maximal_indices_containing([]) == list(range(len(K.maximal_simplices)))

    def test_spans_is_face_membership(self, complex_fleet):
        for K in complex_fleet.values():
            assert_spans_is_membership(K)

    def test_holds_is_spans_on_the_fleet(self, complex_fleet):
        # the one face test: spans is holds of the labels' ids, on every vertex subset of at
        # most four vertices, faces and non-faces, with the ids ascending and descending
        for K in complex_fleet.values():
            faces = all_faces(K)
            asked = [0, 0]
            for k in range(5):
                for t in combinations(K.vertices, k):
                    ids = tuple([K.index[v] for v in t])
                    assert K.holds(ids) == K.spans(t) == (t in faces), t
                    assert K.holds(ids[::-1]) == K.spans(t[::-1]) == (t in faces), t
                    asked[t in faces] += 1
            assert asked[0] and asked[1]

    def test_incidence_is_not_part_of_identity(self, book):
        same = build_complex(list(book.vertices), book.maximal_simplices)
        assert same == book and hash(same) == hash(book)
        held = [book.maximal_simplices[i] for i in incidence(book)["b"]]
        assert held == [("a", "b", "c"), ("b", "c", "d")]


class TestIdTables:
    # the hypothesis lists are checked in TestBuildComplex::test_indexed_maximality_matches_the_pairwise_scan
    def test_tables_are_the_dicts_on_the_fleet(self, complex_fleet):
        for K in complex_fleet.values():
            assert_id_tables_are_the_dicts(K)

    def test_identity_is_the_label_comparison_on_the_fleet(self, complex_fleet):
        # equality and hash read the id rows; they agree with comparing labels and label
        # tuples, between fleet members, against rebuilds from shuffled input, and against
        # the same vertices with the last maximal simplex dropped or another one added
        rng = np.random.default_rng(3)
        built = list(complex_fleet.values())
        for K in complex_fleet.values():
            vs, listed = list(K.vertices), [list(s) for s in K.maximal_simplices]
            rng.shuffle(vs)
            rng.shuffle(listed)
            built.append(build_complex(vs, [s[::-1] for s in listed]))
            built.append(build_complex(K.vertices, K.maximal_simplices[:-1]))
            built.append(build_complex(K.vertices, [*K.maximal_simplices, K.vertices[:2]]))
        for K, L in combinations(built, 2):
            assert_identity_is_the_labels(K, L)
        assert sum(K == L for K, L in combinations(built, 2)) >= len(complex_fleet)

    @pytest.mark.parametrize("make, near, far", [
        (
            lambda: tree_complex(2, 11),
            ({"t0003": 0.25, "t0007": 0.75}, {"t0003": 0.5, "t0008": 0.5}),
            ({"t0003": 0.5, "t0007": 0.5}, {"t0005": 0.25, "t0011": 0.75}),
        ),
        (
            lambda: rips_complex(cycle_complex(30), 2),
            ({"c00": 0.25, "c01": 0.375, "c02": 0.375}, {"c01": 0.375, "c02": 0.375, "c03": 0.25}),
            None,
        ),
    ], ids=["tree", "rips"])
    def test_labels_stay_off_the_query_path(self, make, near, far, monkeypatch):
        # neither the label dicts nor the maximal simplices' label tuples are built by
        # near and far queries, chain answers or spans on three labels; and once the
        # points are made, the queries and their witnesses look up no label
        searched = []
        best_first = pathmetric._best_first
        monkeypatch.setattr(pathmetric, "_best_first", lambda *args: searched.append(args) or best_first(*args))
        K = make()
        metric = word_vertex_metric(K)
        M = ExtendedMetric(K, metric)
        x, y = (make_point(K, w) for w in near)
        fx, fy = (make_point(K, w) for w in far) if far is not None else (None, None)
        index = _LookupLog(K.index)
        monkeypatch.setitem(vars(K), "index", index)
        near_answer = l1_path_distance(K, x, y)
        M.distance(x, y)
        if far is not None:
            # a tree's bounds decide its queries, so the search is given an incumbent above the value
            value = l1_path_distance(K, fx, fy)[0]
            assert search(K, fx, fy, word_metric(K), value + 0.5) is not None
        assert searched
        # the Rips pair's answer is a chain, which builds its witness from ids when it is read,
        # and every witness looks no label up
        assert not index.stacks
        chain = near_answer._route is None
        assert chain == (far is None)
        near_answer.witness.validate(K)
        assert not index.stacks
        triangle = K.vertices[:3]
        assert K.spans(triangle) == (K.dimension == 2)
        assert not K.spans((*triangle, "no such vertex"))
        assert "adjacency" not in vars(K) and "incidence" not in vars(K)
        assert "maximal_simplices" not in vars(K)

class _LookupLog(dict):
    """A label -> id dict that records the names of the functions on the stack at each lookup."""

    def __init__(self, index):
        super().__init__(index)
        self.stacks = []

    def _record(self):
        frame, names = sys._getframe(2), []
        while frame is not None:
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        self.stacks.append(names)

    def __getitem__(self, key):
        self._record()
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._record()
        return super().get(key, default)

    def __contains__(self, key):
        self._record()
        return super().__contains__(key)


def _dict_make_point(K, weights):
    """make_point as it once normalised, through three dicts: the bit-for-bit reference."""
    for v, w in weights.items():
        if w < 0:
            raise NegativeWeight(f"weight of {v!r} is negative ({w})")
        if not math.isfinite(w):
            raise WeightsNotNormalizable(f"weight of {v!r} is not a finite number ({w})")
    kept = {v: float(w) for v, w in weights.items() if w >= WEIGHT_FLOOR}
    total = sum(kept[v] for v in sorted(kept))
    if math.isinf(total):
        top = max(kept.values())
        kept = {v: w / top for v, w in kept.items()}
        total = sum(kept[v] for v in sorted(kept))
    if total <= 0:
        raise WeightsNotNormalizable(f"weights sum to {total}, cannot normalize")
    normalized = {v: w / total for v, w in kept.items()}
    again = {v: w for v, w in normalized.items() if w >= WEIGHT_FLOOR}
    if len(again) != len(normalized):
        total = sum(again[v] for v in sorted(again))
        if total <= 0:
            raise WeightsNotNormalizable("all weight below representable floor")
        normalized = {v: w / total for v, w in again.items()}
    support = tuple(sorted(normalized))
    if support not in all_faces(K):
        raise SupportNotASimplex(f"support {support} does not span a simplex")
    return BarycentricPoint(tuple((K.vertices.index(v), normalized[v]) for v in support), K.vertices)


def _made(make, K, weights):
    """A point's labels and weight bits, or the error's type and message."""
    try:
        p = make(K, weights)
    except MetricExtError as exc:
        return type(exc), str(exc)
    return [(v, w.hex()) for v, w in p.items], p.support


# weights that reach every branch: dropped under the floor, dropped only after
# renormalising, sums that overflow, and each rejected value
SPECIAL_WEIGHTS = [0.0, -0.0, 9e-13, 1e-12, 1.5e-12, 3e-12, 1e308, 1.5e308, math.nan, math.inf, -1.0, -1e-300]


class TestMakePoint:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_the_dict_normaliser_bit_for_bit(self, complex_fleet, data):
        K = complex_fleet[data.draw(st.sampled_from(sorted(complex_fleet)), label="complex")]
        sigma = data.draw(st.sampled_from(K.maximal_simplices), label="sigma")
        labels = data.draw(st.lists(st.sampled_from(K.vertices), min_size=1, max_size=4, unique=True)
                           if data.draw(st.booleans(), label="anywhere")
                           else st.permutations(sigma), label="labels")
        weight = st.one_of(
            st.floats(0.0, 4.0),
            st.floats(1e-13, 1e-11),
            st.floats(1e300, 1.7e308),
            st.sampled_from(SPECIAL_WEIGHTS),
        )
        weights = {v: data.draw(weight, label=v) for v in labels}
        assert _made(make_point, K, weights) == _made(_dict_make_point, K, weights)

    @pytest.mark.parametrize("weights", [
        {"u": 2.0, "v": 1.5e-12},  # v survives the floor, then falls under it after normalising
        {"v": 1.5e-12, "u": 3.0, "w": 0.0},
        {"u": 1e308, "v": 1.5e308},  # the sum overflows: scaled by the largest first
        {"u": 1.7e308, "v": 1.7e308, "w": 1e-12},
        {"u": -0.1, "v": 1.1},
        {"u": math.nan, "v": -1.0},
        {"u": 1.0, "v": math.inf},
        {"u": 0.0, "v": 9e-13},
        {},
        {"u": 0.5, "w": 0.5},
        {"zz": 1.0},
    ])
    def test_each_branch_matches_the_dict_normaliser(self, path3, weights):
        assert _made(make_point, path3, weights) == _made(_dict_make_point, path3, weights)

    def test_midpoint(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        assert x.weights == {"u": 0.5, "v": 0.5}
        assert x.support == ("u", "v")

    def test_vertex_case(self, path3):
        x = make_point(path3, {"u": 1.0})
        assert x.is_vertex and x.support == ("u",)

    def test_support_not_a_simplex(self, path3):
        with pytest.raises(SupportNotASimplex):
            make_point(path3, {"u": 0.5, "w": 0.5})

    def test_negative_weight(self, path3):
        with pytest.raises(NegativeWeight):
            make_point(path3, {"u": -0.1, "v": 1.1})

    def test_not_normalizable(self, path3):
        with pytest.raises(WeightsNotNormalizable):
            make_point(path3, {"u": 0.0})

    def test_renormalization(self, path3):
        x = make_point(path3, {"u": 2.0, "v": 6.0})
        assert math.isclose(x.get("u"), 0.25)
        assert math.isclose(sum(w for _, w in x.items), 1.0, abs_tol=1e-15)

    def test_tiny_weights_dropped(self, triangle):
        x = make_point(triangle, {"a": 0.5, "b": 0.5, "c": 1e-15})
        assert x.support == ("a", "b")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, path3, bad):
        # NaN fails both `w < 0` and `w >= WEIGHT_FLOOR`; it must not be dropped silently
        with pytest.raises(WeightsNotNormalizable):
            make_point(path3, {"u": bad, "v": 1.0})
        with pytest.raises(WeightsNotNormalizable):
            make_point(path3, {"u": bad})

    def test_overflowing_sum_is_scaled_first(self, path3):
        huge = make_point(path3, {"u": 1e308, "v": 1e308})
        assert huge == make_point(path3, {"u": 1.0, "v": 1.0})
        x = make_point(path3, {"u": 1e308, "v": 1.5e308})
        assert x.support == ("u", "v")
        assert math.isclose(x.get("u"), 0.4) and math.isclose(x.get("v"), 0.6)


class TestPointLayer:
    def test_vertex_point_is_the_normalized_vertex(self, complex_fleet):
        for K in complex_fleet.values():
            for v in K.vertices:
                p, q = vertex_point(K, v), make_point(K, {v: 1.0})
                assert p == q and p.items == q.items and p.support == q.support == (v,)
                assert type(p.items[0][1]) is float

    def test_vertex_point_rejects_unknown_labels(self, path3):
        with pytest.raises(SupportNotASimplex):
            vertex_point(path3, "zz")

    def test_support_is_stored_and_not_part_of_identity(self, triangle):
        # a point stores its (vertex id, weight) pairs; ids and the label views are derived, and
        # equality, hash and repr read the pairs, never the complex's vertices they point into
        pairs = ((0, 0.25), (2, 0.75))
        p, q = BarycentricPoint(pairs, triangle.vertices), BarycentricPoint(tuple(list(pairs)), triangle.vertices)
        assert p.pairs is not q.pairs
        assert p == q and hash(p) == hash(q) and p.key() == pairs
        assert p.ids == (0, 2) and type(p.ids) is tuple
        assert "support" not in vars(p) and "items" not in vars(p)
        assert p.support == ("a", "c") and type(p.support) is tuple and p.support is p.support
        assert p.items == (("a", 0.25), ("c", 0.75)) and p.items is p.items
        assert p.get("c") == 0.75 and p.get("b") == 0.0
        assert repr(p) == "Point(a:0.25, c:0.75)" and "support" not in repr(p)
        assert p == make_point(triangle, {"a": 1.0, "c": 3.0})
        assert p == BarycentricPoint(pairs, ("x", "y", "z"))  # a point is used only with its own complex
        back = pickle.loads(pickle.dumps(p))
        assert back == p and back.support == p.support and back.ids == p.ids
        weights = p.weights
        weights["b"] = 1.0  # a fresh dict: changing it changes no point
        assert p.weights == {"a": 0.25, "c": 0.75}

    def test_points_carry_their_ids_from_every_constructor(self, complex_fleet, strip):
        # ids are resolved where a point is made: make_point (so the samplers and the file
        # reader), vertex_point, apply_automorphism and chain_lp's breakpoints
        rng = np.random.default_rng(4)
        x, y = make_point(strip, {"a": 0.5, "b": 0.5}), make_point(strip, {"d": 0.25, "e": 0.75})
        chain = Chain(simplices=id_rows(strip, [("a", "b", "c"), ("b", "c", "d"), ("c", "d", "e")]))
        made = [(strip, p) for p in chain_lp(strip, chain, x, y)[1]]
        assert len(made) == 2
        for K in complex_fleet.values():
            points = [vertex_point(K, v) for v in K.vertices]
            points += [random_point(K, rng) for _ in range(20)]
            points += [grid_point(K, rng, 8) for _ in range(10)]
            points += [point_from_json(K, {v: 1.0 for v in s}) for s in K.maximal_simplices]
            g = find_nontrivial_automorphism(K)
            if g is not None:
                points += [apply_automorphism(K, g, p) for p in points[:40]]
            for _ in range(10):
                x, y = random_point(K, rng), random_point(K, rng)
                points += [p for p in l1_path_distance(K, x, y).witness.points]
            made += [(K, p) for p in points]
        for K, p in made:
            assert p.ids == tuple(K.index[v] for v in p.support), p
            assert type(p.ids) is tuple and all(type(i) is int for i in p.ids)
            # every label view is the one make_point gives from the point's own labels and weights,
            # which it renormalises, so a weight may move by a rounding
            again = make_point(K, p.weights)
            assert p.ids == again.ids and (p.support, repr(p)) == (again.support, repr(again)), p
            assert [v for v, _ in p.items] == list(p.weights) == list(again.weights) == list(p.support), p
            for (v, w), (_, a) in zip(p.items, again.items):
                assert p.get(v) == p.weights[v] == w and math.isclose(w, a, rel_tol=1e-15), p
        assert sum(len(p.items) > 1 for _, p in made) > 200

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_simplex_l1_is_the_dict_formula_bit_for_bit(self, complex_fleet, data):
        K = complex_fleet[data.draw(st.sampled_from(sorted(complex_fleet)), label="complex")]
        sigma = data.draw(st.sampled_from(K.maximal_simplices), label="sigma")
        face = st.lists(st.sampled_from(sigma), min_size=1, unique=True)
        faces = [sorted(data.draw(face, label="face")) for _ in range(2)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # vertex points (weight 1.0) half the time on each side, the same vertex included
        x, y = (
            vertex_point(K, f[0]) if data.draw(st.booleans(), label="vertex") else random_point(K, rng, face=f)
            for f in faces
        )
        xw, yw = x.weights, y.weights
        want = 0.5 * sum(abs(xw.get(v, 0.0) - yw.get(v, 0.0)) for v in sorted(set(xw) | set(yw)))
        assert simplex_l1(x, y) == want
        assert simplex_l1(y, x) == want


class TestCommonSimplex:
    # the common face comes as its ascending vertex ids
    def test_inside_triangle(self, triangle):
        x = make_point(triangle, {"a": 0.2, "b": 0.3, "c": 0.5})
        y = make_point(triangle, {"a": 0.5, "b": 0.25, "c": 0.25})
        assert common_simplex(triangle, x, y) == (0, 1, 2)

    def test_none_across_cut_vertex(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        y = make_point(path3, {"v": 0.5, "w": 0.5})
        assert common_simplex(path3, x, y) is None

    def test_same_vertex(self, path3):
        u = vertex_point(path3, "u")
        assert common_simplex(path3, u, u) == (0,)

    def test_smallest_choice(self, triangle):
        x = make_point(triangle, {"a": 0.5, "b": 0.5})
        y = vertex_point(triangle, "a")
        assert common_simplex(triangle, x, y) == (0, 1)


class TestSimplexL1:
    def test_two_vertices_distance_one(self, path3):
        assert simplex_l1(vertex_point(path3, "u"), vertex_point(path3, "v")) == 1.0

    def test_midpoint_to_vertex(self, path3):
        x = make_point(path3, {"u": 0.5, "v": 0.5})
        assert simplex_l1(x, vertex_point(path3, "u")) == 0.5

    def test_identity(self, triangle):
        x = make_point(triangle, {"a": 0.3, "b": 0.7})
        assert simplex_l1(x, x) == 0.0

    @given(
        a=st.floats(0.01, 10),
        b=st.floats(0.01, 10),
        c=st.floats(0.01, 10),
        d=st.floats(0.01, 10),
        e=st.floats(0.01, 10),
        f=st.floats(0.01, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms_inside_triangle(self, a, b, c, d, e, f):
        K = build_complex(["a", "b", "c"], [["a", "b", "c"]])
        x = make_point(K, {"a": a, "b": b, "c": c})
        y = make_point(K, {"a": d, "b": e, "c": f})
        z = make_point(K, {"a": f, "b": a, "c": d})
        assert simplex_l1(x, y) == simplex_l1(y, x)
        assert simplex_l1(x, y) <= 1.0 + 1e-9
        assert simplex_l1(x, z) <= simplex_l1(x, y) + simplex_l1(y, z) + 1e-9

    def test_restriction_to_face(self, triangle):
        # values depend only on coordinates, so a face and its ambient
        # simplex induce the same length
        x = make_point(triangle, {"a": 0.25, "b": 0.75})
        y = make_point(triangle, {"a": 0.6, "b": 0.4})
        direct = 0.5 * (abs(0.25 - 0.6) + abs(0.75 - 0.4))
        assert math.isclose(simplex_l1(x, y), direct, abs_tol=1e-15)


class TestAutomorphism:
    def test_swap_on_edge(self, path3):
        K = build_complex(["u", "v"], [["u", "v"]])
        g = make_automorphism(K, {"u": "v", "v": "u"})
        x = make_point(K, {"u": 0.3, "v": 0.7})
        gx = apply_automorphism(K, g, x)
        assert gx.weights == {"u": 0.7, "v": 0.3}

    def test_identity(self, triangle):
        g = make_automorphism(triangle, {v: v for v in triangle.vertices})
        x = make_point(triangle, {"a": 0.2, "b": 0.3, "c": 0.5})
        assert apply_automorphism(triangle, g, x) == x

    def test_rotation_fixes_barycenter(self, triangle):
        g = make_automorphism(triangle, {"a": "b", "b": "c", "c": "a"})
        x = make_point(triangle, {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3})
        assert apply_automorphism(triangle, g, x) == x

    def test_invalid_mapping(self, path3):
        with pytest.raises(NotAnAutomorphism):
            make_automorphism(path3, {"u": "u", "v": "w", "w": "v"})
        with pytest.raises(NotAnAutomorphism):
            make_automorphism(path3, {"u": "u", "v": "v", "w": "v"})

    def test_the_id_walk_decides_as_the_label_walk(self, complex_fleet):
        # random bijections of each fleet complex: the same Automorphism, or the same error
        # naming the same first simplex, as the walk over the label tuples with spans
        rng = np.random.default_rng(6)
        outcomes = []
        for K in complex_fleet.values():
            vs = list(K.vertices)
            maps = [dict(zip(vs, vs))]
            maps += [dict(zip(vs, rng.permutation(vs).tolist())) for _ in range(30)]
            g = find_nontrivial_automorphism(K)
            if g is not None:
                maps.append(g.as_dict())
            for mapping in maps:
                got, want = (_decided(f, K, mapping) for f in (make_automorphism, _label_make_automorphism))
                assert got == want
                outcomes.append(isinstance(got, Automorphism))
        assert 10 < sum(outcomes) < len(outcomes) - 100

    def test_apply_maps_ids_through_the_image_and_builds_no_label_dict(self, monkeypatch):
        # each seeded point's image is the reference: its weights moved to their labels' images,
        # whose ids are looked up by label; up to renormalising, it is the make_point of those
        # weights; and no point reads the whole source -> image dict
        K = tree_complex(2, 11)
        g = find_nontrivial_automorphism(K)
        assert g.image_of == tuple(K.index[w] for _, w in g.mapping)
        mapping = g.as_dict()
        rng = np.random.default_rng(38)
        points = [random_point(K, rng) for _ in range(200)]
        want = []
        for x in points:
            moved = {mapping[v]: w for v, w in x.items}
            exact = BarycentricPoint(tuple(sorted((K.index[v], w) for v, w in moved.items())), K.vertices)
            want.append((exact, moved))
        calls = []
        as_dict = Automorphism.as_dict
        monkeypatch.setattr(Automorphism, "as_dict", lambda self: calls.append(self) or as_dict(self))
        for x, (exact, moved) in zip(points, want):
            got = apply_automorphism(K, g, x)
            assert got == exact, x
            again = make_point(K, moved)
            assert got.ids == again.ids, x
            assert all(math.isclose(a, b, rel_tol=1e-15) for (_, a), (_, b) in zip(got.pairs, again.pairs)), x
        assert calls == [] and sum(len(x.ids) > 1 for x in points) > 80

    def test_the_id_image_plays_no_part_in_identity(self, triangle):
        g = make_automorphism(triangle, {"a": "b", "b": "c", "c": "a"})
        assert g.image_of == (1, 2, 0)
        assert g == Automorphism(mapping=g.mapping, image_of=()) and hash(g) == hash(Automorphism(g.mapping, ()))
        assert "image_of" not in repr(g)

    def test_preserves_l1(self, path3):
        g = make_automorphism(path3, {"u": "w", "v": "v", "w": "u"})
        x = make_point(path3, {"u": 0.2, "v": 0.8})
        y = make_point(path3, {"u": 0.9, "v": 0.1})
        gx, gy = apply_automorphism(path3, g, x), apply_automorphism(path3, g, y)
        assert simplex_l1(gx, gy) == simplex_l1(x, y)


def _label_make_automorphism(K, mapping):
    """make_automorphism as it walked the label tuples, through spans: the reference."""
    if sorted(mapping) != list(K.vertices) or sorted(mapping.values()) != list(K.vertices):
        raise NotAnAutomorphism("mapping is not a bijection of the vertex set")
    for s in K.maximal_simplices:
        image = tuple(sorted(mapping[v] for v in s))
        if not K.spans(image):
            raise NotAnAutomorphism(f"image {image} of simplex {s} is not a simplex")
    image_of = tuple(K.index[mapping[v]] for v in K.vertices)
    return Automorphism(mapping=tuple(sorted(mapping.items())), image_of=image_of)


def _decided(make, K, mapping):
    try:
        return make(K, mapping)
    except NotAnAutomorphism as exc:
        return str(exc)


class TestWholeTableWalkers:
    def _cached(self, K):
        return [len(t._rows) for t in (K.simplex_csr, K.incidence_csr, K.adjacency_csr)]

    @pytest.mark.parametrize("make", [
        lambda: tree_complex(2, 6),
        lambda: rips_complex(path_complex(30), 3),
    ], ids=["tree", "rips-path"])
    def test_the_automorphism_search_leaves_the_row_caches_empty(self, make):
        # the search, and make_automorphism on the map it finds, read the tables once as lists
        # (a map that fails runs the face test on its images that are not maximal, which
        # reads rows as every face test does; these searches succeed with their first map)
        K = make()
        g = find_nontrivial_automorphism(K)
        assert g is not None
        assert make_automorphism(K, g.as_dict()) == g
        assert self._cached(K) == [0, 0, 0]
        assert "maximal_simplices" not in vars(K)

    def test_a_valid_map_reads_no_row(self):
        K = rips_complex(cycle_complex(12), 2)
        vs = K.vertices
        for shift in range(12):
            make_automorphism(K, {v: vs[(i + shift) % 12] for i, v in enumerate(vs)})
        assert self._cached(K) == [0, 0, 0]
        with pytest.raises(NotAnAutomorphism):
            make_automorphism(K, {v: vs[(5 * i) % 12] for i, v in enumerate(vs)})

    def test_rips_leaves_its_base_row_caches_empty(self):
        base = path_complex(200)
        K = rips_complex(base, 3)
        assert self._cached(base) == [0, 0, 0] and len(K.vertices) == 200
