"""The exact automorphism search and the check runner's use of it."""

import itertools

import numpy as np
import pytest

from metricext import build_complex, make_automorphism, validate_vertex_metric, word_vertex_metric
from metricext import checks
from metricext.checks import find_nontrivial_automorphism, run_checks
from metricext.generators import (
    cycle_complex,
    path_complex,
    random_complex,
    rips_complex,
    tree_complex,
)

from conftest import all_faces, assert_spans_is_membership, fleet


def small_complexes(count, seed=0):
    """Seeded complexes on 1 to 7 vertices, alternating two kinds.

    Even ones are flag complexes (every clique of a random graph); odd ones
    list random vertex subsets as simplices, so they are often not flag and
    often leave some vertices lone.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(1, 8))
        vs = [f"v{i}" for i in range(n)]
        if k % 2 == 0:
            edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5}
            listed = [
                [vs[i] for i in clique]
                for size in range(1, n + 1)
                for clique in itertools.combinations(range(n), size)
                if all(e in edges for e in itertools.combinations(clique, 2))
            ]
        else:
            listed = [s for s in ([v for v in vs if rng.random() < 0.5] for _ in range(n + 1)) if s]
        out.append(build_complex(vs, listed))
    return out


def brute_force_has_automorphism(K):
    """Whether any non-identity permutation of the vertices maps simplices to simplices."""
    vs = K.vertices
    faces = all_faces(K)
    for image in itertools.permutations(vs):
        g = dict(zip(vs, image))
        if image != vs and all(
            tuple(sorted(g[v] for v in s)) in faces for s in K.maximal_simplices
        ):
            return True
    return False


def moves_something(g):
    return any(u != v for u, v in g.mapping)


def backtracking_has_automorphism(K):
    """Whether a non-identity vertex map sends maximal simplices onto maximal simplices.

    Extends a partial map in vertex order and checks each maximal simplex as soon as its
    last vertex is mapped, so it reaches 12 vertices where trying all permutations cannot.
    """
    vs = K.vertices
    maximal = set(K.maximal_simplices)
    closed_at = {}
    for s in maximal:
        closed_at.setdefault(max(vs.index(v) for v in s), []).append(s)

    def extend(image):
        if len(image) == len(vs):
            return image != list(vs)
        for t in vs:
            if t not in image:
                g = dict(zip(vs, image + [t]))
                fits = all(tuple(sorted(g[v] for v in s)) in maximal for s in closed_at.get(len(image), ()))
                if fits and extend(image + [t]):
                    return True
        return False

    return extend([])


def test_agrees_with_brute_force_on_small_complexes():
    sweep = small_complexes(400)
    lone = sum(len(K.vertices) > 1 and any(not K.adjacency[v] for v in K.vertices) for K in sweep)
    non_flag = sum(
        any(
            t not in faces and all(e in faces for e in itertools.combinations(t, 2))
            for t in itertools.combinations(K.vertices, 3)
        )
        for K, faces in ((K, all_faces(K)) for K in sweep)
    )
    answers = []
    for K in sweep:
        g = find_nontrivial_automorphism(K)
        assert (g is not None) == brute_force_has_automorphism(K), K.maximal_simplices
        assert g is None or moves_something(g)
        answers.append(g is not None)
    # the sweep covers both answers, non-flag complexes and lone vertices
    assert 50 <= sum(answers) <= 350
    assert lone >= 50 and non_flag >= 50


def test_spans_is_face_membership_on_small_complexes():
    for K in small_complexes(400):
        assert_spans_is_membership(K)


def test_finds_a_swap_away_from_the_highest_degree_vertex():
    K = build_complex("abcd", [["a", "b", "c"], ["c", "d"]])
    g = find_nontrivial_automorphism(K)
    assert g is not None and g.as_dict() == {"a": "b", "b": "a", "c": "c", "d": "d"}


@pytest.mark.parametrize(
    "make",
    [
        lambda: tree_complex(2, 6),
        lambda: tree_complex(2, 11),
        lambda: rips_complex(cycle_complex(40), 2),
        lambda: rips_complex(path_complex(1000), 3),
    ],
    ids=["tree(2,6)", "tree(2,11)", "rips(cycle(40),2)", "rips(path(1000),3)"],
)
def test_finds_automorphisms_beyond_32_vertices(make):
    g = find_nontrivial_automorphism(make())
    assert g is not None and moves_something(g)


TWELVE = [f"v{i:02d}" for i in range(12)]
# each vertex lies in three triangles, and no relabelling keeps the triangles
RIGID_TRIANGLES = [
    (0, 1, 2), (0, 2, 5), (0, 7, 9), (1, 4, 5), (1, 9, 10), (2, 3, 10),
    (3, 4, 8), (3, 7, 11), (4, 5, 8), (6, 7, 11), (6, 8, 10), (6, 9, 11),
]
ROTATED_TRIANGLES = [(i, (i + 1) % 12, (i + 3) % 12) for i in range(12)]


@pytest.mark.parametrize("triangles", [RIGID_TRIANGLES, ROTATED_TRIANGLES], ids=["rigid", "rotated"])
def test_pins_split_a_complete_one_skeleton(triangles, monkeypatch):
    # every pair is an edge, so only the triangles can tell the 12 vertices apart
    edges = [list(e) for e in itertools.combinations(TWELVE, 2)]
    K = build_complex(TWELVE, edges + [[TWELVE[i] for i in t] for t in triangles])
    tries = []

    def counted(K, mapping):
        tries.append(mapping)
        assert len(tries) <= 50, "the search is walking through colour-preserving permutations"
        return make_automorphism(K, mapping)

    monkeypatch.setattr(checks, "make_automorphism", counted)
    g = find_nontrivial_automorphism(K)
    assert (g is not None) == backtracking_has_automorphism(K) == (triangles is ROTATED_TRIANGLES)
    assert g is None or moves_something(g)


def test_proves_only_the_identity():
    assert find_nontrivial_automorphism(random_complex(30, 0.15, seed=0)) is None
    assert find_nontrivial_automorphism(build_complex(["a"], [["a"]])) is None


def test_one_search_per_run(monkeypatch):
    searches = []

    def counted(K):
        searches.append(K)
        return find_nontrivial_automorphism(K)

    monkeypatch.setattr(checks, "find_nontrivial_automorphism", counted)
    K = rips_complex(cycle_complex(8), 2)
    run_checks(K, word_vertex_metric(K), suite="all", triples=6, pairs=8)
    assert len(searches) == 1
    run_checks(K, word_vertex_metric(K), suite="path", triples=6, pairs=8)
    assert len(searches) == 1


def test_checks_on_tree_use_an_automorphism_and_no_dense_matrix():
    K = tree_complex(2, 6)
    vm = word_vertex_metric(K)
    rows = {r.name: r for r in run_checks(K, vm, suite="all")}
    assert all(r.ok for r in rows.values())
    for name in ("automorphism-preserves-simplex-l1", "automorphism-ext-invariance"):
        assert rows[name].passed > 0 and not rows[name].notes
    assert "matrix" not in vars(K.word_table)
    assert "matrix" not in vars(vm)


def test_ext_invariance_skips_samples_the_metric_breaks():
    # the swap u <-> w is an automorphism, but d(u, v) = 1 while d(w, v) = 2
    K = build_complex(["u", "v", "w"], [["u", "v"], ["v", "w"]])
    vm = validate_vertex_metric(K, np.array([[0.0, 1, 3], [1, 0, 2], [3, 2, 0]]))
    (row,) = [r for r in run_checks(K, vm, suite="extension") if r.name == "automorphism-ext-invariance"]
    skipped = 20 - row.passed
    assert row.ok and 0 < skipped < 20
    assert row.notes == [f"{skipped} of 20 samples skipped: metric not invariant on their supports"]


def test_pair_at_is_the_listed_pair():
    for n in range(2, 40):
        assert [checks._pair_at(n, k) for k in range(n * (n - 1) // 2)] == list(itertools.combinations(range(n), 2))
    # far past what a list could hold: each entry's offset i(2n - i - 1)/2 + (j - i - 1) is k again
    n = 2**32
    count = n * (n - 1) // 2
    for k in [0, 1, n - 2, n - 1, count // 2, count - 2, count - 1]:
        i, j = checks._pair_at(n, k)
        assert 0 <= i < j < n and i * (2 * n - i - 1) // 2 + (j - i - 1) == k


def _listed_vertex_pairs(ctx):
    """The pairs the vertex-pair checks drew when they listed every pair: (path, ext)."""
    pairs = list(itertools.combinations(ctx.K.vertices, 2))
    ext = pairs[:400]
    if len(pairs) > 400:
        idx = ctx.rng("vertex-pairs").choice(len(pairs), size=400, replace=False)
        pairs = [pairs[i] for i in idx]
    return pairs, ext


@pytest.mark.parametrize("name", [*sorted(fleet()), "tree2_6"])
def test_vertex_pair_checks_use_the_listed_pairs(name, monkeypatch):
    K = tree_complex(2, 6) if name == "tree2_6" else fleet()[name]
    ctx = checks.CheckContext(K, word_vertex_metric(K))
    asked = []
    vertex_point = checks.vertex_point
    monkeypatch.setattr(checks, "vertex_point", lambda K, v: asked.append(v) or vertex_point(K, v))

    def pairs_of(check):
        asked.clear()
        assert check(ctx).ok
        return list(zip(asked[::2], asked[1::2]))

    path, ext = _listed_vertex_pairs(ctx)
    assert pairs_of(checks._check_path_vertex_agreement) == path
    assert pairs_of(checks._check_ext_vertex_restriction) == ext
    assert name != "tree2_6" or len(path) == len(ext) == 400


def test_the_registry_runs_every_check_once_in_order():
    # the run order is kept: the checks share one ExtendedMetric cache, so a
    # check's cost (and its traced time) depends on the checks before it
    assert [check.__name__ for check in checks.ALL_CHECKS] == [
        "_check_face_closure",
        "_check_simplex_l1_axioms",
        "_check_simplex_l1_restriction",
        "_check_automorphism_l1",
        "_check_vertex_agreement_solver",
        "_check_minimal_bound",
        "_check_vertex_dd_identities",
        "_check_vertex_gp_relation",
        "_check_hyperbolicity",
        "_check_path_axioms",
        "_check_path_restriction",
        "_check_path_vertex_agreement",
        "_check_witness_soundness",
        "_check_disjoint_floor",
        "_check_ext_axioms",
        "_check_ext_vertex_restriction",
        "_check_ext_disjoint",
        "_check_mixed_inequality",
        "_check_bilinear_triangle",
        "_check_ext_dd_identities",
        "_check_sandwich",
        "_check_automorphism_ext",
        "_check_dd_window",
        "_check_probe_reproducibility",
        "_check_divergence_tree",
        "_check_decay",
        "_check_oracle_sandwich",
        "_check_naive_violation",
        "_check_tripwire",
    ]
    defined = [name for name in vars(checks) if name.startswith("_check_")]
    assert sorted(defined) == sorted(check.__name__ for check in checks.ALL_CHECKS)
    assert all(getattr(checks, check.__name__) is check for check in checks.ALL_CHECKS)
    assert checks.SUITES == ("complex", "vertex", "path", "extension", "probes", "oracle")


def test_each_check_returns_a_result_named_by_its_registration():
    K = tree_complex(2, 3)
    results = [check(checks.CheckContext(K, word_vertex_metric(K))) for check in checks.ALL_CHECKS]
    assert [r.suite for r in results] == [check.suite for check in checks.ALL_CHECKS]
    assert len({r.name for r in results}) == len(results)
    ran = run_checks(K, word_vertex_metric(K))
    assert [(r.suite, r.name) for r in ran] == sorted((r.suite, r.name) for r in results)
