"""Shared fixtures: the complex fleet and the suite-wide tripwire guard."""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from metricext import build_complex, make_automorphism, make_point, tripwire_log
from metricext.complexes import Simplex, SimplicialComplex, make_simplex
from metricext.errors import DuplicateVertex, EmptySimplex, UnknownVertexInSimplex
from metricext.generators import (
    _ball,
    _labels,
    _pick,
    _random_geodesic,
    cycle_complex,
    path_complex,
    random_complex,
    rips_complex,
    simplex_complex,
    tree_complex,
)
from metricext.vertexmetrics import word_metric


def all_faces(K):
    """Every face of K, by enumeration: each nonempty subset of each maximal simplex."""
    return frozenset(
        f for s in K.maximal_simplices for k in range(1, len(s) + 1) for f in combinations(s, k)
    )


def assert_spans_is_membership(K, up_to=4):
    """K.spans(t) == (t in all_faces(K)) for every sorted vertex subset t of at most up_to vertices.

    The empty tuple, an unknown label and a repeated pair are asked too.
    """
    faces = all_faces(K)
    for k in range(up_to + 1):
        for t in combinations(K.vertices, k):
            assert K.spans(t) == (t in faces), t
    for t in [("?",), (K.vertices[0], "?"), (K.vertices[0],) * 2]:
        assert not K.spans(t), t


# --------------------------------------------------------------------------
# The list-built construction: build_complex, the clique enumerator, the
# generators that call it and the word table's graph as they were before
# construction became one bulk pass.  The bulk build must equal them.


def reference_build_complex(vertices, maximal_simplices):
    vlist = list(vertices)
    vset = set(vlist)
    if len(vlist) != len(vset):
        seen: set[str] = set()
        dup = next(v for v in vlist if v in seen or seen.add(v))
        raise DuplicateVertex(f"vertex {dup!r} listed twice")
    if not vlist:
        raise EmptySimplex("a complex needs at least one vertex")

    listed: list[Simplex] = []
    for raw in maximal_simplices:
        s = make_simplex(raw)
        unknown = [v for v in s if v not in vset]
        if unknown:
            raise UnknownVertexInSimplex(f"simplex {s} uses unknown vertex {unknown[0]!r}")
        listed.append(s)

    # Every vertex must appear in at least one simplex; lone vertices are
    # carried as 0-simplices.
    covered = {v for s in listed for v in s}
    for v in sorted(vset - covered):
        listed.append((v,))

    # A listed simplex is maximal iff no other distinct listed simplex holds
    # all of its vertices: the intersection of its vertices' holder sets is
    # itself alone.  This touches each vertex's holders, not all pairs.
    distinct = list(dict.fromkeys(listed))
    holders: dict[str, set[int]] = {v: set() for v in vset}
    for i, s in enumerate(distinct):
        for v in s:
            holders[v].add(i)
    maximal = tuple(
        sorted(
            (s for s in distinct if len(set.intersection(*(holders[v] for v in s))) == 1),
            key=lambda s: (len(s), s),
        )
    )

    # v's neighbours are the other vertices of the maximal simplices holding it
    near: dict[str, set[str]] = {v: set() for v in vset}
    incidence: dict[str, list[int]] = {v: [] for v in vset}
    for i, s in enumerate(maximal):
        for v in s:
            near[v].update(s)
            incidence[v].append(i)
    order = tuple(sorted(vset))
    return SimplicialComplex(
        vertices=order,
        maximal_simplices=maximal,
        adjacency={v: tuple(sorted(near[v] - {v})) for v in order},
        incidence={v: tuple(incidence[v]) for v in order},
    )


def reference_cliques(vs, edges, max_size):
    """Every clique of at most max_size vertices; edges are index pairs i < j into vs."""
    up: list[set[int]] = [set() for _ in vs]
    for i, j in edges:
        up[i].add(j)
    out: list[list[str]] = []

    def grow(clique: tuple[int, ...], common: set[int]) -> None:
        out.append([vs[i] for i in clique])
        if len(clique) < max_size:
            for j in sorted(common):
                grow(clique + (j,), common & up[j])

    for i in range(len(vs)):
        grow((i,), up[i])
    return out


def reference_random_edges(n, density, seed):
    """random_complex's graph as index pairs: one scalar draw per pair, then the joins."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < density]
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    reps = sorted({find(i) for i in range(n)})
    edges += zip(reps, reps[1:])
    return edges


def reference_random_complex(n, density, seed, max_dim=3):
    vs = _labels("g", n)
    edges = reference_random_edges(n, density, seed)
    return reference_build_complex(vs, reference_cliques(vs, edges, max_dim + 1))


def reference_rips_complex(base, radius, max_dim=3):
    word_metric(base)
    index = {v: i for i, v in enumerate(base.vertices)}
    near = [
        (i, index[w]) for i, v in enumerate(base.vertices) for w in _ball(base, v, radius) if index[w] > i
    ]
    return reference_build_complex(base.vertices, reference_cliques(base.vertices, near, max_dim + 1))


def list_built_graph(order, adjacency):
    """The word table's sparse 1-skeleton, from per-entry row and column lists."""
    index = {v: i for i, v in enumerate(order)}
    rows = [index[v] for v in order for _ in adjacency[v]]
    cols = [index[w] for v in order for w in adjacency[v]]
    return csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(order),) * 2)


def assert_same_complex(K, want):
    """Equal vertices and maximal simplices, in order, and equal adjacency and incidence."""
    assert K.vertices == want.vertices
    assert K.maximal_simplices == want.maximal_simplices
    assert list(K.adjacency.items()) == list(want.adjacency.items())
    assert list(K.incidence.items()) == list(want.incidence.items())


def simplex_on_a_path(n, length):
    """One simplex on s00 .. s{n-1}, its last vertex glued to a path p01 .. p{length}."""
    simplex = [f"s{i:02d}" for i in range(n)]
    path = [simplex[-1]] + [f"p{i:02d}" for i in range(1, length + 1)]
    return build_complex(simplex + path[1:], [simplex, *zip(path, path[1:])])


def book_complex():
    """Two triangles glued along an edge, plus a pendant edge."""
    return build_complex(
        ["a", "b", "c", "d", "e"],
        [["a", "b", "c"], ["b", "c", "d"], ["d", "e"]],
    )


def strip_complex():
    """Three triangles glued in a strip."""
    return build_complex(
        ["a", "b", "c", "d", "e"],
        [["a", "b", "c"], ["b", "c", "d"], ["c", "d", "e"]],
    )


def fleet():
    """Ten-plus generated complexes, all at most 40 vertices."""
    return {
        "tree23": tree_complex(2, 3),
        "tree32": tree_complex(3, 2),
        "path12": path_complex(12),
        "cycle9": cycle_complex(9),
        "cycle16": cycle_complex(16),
        "simplex3": simplex_complex(3),
        "rips_c8": rips_complex(cycle_complex(8), 2),
        "rips_p10": rips_complex(path_complex(10), 2),
        "random14": random_complex(14, 0.25, seed=3),
        "random20": random_complex(20, 0.18, seed=5),
        "book": book_complex(),
    }


# --------------------------------------------------------------------------
# Geodesic triples and stock automorphisms of the generated families


def sample_geodesic_triples(K, rng, count):
    """(u, w, v) with w on a shortest edge path from u to v."""
    verts = list(K.vertices)
    out = []
    for _ in range(count):
        u = _pick(rng, verts)
        v = _pick(rng, verts)
        path = _random_geodesic(K, rng, u, v)
        w = _pick(rng, path)
        out.append((u, w, v))
    return out


def cycle_rotation(K, shift):
    vs = list(K.vertices)
    n = len(vs)
    return make_automorphism(K, {vs[i]: vs[(i + shift) % n] for i in range(n)})


def path_reversal(K):
    vs = list(K.vertices)
    return make_automorphism(K, {v: w for v, w in zip(vs, reversed(vs))})


def simplex_transposition(K):
    vs = list(K.vertices)
    mapping = {v: v for v in vs}
    mapping[vs[0]], mapping[vs[1]] = vs[1], vs[0]
    return make_automorphism(K, mapping)


def tree_reflection(K, branching):
    """Mirror the complete tree by reversing every child list."""
    count = len(K.vertices)
    vs = list(K.vertices)
    children = {
        i: [c for c in range(branching * i + 1, branching * i + branching + 1) if c < count]
        for i in range(count)
    }
    mapping = {}

    def walk(i, j):
        mapping[vs[i]] = vs[j]
        for ci, cj in zip(children[i], reversed(children[j])):
            walk(ci, cj)

    walk(0, 0)
    return make_automorphism(K, mapping)


POOL_COMPLEXES = {
    "rips_c30": lambda: rips_complex(cycle_complex(30), 2),
    "random80": lambda: random_complex(80, 0.08, seed=1),
    "tree2_9": lambda: tree_complex(2, 9),
    "tree2_11": lambda: tree_complex(2, 11),
    "rips_p40": lambda: rips_complex(path_complex(40), 3),
}


def pool_queries(workloads=("path-fleet", "hard-rips")):
    """The benchmark's fixed query pools (bench/pool.json, read only), with their complexes.

    Each complex is built when a query first needs it.
    """
    pool = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pool.json").read_text())
    complexes = {}
    scale = pool["resolution"]
    for workload in workloads:
        for q in pool["workloads"][workload]["queries"]:
            name = q["complex"]
            if name not in complexes:
                complexes[name] = POOL_COMPLEXES[name]()
            K = complexes[name]
            x = make_point(K, {v: c / scale for v, c in q["x"].items()})
            y = make_point(K, {v: c / scale for v, c in q["y"].items()})
            yield q, K, x, y


@pytest.fixture(scope="session")
def complex_fleet():
    return fleet()


@pytest.fixture(scope="session")
def path3():
    return build_complex(["u", "v", "w"], [["u", "v"], ["v", "w"]])


@pytest.fixture(scope="session")
def triangle():
    return build_complex(["a", "b", "c"], [["a", "b", "c"]])


@pytest.fixture(scope="session")
def book():
    return book_complex()


@pytest.fixture(scope="session")
def strip():
    return strip_complex()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session", autouse=True)
def tripwire_guard():
    """No solver result may undercut a registered lower bound, suite-wide."""
    yield
    log = tripwire_log()
    assert not log.violations, log.violations
