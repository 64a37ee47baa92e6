"""Shared fixtures: the complex fleet and the suite-wide tripwire guard."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from metricext import build_complex, make_automorphism, make_point, pathmetric, simplex_l1, tripwire_log
from metricext.complexes import Simplex, _point_on, make_simplex
from metricext.errors import DuplicateVertex, EmptySimplex, UnknownVertexInSimplex
from metricext.generators import (
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
from metricext.vertexmetrics import geodesic, word_metric


def edges(K):
    """The edges of K as label pairs (a, b), a < b, in label order, from the adjacency label view."""
    return [(a, b) for a, ns in K.adjacency.items() for b in ns if a < b]


def incidence(K):
    """Label -> ids of the maximal simplices holding it, ascending: the incidence CSR's rows by label."""
    return {v: K.incidence_csr.row(i) for i, v in enumerate(K.vertices)}


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
# construction became one bulk pass.  The bulk build must equal them.  The
# reference build returns the four attributes they are compared on in a plain
# namespace, since a complex is now built from id arrays, not label dicts.


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
    return SimpleNamespace(
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
    near = np.argwhere(np.triu(word_metric(base).matrix <= radius, 1)).tolist()
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
    assert list(incidence(K).items()) == list(want.incidence.items())


def assert_identity_is_the_labels(K, L):
    """K == L exactly when their vertices and maximal simplices are, and equal complexes hash alike."""
    same = (K.vertices, K.maximal_simplices) == (L.vertices, L.maximal_simplices)
    assert (K == L) is same and (K != L) is (not same)
    if same:
        assert hash(K) == hash(L)


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
    """(u, w, v), as labels, with w on a shortest edge path from u to v."""
    verts = list(K.vertices)
    out = []
    for _ in range(count):
        u = _pick(rng, verts)
        v = _pick(rng, verts)
        path = _random_geodesic(K, rng, K.index[u], K.index[v])
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


def cutoff(x, y, priced, incumbent=None, ceiling=None) -> int:
    """The search's cutoff, set as `_solve_by_search` sets it, for the query's word transport `priced`.

    It is the route's R (`_vertex_route`), or, given an incumbent value, the
    least total T with T / scale >= incumbent, compared as rationals; a
    ceiling (bilinear, factor) lowers it to E (`_reaching_total`).
    """
    if incumbent is None:
        total = pathmetric._vertex_route(x, y, priced)[0]
    else:
        total = math.ceil(Fraction(incumbent) * priced.scale)
    return total if ceiling is None else pathmetric._reaching_total(*ceiling, priced.scale, total)


def search(K, x, y, table, incumbent=None, ceiling=None):
    """`pathmetric._best_first`, priced as `_solve_by_search` prices it and cut off at `cutoff`."""
    priced = pathmetric._word_transport(table, x, y)
    return pathmetric._best_first(K, x, y, table, priced, cutoff(x, y, priced, incumbent, ceiling))


def vertex_route(K, x, y):
    """`pathmetric._vertex_route` of x and y over their word transport: (R, u, v), R over its scale, u and v ids."""
    return pathmetric._vertex_route(x, y, pathmetric._word_transport(word_metric(K), x, y))


def id_rows(K, simplices):
    """Label simplices as the ascending vertex id rows that chains and witnesses hold."""
    return tuple(tuple(sorted(K.index[v] for v in s)) for s in simplices)


def label_chain_witness(K, x, y, rows):
    """A chain's witness built from labels, as it was before witnesses held ids: the reference.

    The chain's rows become label simplices, the switch-count DP runs on
    the supports' labels, each breakpoint is the `make_point` of its
    (label, mass / scale) weights, and each carrier is tested with
    `K.spans`.  Returns (value, points, carriers, length).
    """
    carriers = tuple(tuple(K.vertices[w] for w in row) for row in rows)
    xs, ys = x.support, y.support
    assert set(xs) <= set(carriers[0]) and set(ys) <= set(carriers[-1])
    faces = [tuple(sorted(set(a) & set(b))) for a, b in zip(carriers, carriers[1:])]
    assert all(faces)
    routes = []
    for u in xs:
        dp = [{u: 0}]
        for layer in (*faces, ys):
            switch = min(dp[-1].values()) + 1
            dp.append({w: dp[-1].get(w, switch) for w in layer})
        routes.append(dp)
    supply, demand, scale = pathmetric._masses(x, y)
    total, flow = pathmetric._chain_transport(supply, demand, [[dp[-1][v] for v in ys] for dp in routes])
    mass = [{} for _ in faces]
    for row, dp in zip(flow, routes):
        for amount, v in zip(row, ys):
            if not amount:
                continue
            w = v
            for i in range(len(faces), 0, -1):
                if w not in dp[i]:
                    w = min(dp[i], key=lambda p: (dp[i][p], p))
                mass[i - 1][w] = mass[i - 1].get(w, 0) + amount
    points = (x, *[make_point(K, {v: m / scale for v, m in d.items()}) for d in mass], y)
    length = 0.0
    for a, b, carrier in zip(points, points[1:], carriers):
        assert len(set(carrier)) == len(carrier) and K.spans(carrier)
        assert set(carrier) >= set(a.support) | set(b.support)
        length += simplex_l1(a, b)
    return total / scale, points, carriers, length


def route_witness(K, x, y, u, v):
    """The vertex route's witness built by hand, as it was before a route's witness was its rows' chain's: the reference.

    It huddles x to vertex id u, walks the geodesic's ids to vertex id v and
    spreads to y, and needs no optimal chain: any (u, v) gives a path.
    """
    points, rows = [x], []  # rows: each segment's carrier, as ascending vertex ids
    walk = geodesic(K, u, v)
    if not (x.is_vertex and x.ids[0] == u):
        points.append(_point_on(K, (u,), [1.0]))
        rows.append(x.ids)
    for prev, w in zip(walk, walk[1:]):
        points.append(_point_on(K, (w,), [1.0]))
        rows.append((prev, w) if prev < w else (w, prev))
    if not (y.is_vertex and y.ids[0] == v):
        points.append(y)
        rows.append(y.ids)
    length = pathmetric.path_length(K, points, rows)
    return pathmetric.PathWitness(points=tuple(points), rows=tuple(rows), length=length)


def assert_closed_form_bounds_are_the_lower_bounds(monkeypatch, pairs) -> int:
    """Each common-simplex or two-vertex pair of (K, x, y) pairs is checked once, against `lower_bounds`.

    Its path is answered without pricing a word transport.  Returns the
    number of such pairs.
    """
    checked, priced = [], []
    check, word_transport = pathmetric._assert_above_bounds, pathmetric._word_transport
    monkeypatch.setattr(pathmetric, "_assert_above_bounds", lambda *args: checked.append(args) or check(*args))
    monkeypatch.setattr(pathmetric, "_word_transport", lambda *args: priced.append(args) or word_transport(*args))
    closed = 0
    for K, x, y in pairs:
        if x.key() == y.key() or not (pathmetric.common_simplex(K, x, y) or (x.is_vertex and y.is_vertex)):
            continue
        checked.clear()
        priced.clear()
        value = pathmetric.l1_path_distance(K, x, y).value
        assert priced == [], (x, y)
        assert checked == [(value, pathmetric.lower_bounds(K, x, y), "closed form")], (x, y)
        closed += 1
    return closed


def assert_costs_decompose(pairs) -> tuple[int, int]:
    """Every pair's word block is d_v + e_uv, and every chain answer's DP costs are m_u + e_uv, e in {0, 1}.

    d_v is the block's column minimum and m_u the chain costs' row minimum;
    a chain answer is one whose result carries its chain.  Returns the
    numbers of word blocks and of chains checked.
    """
    blocks = chains = 0
    for K, x, y in pairs:
        words = pathmetric._word_transport(word_metric(K), x, y).words
        assert all(w - min(column) in (0, 1) for column in zip(*words) for w in column), (x, y)
        blocks += 1
        found = pathmetric.l1_path_distance(K, x, y)._chain
        if found is not None:
            cost = pathmetric._switch_counts(pathmetric.Chain(simplices=found[3]), x.ids, y.ids)[2]
            assert all(c - min(row) in (0, 1) for row in cost for c in row), (x, y)
            chains += 1
    return blocks, chains


# the lower bounds the word transport replaced, kept verbatim as references for it

def sphere_bound(table, x, y) -> float:
    """The sphere-crossing bound around the least of x's heaviest vertices.

    For a radius k larger than every support radius of x but smaller than
    the largest support radius of y, some path point must carry its full
    weight on the sphere of radius k.  supp(x) spans a simplex, so every
    other vertex of it lies at radius 1.
    """
    # the first maximum: pairs ascend by id, and labels with them
    center = max(x.pairs, key=lambda pair: pair[1])[0]
    wx: dict[int, float] = {}
    wy: dict[int, float] = {}
    for v, w in x.pairs:
        k = int(v != center)
        wx[k] = wx.get(k, 0.0) + w
    for v, w in y.pairs:
        k = int(table.distance(center, v))
        wy[k] = wy.get(k, 0.0) + w
    top_x = max(wx)
    top_y = max(wy)
    total = 0.0
    for k in range(0, max(top_x, top_y) + 1):
        a = wx.get(k, 0.0)
        b = wy.get(k, 0.0)
        if top_x < k < top_y:
            total += abs(a - 1.0) + abs(1.0 - b)
        else:
            total += abs(a - b)
    return 0.5 * total


def two_direction_bounds(K, x, y) -> list[tuple[str, float]]:
    """The coordinate, disjoint-support and sphere bounds, x to y then y to x."""
    table = word_metric(K)
    coordinate = ("coordinate", simplex_l1(x, y))
    disjoint = ("disjoint_support", 1.0 if set(x.support).isdisjoint(y.support) else 0.0)
    return [
        coordinate, disjoint, ("sphere", sphere_bound(table, x, y)),
        coordinate, disjoint, ("sphere", sphere_bound(table, y, x)),
    ]


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
