"""Test-complex generators and seeded samplers.

Every generator is deterministic: the same spec (and seed, where one
applies) reproduces the same complex label-for-label.  Vertex labels are
zero-padded so lexicographic order matches construction order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .complexes import (
    Automorphism,
    BarycentricPoint,
    Simplex,
    SimplicialComplex,
    build_complex,
    make_automorphism,
    make_point,
    vertex_point,
)
from .errors import InvalidParameters
from .vertexmetrics import word_metric


def _labels(prefix: str, count: int) -> list[str]:
    width = max(2, len(str(count - 1)))
    return [f"{prefix}{i:0{width}d}" for i in range(count)]


def simplex_complex(n: int) -> SimplicialComplex:
    """The full n-simplex: one maximal simplex on n+1 vertices."""
    if n < 0:
        raise InvalidParameters("simplex dimension must be >= 0")
    vs = _labels("s", n + 1)
    return build_complex(vs, [vs])


def path_complex(n: int) -> SimplicialComplex:
    """Path with n vertices and n-1 edges."""
    if n < 1:
        raise InvalidParameters("path needs at least one vertex")
    vs = _labels("p", n)
    return build_complex(vs, [[a, b] for a, b in zip(vs, vs[1:])] or [vs])


def cycle_complex(n: int) -> SimplicialComplex:
    """Cycle with n vertices and n edges."""
    if n < 3:
        raise InvalidParameters("cycle needs at least three vertices")
    vs = _labels("c", n)
    edges = [[vs[i], vs[(i + 1) % n]] for i in range(n)]
    return build_complex(vs, edges)


def _tree_children(branching: int, count: int) -> dict[int, list[int]]:
    return {
        i: [c for c in range(branching * i + 1, branching * i + branching + 1) if c < count]
        for i in range(count)
    }


def tree_complex(branching: int, depth: int) -> SimplicialComplex:
    """Complete rooted tree: every non-leaf has `branching` children."""
    if branching < 1 or depth < 0:
        raise InvalidParameters("need branching >= 1 and depth >= 0")
    count = sum(branching**k for k in range(depth + 1))
    vs = _labels("t", count)
    children = _tree_children(branching, count)
    edges = [[vs[i], vs[c]] for i in range(count) for c in children[i]]
    return build_complex(vs, edges or [vs])


def _cliques(vs: Sequence[str], edges: Iterable[Sequence[int]], max_size: int) -> list[list[str]]:
    """Every clique of at most max_size vertices; edges are index pairs i < j into vs.

    Each clique is grown once, through the common higher-numbered neighbours of
    its members (Bron & Kerbosch, 1973)."""
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


def rips_complex(base: SimplicialComplex, radius: float, max_dim: int = 3) -> SimplicialComplex:
    """Truncated flag complex of the radius-r neighborhood graph.

    Vertices at word distance <= r in the base 1-skeleton become adjacent;
    every clique with at most max_dim + 1 vertices becomes a simplex.
    """
    if radius < 1 or max_dim < 1:
        raise InvalidParameters("need radius >= 1 and max_dim >= 1")
    word_metric(base)  # a disconnected base is rejected, as by every word-metric reader
    index = {v: i for i, v in enumerate(base.vertices)}
    near = [
        (i, index[w]) for i, v in enumerate(base.vertices) for w in _ball(base, v, radius) if index[w] > i
    ]
    return build_complex(base.vertices, _cliques(base.vertices, near, max_dim + 1))


def _ball(K: SimplicialComplex, v: str, radius: float) -> set[str]:
    """Vertices at word distance at most radius from v, by a breadth-first search cut at that depth."""
    ball, frontier, depth = {v}, [v], 1
    while frontier and depth <= radius:
        grown = []
        for a in frontier:
            for b in K.adjacency[a]:
                if b not in ball:
                    ball.add(b)
                    grown.append(b)
        frontier, depth = grown, depth + 1
    return ball


def random_complex(
    n: int, density: float, seed: int, max_dim: int = 3
) -> SimplicialComplex:
    """Flag complex over a connected Erdos-Renyi-style graph."""
    if n < 2 or not (0.0 <= density <= 1.0):
        raise InvalidParameters("need n >= 2 and density in [0, 1]")
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < density]
    # join components deterministically so the complex is connected
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
    vs = _labels("g", n)
    return build_complex(vs, _cliques(vs, edges, max_dim + 1))


@dataclass(frozen=True)
class GeneratorSpec:
    """Description of a test complex; see `generate`."""

    kind: str
    params: tuple[float, ...] = ()
    seed: int = 0
    base: SimplicialComplex | None = None
    max_dim: int = 3


def generate(spec: GeneratorSpec) -> SimplicialComplex:
    """Build the complex a GeneratorSpec describes."""
    k, p = spec.kind, spec.params
    try:
        if k == "simplex":
            return simplex_complex(int(p[0]))
        if k == "path":
            return path_complex(int(p[0]))
        if k == "cycle":
            return cycle_complex(int(p[0]))
        if k == "tree":
            return tree_complex(int(p[0]), int(p[1]))
        if k == "rips":
            if spec.base is None:
                raise InvalidParameters("rips needs a base complex")
            return rips_complex(spec.base, float(p[0]), spec.max_dim)
        if k == "random":
            return random_complex(int(p[0]), float(p[1]), spec.seed, spec.max_dim)
    except IndexError as exc:
        raise InvalidParameters(f"kind {k!r} is missing parameters") from exc
    raise InvalidParameters(f"unknown generator kind {k!r}")


# --------------------------------------------------------------------------
# seeded samplers

def _random_face(rng: np.random.Generator, sigma: Simplex) -> Simplex:
    """A random face of sigma: first its size, then which vertices, kept in sigma's order."""
    size = int(rng.integers(1, len(sigma) + 1))
    return tuple(sigma[i] for i in sorted(rng.choice(len(sigma), size=size, replace=False)))


def random_point(
    K: SimplicialComplex,
    rng: np.random.Generator,
    face: Sequence[str] | None = None,
    min_weight: float = 0.05,
) -> BarycentricPoint:
    """Random point with support equal to a random (or given) face."""
    if face is None:
        face = _random_face(rng, K.maximal_simplices[rng.integers(len(K.maximal_simplices))])
    raw = min_weight + rng.random(len(face))
    return make_point(K, {v: float(w) for v, w in zip(face, raw)})


def random_vertex(K: SimplicialComplex, rng: np.random.Generator) -> BarycentricPoint:
    return vertex_point(K, K.vertices[rng.integers(len(K.vertices))])


def random_same_simplex_pair(
    K: SimplicialComplex, rng: np.random.Generator
) -> tuple[BarycentricPoint, BarycentricPoint]:
    sigma = K.maximal_simplices[rng.integers(len(K.maximal_simplices))]
    first = random_point(K, rng, face=sigma)
    second = random_point(K, rng, face=_random_face(rng, sigma))
    return first, second


def random_disjoint_pair(
    K: SimplicialComplex, rng: np.random.Generator, max_tries: int = 200
) -> tuple[BarycentricPoint, BarycentricPoint]:
    """Two points with disjoint supports; falls back to a vertex pair."""
    for _ in range(max_tries):
        a = random_point(K, rng)
        b = random_point(K, rng)
        if not set(a.support) & set(b.support):
            return a, b
    verts = list(K.vertices)
    u = verts[rng.integers(len(verts))]
    rest = [v for v in verts if v != u]
    v = rest[rng.integers(len(rest))]
    return vertex_point(K, u), vertex_point(K, v)


def grid_point(
    K: SimplicialComplex,
    rng: np.random.Generator,
    n: int,
    face: Sequence[str] | None = None,
) -> BarycentricPoint:
    """Random point with all weights integer multiples of 1/n."""
    if face is None:
        face = _random_face(rng, K.maximal_simplices[rng.integers(len(K.maximal_simplices))])
    k = len(face)
    if n < k:
        raise InvalidParameters(f"resolution 1/{n} too coarse for a face of size {k}")
    extra = rng.multinomial(n - k, [1.0 / k] * k)
    return make_point(K, {v: (1 + int(e)) / n for v, e in zip(face, extra)})


def _random_geodesic(K: SimplicialComplex, rng: np.random.Generator, u: str, v: str) -> list[str]:
    """Shortest edge path from u to v, each step drawn among the neighbours one step closer."""
    table = word_metric(K)
    index = table.index
    to_v = table.row(v)
    path = [u]
    while path[-1] != v:
        step = to_v[index[path[-1]]] - 1
        nxts = [w for w in K.adjacency[path[-1]] if to_v[index[w]] == step]
        path.append(nxts[rng.integers(len(nxts))])
    return path


def sample_geodesic_triples(
    K: SimplicialComplex, rng: np.random.Generator, count: int
) -> list[tuple[str, str, str]]:
    """(u, w, v) with w on a shortest edge path from u to v."""
    verts = list(K.vertices)
    out = []
    for _ in range(count):
        u = verts[rng.integers(len(verts))]
        v = verts[rng.integers(len(verts))]
        path = _random_geodesic(K, rng, u, v)
        w = path[rng.integers(len(path))]
        out.append((u, w, v))
    return out


def nested_quadruples(
    K: SimplicialComplex,
    rng: np.random.Generator,
    count: int,
    min_gap: int = 6,
) -> list[tuple[str, str, str, str]]:
    """Vertex quadruples (u, a, b, c) placed along long geodesics.

    u and b sit near the two ends, c after u and a before b, separated by at
    least min_gap, which drives the crossing double differences up.  Uniform
    sampling almost never produces such configurations.
    """
    table = word_metric(K)
    verts = list(K.vertices)
    out = []
    tries = 0
    while len(out) < count and tries < count * 50:
        tries += 1
        u = verts[rng.integers(len(verts))]
        from_u = table.row(u)
        far = from_u.max()
        if far < min_gap + 2:
            continue
        candidates = [v for v, d in zip(table.order, from_u) if d == far]
        b = candidates[rng.integers(len(candidates))]
        path = _random_geodesic(K, rng, u, b)
        length = len(path) - 1
        lo = int(rng.integers(1, max(2, length - min_gap - 1)))
        hi = lo + min_gap + int(rng.integers(0, max(1, length - lo - min_gap)))
        hi = min(hi, length - 1)
        if hi - lo < min_gap:
            continue
        c, a = path[lo], path[hi]
        out.append((u, a, b, c))
    return out


# --------------------------------------------------------------------------
# stock automorphisms of the generated families

def cycle_rotation(K: SimplicialComplex, shift: int = 1) -> Automorphism:
    vs = list(K.vertices)
    n = len(vs)
    return make_automorphism(K, {vs[i]: vs[(i + shift) % n] for i in range(n)})


def path_reversal(K: SimplicialComplex) -> Automorphism:
    vs = list(K.vertices)
    return make_automorphism(K, {v: w for v, w in zip(vs, reversed(vs))})


def simplex_transposition(K: SimplicialComplex) -> Automorphism:
    vs = list(K.vertices)
    mapping = {v: v for v in vs}
    mapping[vs[0]], mapping[vs[1]] = vs[1], vs[0]
    return make_automorphism(K, mapping)


def tree_reflection(K: SimplicialComplex, branching: int) -> Automorphism:
    """Mirror the complete tree by reversing every child list."""
    count = len(K.vertices)
    vs = list(K.vertices)
    children = _tree_children(branching, count)
    mapping: dict[str, str] = {}

    def walk(i: int, j: int) -> None:
        mapping[vs[i]] = vs[j]
        for ci, cj in zip(children[i], reversed(children[j])):
            walk(ci, cj)

    walk(0, 0)
    return make_automorphism(K, mapping)
