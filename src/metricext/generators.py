"""Test-complex generators and seeded samplers.

Every generator is deterministic: the same spec (and seed, where one
applies) reproduces the same complex label-for-label.  Vertex labels are
zero-padded so lexicographic order matches construction order.

The samplers draw numpy's `Generator` stream themselves, through the public
`rng.bit_generator.ctypes` interface (`next_uint32`, `next_double`), with
numpy's own algorithms: `integers(n)` is Lemire's rejection on 32-bit words
(Lemire 2019), `choice(k, size, replace=False)` is Floyd's sampling
(Bentley & Floyd 1987) followed by the draws of numpy's shuffle, and
`random(k)` is k calls of `next_double`.  A seed therefore gives the same
points as numpy's calls would, without their per-call cost on arrays of one
to three entries.  Draws where numpy's algorithm differs go to numpy: a face
of more than 10,000 vertices and a range above 2**32.  `grid_point`'s
multinomial is numpy's own call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .complexes import (
    BarycentricPoint,
    Simplex,
    SimplicialComplex,
    build_complex,
    make_point,
    vertex_point,
)
from .errors import InvalidParameters
from .vertexmetrics import word_metric

DEFAULT_MAX_DIM = 3  # the largest simplex dimension a rips or random complex keeps


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


def tree_complex(branching: int, depth: int) -> SimplicialComplex:
    """Complete rooted tree: every non-leaf has `branching` children."""
    if branching < 1 or depth < 0:
        raise InvalidParameters("need branching >= 1 and depth >= 0")
    count = sum(branching**k for k in range(depth + 1))
    vs = _labels("t", count)
    edges = [(vs[(c - 1) // branching], vs[c]) for c in range(1, count)]
    return build_complex(vs, edges or [vs])


def _cliques(vs: Sequence[str], edges: Iterable[Sequence[int]], max_size: int) -> list[list[str]]:
    """The flag complex's maximal simplices of at most max_size vertices; edges are pairs i < j.

    Every clique is grown once, through the common higher-numbered
    neighbours of its members (Bron & Kerbosch, 1973), and listed when it
    has max_size vertices or no vertex is adjacent to all of its members:
    the cliques of at most max_size vertices that no larger such clique
    holds.  Edges index into vs.
    """
    up: list[set[int]] = [set() for _ in vs]
    near: list[set[int]] = [set() for _ in vs]
    for i, j in edges:
        up[i].add(j)
        near[i].add(j)
        near[j].add(i)
    out: list[list[str]] = []

    def grow(clique: tuple[int, ...], common: set[int], shared: set[int]) -> None:
        # shared: the vertices adjacent to every member; common: those numbered above them all
        if len(clique) == max_size or not shared:
            out.append([vs[i] for i in clique])
        else:
            for j in sorted(common):
                grow(clique + (j,), common & up[j], shared & near[j])

    for i in range(len(vs)):
        grow((i,), up[i], near[i])
    return out


def rips_complex(
    base: SimplicialComplex, radius: float, max_dim: int = DEFAULT_MAX_DIM
) -> SimplicialComplex:
    """Truncated flag complex of the radius-r neighborhood graph.

    Vertices at word distance <= r in the base 1-skeleton become adjacent;
    every clique with at most max_dim + 1 vertices becomes a simplex.
    """
    if not radius >= 1 or max_dim < 1:  # a NaN radius fails the first test
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
    n: int, density: float, seed: int, max_dim: int = DEFAULT_MAX_DIM
) -> SimplicialComplex:
    """Flag complex over a connected Erdos-Renyi-style graph."""
    if n < 2 or not (0.0 <= density <= 1.0) or max_dim < 1:
        raise InvalidParameters("need n >= 2, density in [0, 1] and max_dim >= 1")
    rng = np.random.default_rng(seed)
    # one uniform per pair, in combinations order: the stream of n(n-1)/2 scalar draws,
    # made 2**16 at a time so that memory does not grow with the pairs
    pairs, block = n * (n - 1) // 2, 1 << 16
    lengths = np.arange(n - 1, 0, -1)
    starts = np.cumsum(lengths) - lengths  # row i's pairs (i, j > i) start at flat index starts[i]
    edges = []
    for first in range(0, pairs, block):
        drawn = np.flatnonzero(rng.random(min(block, pairs - first)) < density) + first
        rows = np.searchsorted(starts, drawn, side="right") - 1
        edges += zip(rows.tolist(), (drawn - starts[rows] + rows + 1).tolist())
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
    max_dim: int = DEFAULT_MAX_DIM


def _whole(value: float) -> int:
    """A count parameter as an int; a fractional one raises InvalidParameters, not truncated."""
    if not float(value).is_integer():
        raise InvalidParameters(f"parameter {value!r} must be a whole number")
    return int(value)


def generate(spec: GeneratorSpec) -> SimplicialComplex:
    """Build the complex a GeneratorSpec describes."""
    k, p = spec.kind, spec.params
    try:
        if k == "simplex":
            return simplex_complex(_whole(p[0]))
        if k == "path":
            return path_complex(_whole(p[0]))
        if k == "cycle":
            return cycle_complex(_whole(p[0]))
        if k == "tree":
            return tree_complex(_whole(p[0]), _whole(p[1]))
        if k == "rips":
            if spec.base is None:
                raise InvalidParameters("rips needs a base complex")
            return rips_complex(spec.base, float(p[0]), spec.max_dim)
        if k == "random":
            return random_complex(_whole(p[0]), float(p[1]), spec.seed, spec.max_dim)
    except IndexError as exc:
        raise InvalidParameters(f"kind {k!r} is missing parameters") from exc
    raise InvalidParameters(f"unknown generator kind {k!r}")


# --------------------------------------------------------------------------
# seeded samplers

MIN_WEIGHT = 0.05  # random_point's least weight before normalizing
DISJOINT_TRIES = 200  # random_disjoint_pair's draws of a point pair before its vertex-pair fallback
_WORD = 1 << 32  # numpy bounds a range of at most 2**32 values with 32-bit words
_FLOYD_MAX = 10_000  # numpy samples a larger population without replacement by another method


def _lemire(next_uint32, state, n: int) -> int:
    """A uniform draw from range(n), 1 <= n <= 2**32, as numpy's `integers(n)` makes it.

    Lemire's multiply-and-reject (Lemire 2019) on 32-bit words: the high
    word of word * n, redrawn while the low word falls under 2**32 mod n.
    n == 1 consumes no word and n == 2**32 takes one word as it is.
    """
    if n == 1:
        return 0
    if n == _WORD:
        return next_uint32(state)
    m = next_uint32(state) * n
    if m & 0xFFFFFFFF < n:
        threshold = _WORD % n
        while m & 0xFFFFFFFF < threshold:
            m = next_uint32(state) * n
    return m >> 32


def _below(rng: np.random.Generator, c, n: int) -> int:
    """int(rng.integers(n)) on rng's bit generator interface c, whose lock the caller holds.

    Beyond 2**32 numpy draws 64-bit words, and it raises for n <= 0; both go
    to numpy, which may take the lock again (it is reentrant).
    """
    if 1 <= n <= _WORD:
        return _lemire(c.next_uint32, c.state, n)
    return int(rng.integers(n))


def _face(rng: np.random.Generator, c, sigma: Simplex) -> Simplex:
    """A random face of sigma, drawn on interface c under its lock: its size, then which vertices.

    The indices are sorted(rng.choice(k, size=1 + int(rng.integers(k)),
    replace=False)) for k = len(sigma), from the same stream.  Up to 10,000
    vertices numpy's choice is Floyd's algorithm (Bentley & Floyd 1987): for
    j in [k - size, k) draw i in [0, j] and take i, or j when i is taken.  A
    shuffle of the sample follows; its size - 1 draws are made and dropped,
    since the indices are sorted.
    """
    k = len(sigma)
    size = 1 + _below(rng, c, k)
    if k > _FLOYD_MAX:
        return tuple(sigma[i] for i in sorted(rng.choice(k, size=size, replace=False).tolist()))
    next_uint32, state = c.next_uint32, c.state
    chosen: set[int] = set()
    for j in range(k - size, k):
        i = _lemire(next_uint32, state, j + 1)
        chosen.add(j if i in chosen else i)
    for j in range(size, 1, -1):
        _lemire(next_uint32, state, j)
    return tuple(sigma[i] for i in sorted(chosen))


def _uniforms(c, k: int) -> list[float]:
    """rng.random(k) as a list, drawn on interface c under its lock."""
    next_double, state = c.next_double, c.state
    return [next_double(state) for _ in range(k)]


def _integer(rng: np.random.Generator, n: int) -> int:
    """int(rng.integers(n)), drawn from the same stream."""
    bits = rng.bit_generator
    with bits.lock:
        return _below(rng, bits.ctypes, n)


def _pick(rng: np.random.Generator, items: Sequence):
    return items[_integer(rng, len(items))]


def _random_face(rng: np.random.Generator, sigma: Simplex) -> Simplex:
    """A random face of sigma: first its size, then which vertices, kept in sigma's order."""
    bits = rng.bit_generator
    with bits.lock:
        return _face(rng, bits.ctypes, sigma)


def random_point(
    K: SimplicialComplex, rng: np.random.Generator, face: Sequence[str] | None = None
) -> BarycentricPoint:
    """Random point with support equal to a random (or given) face.

    Each weight is MIN_WEIGHT plus a uniform draw, before normalizing.
    """
    bits = rng.bit_generator
    with bits.lock:  # one hold for all of the point's draws
        c = bits.ctypes
        if face is None:
            simplices = K.maximal_simplices
            face = _face(rng, c, simplices[_below(rng, c, len(simplices))])
        weights = _uniforms(c, len(face))
    return make_point(K, {v: MIN_WEIGHT + w for v, w in zip(face, weights)})


def random_vertex(K: SimplicialComplex, rng: np.random.Generator) -> BarycentricPoint:
    return vertex_point(K, _pick(rng, K.vertices))


def random_quadruples(
    K: SimplicialComplex, rng: np.random.Generator, count: int
) -> list[tuple[BarycentricPoint, ...]]:
    """Quadruples of four random vertices or of four random points, a fair draw picking which."""
    out = []
    for _ in range(count):
        vertices = rng.integers(2)
        out.append(tuple(
            random_vertex(K, rng) if vertices else random_point(K, rng) for _ in range(4)
        ))
    return out


def random_same_simplex_pair(
    K: SimplicialComplex, rng: np.random.Generator
) -> tuple[BarycentricPoint, BarycentricPoint]:
    sigma = _pick(rng, K.maximal_simplices)
    first = random_point(K, rng, face=sigma)
    second = random_point(K, rng, face=_random_face(rng, sigma))
    return first, second


def random_disjoint_pair(
    K: SimplicialComplex, rng: np.random.Generator
) -> tuple[BarycentricPoint, BarycentricPoint]:
    """Two points with disjoint supports; after DISJOINT_TRIES failed draws, a vertex pair."""
    for _ in range(DISJOINT_TRIES):
        a = random_point(K, rng)
        b = random_point(K, rng)
        if not set(a.support) & set(b.support):
            return a, b
    verts = K.vertices
    i = _integer(rng, len(verts))
    j = _integer(rng, len(verts) - 1)  # an index among the other vertices
    return vertex_point(K, verts[i]), vertex_point(K, verts[j + (j >= i)])


def grid_point(
    K: SimplicialComplex,
    rng: np.random.Generator,
    n: int,
    face: Sequence[str] | None = None,
) -> BarycentricPoint:
    """Random point with all weights integer multiples of 1/n."""
    if face is None:
        face = _random_face(rng, _pick(rng, K.maximal_simplices))
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
        path.append(_pick(rng, nxts))
    return path


MIN_GAP = 6  # nested_quadruples' least separation of c and a along the geodesic


def nested_quadruples(
    K: SimplicialComplex,
    rng: np.random.Generator,
    count: int,
) -> list[tuple[str, str, str, str]]:
    """Vertex quadruples (u, a, b, c) placed along long geodesics.

    u and b sit near the two ends, c after u and a before b, separated by at
    least MIN_GAP, which drives the crossing double differences up.  Uniform
    sampling almost never produces such configurations.
    """
    table = word_metric(K)
    verts = list(K.vertices)
    out = []
    tries = 0
    while len(out) < count and tries < count * 50:
        tries += 1
        u = _pick(rng, verts)
        from_u = table.row(u)
        far = from_u.max()
        if far < MIN_GAP + 2:
            continue
        candidates = [v for v, d in zip(table.order, from_u) if d == far]
        b = _pick(rng, candidates)
        path = _random_geodesic(K, rng, u, b)
        length = len(path) - 1
        lo = 1 + _integer(rng, max(1, length - MIN_GAP - 2))
        hi = lo + MIN_GAP + _integer(rng, max(1, length - lo - MIN_GAP))
        hi = min(hi, length - 1)
        if hi - lo < MIN_GAP:
            continue
        c, a = path[lo], path[hi]
        out.append((u, a, b, c))
    return out
