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

Every random face is a face of a maximal simplex's id row of
`K.simplex_csr`, drawn under one hold of the bit generator's lock, and
every sampled point is built from ascending vertex ids and weights by
`_point_on`; no sampler reads a label view of a whole table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .complexes import BarycentricPoint, SimplicialComplex, complex_from_ids, vertex_point
from .errors import InvalidParameters, SupportNotASimplex, WeightsNotNormalizable
from .vertexmetrics import word_metric

DEFAULT_MAX_DIM = 3  # the largest simplex dimension a rips or random complex keeps


def _labels(prefix: str, count: int) -> tuple[str, ...]:
    width = max(2, len(str(count - 1)))
    return tuple([prefix + str(i).zfill(width) for i in range(count)])


def _rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, ids) of equal-size id rows, as `complex_from_ids` takes them; a lone vertex needs no row."""
    return np.full(len(rows), rows.shape[1]), rows.ravel()


def simplex_complex(n: int) -> SimplicialComplex:
    """The full n-simplex: one maximal simplex on n+1 vertices."""
    if n < 0:
        raise InvalidParameters("simplex dimension must be >= 0")
    return complex_from_ids(_labels("s", n + 1), *_rows(np.arange(n + 1)[None, :]))


def path_complex(n: int) -> SimplicialComplex:
    """Path with n vertices and n-1 edges."""
    if n < 1:
        raise InvalidParameters("path needs at least one vertex")
    i = np.arange(n)
    return complex_from_ids(_labels("p", n), *_rows(np.stack([i[:-1], i[1:]], axis=1)))


def cycle_complex(n: int) -> SimplicialComplex:
    """Cycle with n vertices and n edges."""
    if n < 3:
        raise InvalidParameters("cycle needs at least three vertices")
    i = np.arange(n)
    return complex_from_ids(_labels("c", n), *_rows(np.stack([i, (i + 1) % n], axis=1)))


def tree_complex(branching: int, depth: int) -> SimplicialComplex:
    """Complete rooted tree: every non-leaf has `branching` children."""
    if branching < 1 or depth < 0:
        raise InvalidParameters("need branching >= 1 and depth >= 0")
    count = sum(branching**k for k in range(depth + 1))
    child = np.arange(1, count)
    return complex_from_ids(_labels("t", count), *_rows(np.stack([(child - 1) // branching, child], axis=1)))


def _flag_complex(
    labels: tuple[str, ...], edges: Iterable[Sequence[int]], max_size: int
) -> SimplicialComplex:
    """The complex of `_cliques` on labels, its cliques handed over as ids."""
    cliques = _cliques(len(labels), edges, max_size)
    sizes = np.fromiter(map(len, cliques), dtype=np.int64, count=len(cliques))
    ids = np.fromiter(chain.from_iterable(cliques), dtype=np.int64, count=int(sizes.sum()))
    return complex_from_ids(labels, sizes, ids)


def _cliques(n: int, edges: Iterable[Sequence[int]], max_size: int) -> list[tuple[int, ...]]:
    """The flag complex's maximal simplices of at most max_size vertices, as ascending ids.

    The graph is on vertices 0 .. n-1 and its edges are pairs i < j.  Every
    clique is grown once, through the common higher-numbered neighbours of
    its members (Bron & Kerbosch, 1973), and listed when it has max_size
    vertices or no vertex is adjacent to all of its members: the cliques of
    at most max_size vertices that no larger such clique holds.
    """
    up: list[set[int]] = [set() for _ in range(n)]
    near: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        up[i].add(j)
        near[i].add(j)
        near[j].add(i)
    out: list[tuple[int, ...]] = []

    def grow(clique: tuple[int, ...], common: set[int], shared: set[int]) -> None:
        # shared: the vertices adjacent to every member; common: those numbered above them all
        if len(clique) == max_size or not shared:
            out.append(clique)
        else:
            for j in sorted(common):
                grow(clique + (j,), common & up[j], shared & near[j])

    for i in range(n):
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
    adjacency = base.adjacency_csr.all_rows()
    near = [(i, j) for i in range(len(base.vertices)) for j in _ball(adjacency, i, radius) if j > i]
    return _flag_complex(base.vertices, near, max_dim + 1)


def _ball(adjacency: list[list[int]], v: int, radius: float) -> set[int]:
    """Ids at word distance at most radius from vertex id v, by a breadth-first search cut at that depth."""
    ball, frontier, depth = {v}, [v], 1
    while frontier and depth <= radius:
        grown = []
        for a in frontier:
            for b in adjacency[a]:
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
    return _flag_complex(_labels("g", n), edges, max_dim + 1)


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


def _face(rng: np.random.Generator, c, sigma: Sequence) -> tuple:
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


def _simplex_face(rng: np.random.Generator, c, K: SimplicialComplex) -> tuple[int, ...]:
    """The ascending vertex ids of a random face of a random maximal simplex, drawn on interface c under its lock."""
    simplices = K.simplex_csr
    return _face(rng, c, simplices.row(_below(rng, c, len(simplices))))


def random_point(
    K: SimplicialComplex, rng: np.random.Generator, face: Sequence[str] | None = None
) -> BarycentricPoint:
    """Random point with support equal to a random (or given) face.

    Each weight is MIN_WEIGHT plus a uniform draw, before normalizing.  A
    given face raises as `make_point` would on its labels: an unknown label
    or a non-face raises SupportNotASimplex, an empty face
    WeightsNotNormalizable, and a repeated label keeps its later weight.
    """
    bits = rng.bit_generator
    with bits.lock:  # one hold for all of the point's draws
        c = bits.ctypes
        if face is None:
            ids = _simplex_face(rng, c, K)
            return _point_on(K, ids, [MIN_WEIGHT + w for w in _uniforms(c, len(ids))])
        drawn = dict(zip(map(K.index.get, face), _uniforms(c, len(face))))  # id -> its later draw
    if not drawn:
        raise WeightsNotNormalizable("weights sum to 0, cannot normalize")
    ids = () if None in drawn else sorted(drawn)  # an unknown label makes no face, nor does ()
    if not K.holds(ids):
        raise SupportNotASimplex(f"support {tuple(sorted(set(face)))} does not span a simplex")
    return _point_on(K, ids, [MIN_WEIGHT + drawn[i] for i in ids])


def _point_on(K: SimplicialComplex, ids: Sequence[int], weights: list[float]) -> BarycentricPoint:
    """The point on the face with ascending vertex ids `ids` and these weights, normalized.

    It is the point `make_point` makes from those labels and weights, built
    without its checks: ids ascend in label order, so the weights are summed
    in the order it sums them; the ids are a face of K; and no weight falls
    under WEIGHT_FLOOR, so none is dropped.  A weight MIN_WEIGHT + draw is
    at least MIN_WEIGHT / (1 + MIN_WEIGHT) / len(ids) once normalized, and a
    grid weight (1 + e) / n, summing to 1 with the others, at least 1 / n:
    above the floor for every resolution n below 10**11.
    """
    total = sum(weights)
    return BarycentricPoint(tuple([(i, w / total) for i, w in zip(ids, weights)]), K.vertices)


def random_vertex(K: SimplicialComplex, rng: np.random.Generator) -> BarycentricPoint:
    return vertex_point(K, _pick(rng, K.vertices))


def random_quadruples(
    K: SimplicialComplex, rng: np.random.Generator, count: int
) -> list[tuple[BarycentricPoint, ...]]:
    """Quadruples of four random vertices or of four random points, a fair draw picking which."""
    out = []
    for _ in range(count):
        vertices = _integer(rng, 2)
        out.append(tuple(
            random_vertex(K, rng) if vertices else random_point(K, rng) for _ in range(4)
        ))
    return out


def random_same_simplex_pair(
    K: SimplicialComplex, rng: np.random.Generator
) -> tuple[BarycentricPoint, BarycentricPoint]:
    """Two random points of one random maximal simplex: one on all of it, one on a random face."""
    simplices = K.simplex_csr
    bits = rng.bit_generator
    with bits.lock:  # one hold for all of the pair's draws
        c = bits.ctypes
        sigma = simplices.row(_below(rng, c, len(simplices)))
        first = [MIN_WEIGHT + w for w in _uniforms(c, len(sigma))]
        face = _face(rng, c, sigma)
        second = [MIN_WEIGHT + w for w in _uniforms(c, len(face))]
    return _point_on(K, sigma, first), _point_on(K, face, second)


def random_disjoint_pair(
    K: SimplicialComplex, rng: np.random.Generator
) -> tuple[BarycentricPoint, BarycentricPoint]:
    """Two points with disjoint supports; after DISJOINT_TRIES failed draws, a vertex pair."""
    verts = K.vertices
    if len(verts) < 2:
        raise InvalidParameters("a disjoint pair needs at least two vertices")
    for _ in range(DISJOINT_TRIES):
        a = random_point(K, rng)
        b = random_point(K, rng)
        if set(a.ids).isdisjoint(b.ids):
            return a, b
    i = _integer(rng, len(verts))
    j = _integer(rng, len(verts) - 1)  # an index among the other vertices
    return vertex_point(K, verts[i]), vertex_point(K, verts[j + (j >= i)])


def grid_point(K: SimplicialComplex, rng: np.random.Generator, n: int) -> BarycentricPoint:
    """Random point with all weights integer multiples of 1/n, on a face drawn as `random_point` draws one."""
    bits = rng.bit_generator
    with bits.lock:
        ids = _simplex_face(rng, bits.ctypes, K)
    k = len(ids)
    if n < k:
        raise InvalidParameters(f"resolution 1/{n} too coarse for a face of size {k}")
    extra = rng.multinomial(n - k, [1.0 / k] * k)
    return _point_on(K, ids, [(1 + e) / n for e in extra.tolist()])


def _random_geodesic(K: SimplicialComplex, rng: np.random.Generator, a: int, b: int) -> list[str]:
    """Labels of a shortest edge path from vertex a to vertex b, each step drawn among the nearer neighbours."""
    to_v = word_metric(K).row(b)
    row = K.adjacency_csr.row
    path = [a]
    while a != b:
        step = to_v.item(a) - 1
        a = _pick(rng, [w for w in row(a) if to_v.item(w) == step])
        path.append(a)
    return [K.vertices[i] for i in path]


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
    verts = K.vertices
    out = []
    tries = 0
    while len(out) < count and tries < count * 50:
        tries += 1
        u = _integer(rng, len(verts))
        from_u = table.row(u)
        far = from_u.max()
        if far < MIN_GAP + 2:
            continue
        b = _pick(rng, np.flatnonzero(from_u == far))  # the vertices at distance far, by id
        path = _random_geodesic(K, rng, u, b)
        length = len(path) - 1
        lo = 1 + _integer(rng, max(1, length - MIN_GAP - 2))
        hi = lo + MIN_GAP + _integer(rng, max(1, length - lo - MIN_GAP))
        hi = min(hi, length - 1)
        if hi - lo < MIN_GAP:
            continue
        c, a = path[lo], path[hi]
        out.append((verts[u], a, verts[b], c))
    return out
