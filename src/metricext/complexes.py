"""Finite abstract simplicial complexes and barycentric points.

A complex is stored as its full face set (closed under subsets) plus the
canonical list of maximal simplices.  Simplices are sorted tuples of string
vertex labels; all iteration uses lexicographic label order so outputs are
reproducible bit-for-bit.  Complexes and points are immutable after
construction and safe to share across threads.

Each complex owns its derived tables (adjacency, vertex -> maximal-simplex
incidence, and the word table, built on first use); they are freed with it
and take no part in its equality or hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import (
    DisconnectedComplex,
    DuplicateVertex,
    EmptySimplex,
    NegativeWeight,
    NoCommonSimplex,
    NotAnAutomorphism,
    SupportNotASimplex,
    UnknownVertexInSimplex,
    WeightsNotNormalizable,
)

Simplex = tuple[str, ...]

# Stored weights below this are treated as exact zeros; support membership is
# thresholded so floating-point noise cannot create phantom support vertices.
WEIGHT_FLOOR = 1e-12
SUM_TOLERANCE = 1e-9


def make_simplex(vertices: Iterable[str]) -> Simplex:
    """Canonical simplex: sorted, duplicate-free, nonempty tuple of labels."""
    vs = tuple(sorted(set(vertices)))
    if not vs:
        raise EmptySimplex("a simplex needs at least one vertex")
    return vs


@dataclass(frozen=True, eq=False)
class WordMetricTable:
    """All-pairs breadth-first distances on the 1-skeleton."""

    order: tuple[str, ...]
    matrix: np.ndarray  # integer distances
    index: dict[str, int] = field(repr=False)

    def distance(self, u: str, v: str) -> float:
        return float(self.matrix[self.index[u], self.index[v]])


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract simplicial complex, closed under taking faces."""

    vertices: tuple[str, ...]
    maximal_simplices: tuple[Simplex, ...]
    faces: frozenset[Simplex]
    adjacency: Mapping[str, tuple[str, ...]] = field(compare=False, hash=False)
    # vertex -> indices into maximal_simplices of the maximal simplices holding it
    incidence: Mapping[str, tuple[int, ...]] = field(compare=False, hash=False)

    @cached_property
    def word_table(self) -> WordMetricTable:
        """The package's one source of word distances, a dense table built on first use.

        Raises DisconnectedComplex on every access if the 1-skeleton is not connected.
        """
        order = self.vertices
        index = {v: i for i, v in enumerate(order)}
        rows = [index[v] for v in order for _ in self.adjacency[v]]
        cols = [index[w] for v in order for w in self.adjacency[v]]
        graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(order),) * 2)
        dist = shortest_path(graph, method="D", unweighted=True, directed=False)
        if np.isinf(dist).any():
            raise DisconnectedComplex("1-skeleton is not connected")
        return WordMetricTable(order=order, matrix=dist.astype(np.int64), index=index)

    @property
    def dimension(self) -> int:
        return max(len(s) for s in self.maximal_simplices) - 1

    def has_simplex(self, vertices: Iterable[str]) -> bool:
        return tuple(sorted(set(vertices))) in self.faces

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self.adjacency[v]

    def edges(self) -> list[Simplex]:
        return sorted(s for s in self.faces if len(s) == 2)

    def simplices_of_dimension(self, d: int) -> list[Simplex]:
        return sorted(s for s in self.faces if len(s) == d + 1)

    def maximal_containing(self, vertices: Iterable[str]) -> list[Simplex]:
        """Maximal simplices containing the given vertex set, canonical order."""
        want = set(vertices)
        if not want:
            return list(self.maximal_simplices)
        hits = set.intersection(*(set(self.incidence.get(v, ())) for v in want))
        return [self.maximal_simplices[i] for i in sorted(hits)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimplicialComplex({len(self.vertices)} vertices, "
            f"{len(self.maximal_simplices)} maximal simplices, dim {self.dimension})"
        )


def build_complex(
    vertices: Iterable[str], maximal_simplices: Iterable[Iterable[str]]
) -> SimplicialComplex:
    """Validate input, close under faces and build adjacency.

    Raises DuplicateVertex, UnknownVertexInSimplex or EmptySimplex on bad
    input.  Listed simplices that turn out to be faces of other listed
    simplices are absorbed, so ``maximal_simplices`` on the result is a true
    antichain.
    """
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

    maximal = tuple(
        sorted(
            {s for s in listed if not any(set(s) < set(t) for t in listed)},
            key=lambda s: (len(s), s),
        )
    )

    faces: set[Simplex] = set()
    for s in maximal:
        for k in range(1, len(s) + 1):
            faces.update(combinations(s, k))

    adjacency: dict[str, list[str]] = {v: [] for v in sorted(vset)}
    for s in faces:
        if len(s) == 2:
            a, b = s
            adjacency[a].append(b)
            adjacency[b].append(a)
    adj = {v: tuple(sorted(ns)) for v, ns in adjacency.items()}

    incidence: dict[str, list[int]] = {v: [] for v in sorted(vset)}
    for i, s in enumerate(maximal):
        for v in s:
            incidence[v].append(i)

    return SimplicialComplex(
        vertices=tuple(sorted(vset)),
        maximal_simplices=maximal,
        faces=frozenset(faces),
        adjacency=adj,
        incidence={v: tuple(ix) for v, ix in incidence.items()},
    )


@dataclass(frozen=True)
class BarycentricPoint:
    """Point of a complex as a sparse vertex -> weight map.

    Weights are positive, sum to 1 (renormalized on construction) and the
    support spans a simplex of the owning complex.  Instances are hashable
    and compare by their exact stored weights.
    """

    items: tuple[tuple[str, float], ...]  # sorted by label, weights > 0

    @property
    def support(self) -> Simplex:
        return tuple(v for v, _ in self.items)

    @property
    def weights(self) -> dict[str, float]:
        return dict(self.items)

    def get(self, v: str) -> float:
        for u, w in self.items:
            if u == v:
                return w
        return 0.0

    @property
    def is_vertex(self) -> bool:
        return len(self.items) == 1

    def key(self) -> tuple[tuple[str, float], ...]:
        return self.items

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}:{w:.6g}" for v, w in self.items)
        return f"Point({inner})"


def make_point(K: SimplicialComplex, weights: Mapping[str, float]) -> BarycentricPoint:
    """Normalized barycentric point whose support must span a simplex of K."""
    for v, w in weights.items():
        if w < 0:
            raise NegativeWeight(f"weight of {v!r} is negative ({w})")
    kept = {v: float(w) for v, w in weights.items() if w >= WEIGHT_FLOOR}
    total = sum(kept[v] for v in sorted(kept))
    if total <= 0:
        raise WeightsNotNormalizable(f"weights sum to {total}, cannot normalize")
    normalized = {v: w / total for v, w in kept.items()}
    # Renormalization may expose weights under the floor; drop and repeat once.
    again = {v: w for v, w in normalized.items() if w >= WEIGHT_FLOOR}
    if len(again) != len(normalized):
        total = sum(again[v] for v in sorted(again))
        if total <= 0:
            raise WeightsNotNormalizable("all weight below representable floor")
        normalized = {v: w / total for v, w in again.items()}

    support = tuple(sorted(normalized))
    if support not in K.faces:
        raise SupportNotASimplex(f"support {support} does not span a simplex")
    return BarycentricPoint(items=tuple((v, normalized[v]) for v in support))


def vertex_point(K: SimplicialComplex, v: str) -> BarycentricPoint:
    return make_point(K, {v: 1.0})


def support(x: BarycentricPoint) -> Simplex:
    """Vertices carrying nonzero weight."""
    return x.support


def common_simplex(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint
) -> Simplex | None:
    """Smallest simplex containing both supports, or None.

    Because faces are closed under subsets, a containing simplex exists iff
    the support union itself is a face, and then the union is the canonical
    smallest choice.
    """
    union = tuple(sorted(set(x.support) | set(y.support)))
    return union if union in K.faces else None


def simplex_l1(x: BarycentricPoint, y: BarycentricPoint) -> float:
    """Half the l1 difference of barycentric coordinates.

    Defined for points in a common simplex; scaled so two distinct vertices
    are at distance exactly 1.  The value only depends on the coordinates,
    never on which common simplex is used.
    """
    xw, yw = x.weights, y.weights
    return 0.5 * sum(abs(xw.get(v, 0.0) - yw.get(v, 0.0)) for v in sorted(set(xw) | set(yw)))


def simplex_l1_checked(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint
) -> float:
    if common_simplex(K, x, y) is None:
        raise NoCommonSimplex(f"supports {x.support} and {y.support} share no simplex")
    return simplex_l1(x, y)


@dataclass(frozen=True)
class Automorphism:
    """Simplicial automorphism given by a vertex bijection."""

    mapping: tuple[tuple[str, str], ...]  # sorted by source label

    def __call__(self, v: str) -> str:
        return dict(self.mapping)[v]

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)


def make_automorphism(K: SimplicialComplex, mapping: Mapping[str, str]) -> Automorphism:
    """Validate that the vertex bijection maps simplices to simplices."""
    if sorted(mapping) != list(K.vertices) or sorted(mapping.values()) != list(K.vertices):
        raise NotAnAutomorphism("mapping is not a bijection of the vertex set")
    # Checking maximal simplices suffices: faces of images are images of faces.
    for s in K.maximal_simplices:
        image = tuple(sorted(mapping[v] for v in s))
        if image not in K.faces:
            raise NotAnAutomorphism(f"image {image} of simplex {s} is not a simplex")
    return Automorphism(mapping=tuple(sorted(mapping.items())))


def apply_automorphism(
    K: SimplicialComplex, g: Automorphism, x: BarycentricPoint
) -> BarycentricPoint:
    """Relabel the weights of a point by the automorphism."""
    m = g.as_dict()
    relabeled = {m[v]: w for v, w in x.items}
    support = tuple(sorted(relabeled))
    if support not in K.faces:
        raise NotAnAutomorphism(f"image support {support} is not a simplex")
    return BarycentricPoint(items=tuple((v, relabeled[v]) for v in support))
