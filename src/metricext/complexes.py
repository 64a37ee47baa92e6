"""Finite abstract simplicial complexes and barycentric points.

A complex is stored as the canonical list of its maximal simplices; a vertex
set is a face when some maximal simplex holds it all (`spans`).  Simplices
are sorted tuples of string vertex labels; all iteration uses lexicographic
label order so outputs are reproducible bit-for-bit.  Complexes and points
are immutable after construction.

A barycentric point stores its sorted (vertex, weight) items and, once, when
it is made, its support; the per-simplex l1 distance is one merge of two
points' items.

Construction is one bulk pass over the simplices that survive.  No other
listed simplex can hold one of the largest listed size, so those are maximal
untested; a smaller one is maximal when no other listed simplex holds all of
its vertices, read off a vertex -> listed-simplex index that is built only
when such a simplex exists.  The generators list only maximal simplices.

Each complex owns its derived tables (adjacency, vertex -> maximal-simplex
incidence, and, created on first use, the word table, the grid oracle's
graphs by resolution and, one maximal simplex at a time as the path search
asks, the maximal simplices meeting it); they are freed with it and take no
part in its equality or hash.

The word table holds no V^2 array.  It answers word distances on demand:
a row is one single-source search, kept in a small LRU; a single distance
is read from a kept row of either end, or found by a bidirectional search
over the adjacency and remembered in a bounded memo.  Its dense `matrix` is
built only for the consumers that need every pair (validating an explicit
metric, the four-point scan).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import (
    DisconnectedComplex,
    DuplicateVertex,
    EmptySimplex,
    NegativeWeight,
    NotAnAutomorphism,
    SupportNotASimplex,
    UnknownVertexInSimplex,
    WeightsNotNormalizable,
)

if TYPE_CHECKING:
    from .oracle import GridGraph

Simplex = tuple[str, ...]

# Stored weights below this are treated as exact zeros; support membership is
# thresholded so floating-point noise cannot create phantom support vertices.
WEIGHT_FLOOR = 1e-12

# The one tolerance for comparing computed values: axioms, bounds, identities.
VALUE_TOL = 1e-9

# What a word table keeps: rows up to this many int32 entries in all (4 MiB),
# and this many searched pairs.  They bound memory; answers do not depend on them.
ROW_ENTRIES_KEPT = 1 << 20
PAIRS_KEPT = 1 << 16


def make_simplex(vertices: Iterable[str]) -> Simplex:
    """Canonical simplex: sorted, duplicate-free, nonempty tuple of labels."""
    vs = tuple(sorted(set(vertices)))
    if not vs:
        raise EmptySimplex("a simplex needs at least one vertex")
    return vs


class WordMetricTable:
    """Word distances on the 1-skeleton, computed on demand.

    Nothing V^2 is held: a row (one vertex's distances to all others) is one
    single-source search, and the last `rows_kept` rows are kept.  A single
    distance is read from a kept row of either end; otherwise a bidirectional
    breadth-first search finds it and the last `PAIRS_KEPT` such answers are
    remembered.  `matrix`, the dense all-pairs table, is built only when a
    consumer that needs every pair asks for it.  The caches only ever hold
    exact distances, so which one answers never changes a value.
    """

    def __init__(self, order: tuple[str, ...], adjacency: Mapping[str, tuple[str, ...]]):
        self.order = order
        n = len(order)
        self.index = index = dict(zip(order, range(n)))
        self.adjacency = adjacency
        self.rows_kept = max(1, ROW_ENTRIES_KEPT // n)
        # row i holds the indices of order[i]'s neighbours, ascending as adjacency lists them
        neighbours = list(map(adjacency.__getitem__, order))
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.fromiter(map(len, neighbours), dtype=np.int32, count=n), out=indptr[1:])
        entries = int(indptr[-1])
        indices = np.fromiter(
            map(index.__getitem__, chain.from_iterable(neighbours)), dtype=np.int32, count=entries
        )
        self._graph = csr_matrix((np.ones(entries), indices, indptr), shape=(n, n))
        first = self._search_row(0)
        if np.isinf(first).any():
            raise DisconnectedComplex("1-skeleton is not connected")
        self._rows: OrderedDict[str, np.ndarray] = OrderedDict()
        self._keep_row(order[0], first)
        self._pairs: dict[tuple[str, str], float] = {}

    def _search_row(self, i: int) -> np.ndarray:
        # the graph is symmetric, so a directed search gives the same row without a transpose
        return shortest_path(self._graph, method="D", unweighted=True, directed=True, indices=i)

    def _keep_row(self, u: str, dist: np.ndarray) -> np.ndarray:
        row = dist.astype(np.int32)
        row.flags.writeable = False
        self._rows[u] = row
        if len(self._rows) > self.rows_kept:
            self._rows.popitem(last=False)
        return row

    def row(self, u: str) -> np.ndarray:
        """Read-only distances from u to every vertex, in `order`."""
        row = self._rows.get(u)
        if row is not None:
            self._rows.move_to_end(u)
            return row
        return self._keep_row(u, self._search_row(self.index[u]))

    def distance(self, u: str, v: str) -> float:
        """Word distance from u to v: read from a kept row, remembered, or searched."""
        if u == v:
            return 0.0
        row = self._rows.get(u)
        if row is not None:
            return float(row.item(self.index[v]))
        row = self._rows.get(v)
        if row is not None:
            return float(row.item(self.index[u]))
        key = (u, v) if u <= v else (v, u)
        d = self._pairs.get(key)
        if d is None:
            d = self._pairs[key] = float(self._search_pair(u, v))
            if len(self._pairs) > PAIRS_KEPT:
                del self._pairs[next(iter(self._pairs))]
        return d

    def _search_pair(self, u: str, v: str) -> int:
        """Breadth-first search from both ends, a whole level of the smaller frontier at a time.

        Before a level of one side is grown, the two searched balls are
        disjoint, so the distance exceeds the sum of their radii; the first
        vertex the growing side finds in the other ball therefore closes a
        shortest path.
        """
        if u == v:
            return 0
        adjacency = self.adjacency
        seen = ({u: 0}, {v: 0})
        frontier = [[u], [v]]
        while frontier[0] and frontier[1]:
            side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
            mine, other = seen[side], seen[1 - side]
            grown = []
            for a in frontier[side]:
                step = mine[a] + 1
                for b in adjacency[a]:
                    if b in other:
                        return step + other[b]
                    if b not in mine:
                        mine[b] = step
                        grown.append(b)
            frontier[side] = grown
        raise DisconnectedComplex(f"no edge path from {u!r} to {v!r}")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense all-pairs table (int64), built on first use."""
        return shortest_path(self._graph, method="D", unweighted=True, directed=False).astype(np.int64)


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract simplicial complex: its faces are the subsets of its maximal simplices."""

    vertices: tuple[str, ...]
    maximal_simplices: tuple[Simplex, ...]
    adjacency: Mapping[str, tuple[str, ...]] = field(compare=False, hash=False)
    # vertex -> indices into maximal_simplices of the maximal simplices holding it
    incidence: Mapping[str, tuple[int, ...]] = field(compare=False, hash=False)

    @cached_property
    def word_table(self) -> WordMetricTable:
        """The package's one source of word distances, created on first use.

        Raises DisconnectedComplex on every access if the 1-skeleton is not connected.
        """
        return WordMetricTable(self.vertices, self.adjacency)

    @cached_property
    def grids(self) -> dict[int, GridGraph]:
        """The grid oracle's graphs by resolution n, filled by `oracle.build_grid`."""
        return {}

    @cached_property
    def _neighbour_rows(self) -> dict[int, tuple[int, ...]]:
        """The rows `neighbours` has built, by maximal simplex."""
        return {}

    def neighbours(self, s: int) -> tuple[int, ...]:
        """Indices of the other maximal simplices meeting maximal simplex s, ascending.

        A row is built the first time it is asked for and kept on the complex.
        """
        row = self._neighbour_rows.get(s)
        if row is None:
            incidence = self.incidence
            row = tuple(sorted({t for w in self.maximal_simplices[s] for t in incidence[w]} - {s}))
            self._neighbour_rows[s] = row
        return row

    @cached_property
    def dimension(self) -> int:
        return max(len(s) for s in self.maximal_simplices) - 1

    def edges(self) -> list[Simplex]:
        return [(a, b) for a, ns in self.adjacency.items() for b in ns if a < b]

    def spans(self, s: Sequence[str]) -> bool:
        """Whether the distinct labels s are a face: some maximal simplex holds them all.

        One label is a vertex lookup and two an adjacency lookup; more are
        tested against each maximal simplex holding s[0], unless they are
        more than any simplex has.  () is no face.
        """
        if len(s) == 1:
            return s[0] in self.incidence
        if len(s) == 2:
            return s[1] in self.adjacency.get(s[0], ())
        if not s or len(s) > self.dimension + 1:
            return False
        for i in self.incidence.get(s[0], ()):
            sigma = self.maximal_simplices[i]
            for v in s:
                if v not in sigma:
                    break
            else:
                return True
        return False

    def maximal_indices_containing(self, vertices: Iterable[str]) -> list[int]:
        """Indices into maximal_simplices of those containing the given vertex set, ascending."""
        want = set(vertices)
        if not want:
            return list(range(len(self.maximal_simplices)))
        return sorted(set.intersection(*(set(self.incidence.get(v, ())) for v in want)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimplicialComplex({len(self.vertices)} vertices, "
            f"{len(self.maximal_simplices)} maximal simplices, dim {self.dimension})"
        )


def build_complex(
    vertices: Iterable[str], maximal_simplices: Iterable[Iterable[str]]
) -> SimplicialComplex:
    """Validate input, keep the maximal simplices and build adjacency and incidence.

    Raises DuplicateVertex, UnknownVertexInSimplex or EmptySimplex on bad
    input, for the first offender in input order.  Listed simplices that
    turn out to be faces of other listed simplices are absorbed, so
    ``maximal_simplices`` on the result is a true antichain.
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
        if not vset.issuperset(s):
            unknown = next(v for v in s if v not in vset)
            raise UnknownVertexInSimplex(f"simplex {s} uses unknown vertex {unknown!r}")
        listed.append(s)
    distinct = list(dict.fromkeys(listed))

    # No other distinct listed simplex can hold one of the largest listed
    # size, so those are maximal untested.  A smaller one is maximal iff the
    # intersection of its vertices' holder sets is itself alone.
    top = max(map(len, distinct), default=0)
    maximal = distinct
    if any(len(s) < top for s in distinct):
        holders: dict[str, set[int]] = {v: set() for v in vset}
        for i, s in enumerate(distinct):
            for v in s:
                holders[v].add(i)
        maximal = [
            s for s in distinct
            if len(s) == top or len(set.intersection(*(holders[v] for v in s))) == 1
        ]
    # Every vertex must appear in at least one simplex; a lone vertex is
    # carried as a 0-simplex, maximal since no listed simplex holds it.
    lone = vset.difference(*maximal)
    maximal = sorted(maximal + [(v,) for v in lone])
    maximal.sort(key=len)  # stable: by size, then by label within a size

    incidence: dict[str, list[int]] = {v: [] for v in sorted(vset)}
    for i, s in enumerate(maximal):
        for v in s:
            incidence[v].append(i)
    # v's neighbours are the other vertices of the maximal simplices holding it
    adjacency: dict[str, tuple[str, ...]] = {}
    for v, held in incidence.items():
        near = set(chain.from_iterable(map(maximal.__getitem__, held)))
        near.discard(v)
        adjacency[v] = tuple(sorted(near))
    return SimplicialComplex(
        vertices=tuple(incidence),
        maximal_simplices=tuple(maximal),
        adjacency=adjacency,
        incidence={v: tuple(held) for v, held in incidence.items()},
    )


@dataclass(frozen=True)
class BarycentricPoint:
    """Point of a complex as a sparse vertex -> weight map.

    Weights are positive, sum to 1 (renormalized on construction) and the
    support spans a simplex of the owning complex.  Instances are hashable
    and compare by their exact stored weights; the support is stored once,
    when the point is made.  `weights` is a fresh dict on every read, so a
    caller may change it.
    """

    items: tuple[tuple[str, float], ...]  # sorted by label, weights > 0
    # the labels of items, stored once; derived, so not part of equality, hash or repr
    support: Simplex = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "support", tuple([v for v, _ in self.items]))

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
    """Normalized barycentric point whose support must span a simplex of K.

    Raises NegativeWeight on a negative weight, and WeightsNotNormalizable on
    a NaN or infinite weight or when no weight survives normalization.
    """
    for v, w in weights.items():
        if w < 0:
            raise NegativeWeight(f"weight of {v!r} is negative ({w})")
        if not math.isfinite(w):
            raise WeightsNotNormalizable(f"weight of {v!r} is not a finite number ({w})")
    # (label, weight) in label order: every sum below adds in that order
    kept = sorted((v, float(w)) for v, w in weights.items() if w >= WEIGHT_FLOOR)
    total = sum(w for _, w in kept)
    if math.isinf(total):
        # finite weights whose sum overflows: scale by the largest first (only here,
        # so every point whose sum is finite keeps its bits)
        top = max(w for _, w in kept)
        kept = [(v, w / top) for v, w in kept]
        total = sum(w for _, w in kept)
    if total <= 0:
        raise WeightsNotNormalizable(f"weights sum to {total}, cannot normalize")
    normalized = [(v, w / total) for v, w in kept]
    # Renormalization may expose weights under the floor; drop and repeat once.
    again = [(v, w) for v, w in normalized if w >= WEIGHT_FLOOR]
    if len(again) != len(normalized):
        total = sum(w for _, w in again)
        if total <= 0:
            raise WeightsNotNormalizable("all weight below representable floor")
        normalized = [(v, w / total) for v, w in again]

    point = BarycentricPoint(items=tuple(normalized))
    if not K.spans(point.support):
        raise SupportNotASimplex(f"support {point.support} does not span a simplex")
    return point


def vertex_point(K: SimplicialComplex, v: str) -> BarycentricPoint:
    """The point of weight 1 at v: make_point(K, {v: 1.0}), built without renormalizing."""
    if not K.spans((v,)):
        raise SupportNotASimplex(f"support {(v,)} does not span a simplex")
    return BarycentricPoint(items=((v, 1.0),))


def common_simplex(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint
) -> Simplex | None:
    """Smallest simplex containing both supports, or None.

    A simplex holds both supports iff it holds their union, so one exists
    iff the union is a face, and then the union is the smallest choice.
    """
    union = tuple(sorted(set(x.support) | set(y.support)))
    return union if K.spans(union) else None


def simplex_l1(x: BarycentricPoint, y: BarycentricPoint) -> float:
    """Half the l1 difference of barycentric coordinates.

    Defined for points in a common simplex; scaled so two distinct vertices
    are at distance exactly 1.  The value only depends on the coordinates,
    never on which common simplex is used.

    One merge of the two label-sorted item lists gives |x_v - y_v| for
    every label of either support, in label order; two vertices of weight
    1.0 need no merge.
    """
    a, b = x.items, y.items
    if len(a) == len(b) == 1 and a[0][1] == b[0][1] == 1.0:
        return 0.0 if a[0][0] == b[0][0] else 1.0
    na, nb = len(a), len(b)
    i = j = 0
    terms = []
    while i < na and j < nb:
        u, wu = a[i]
        v, wv = b[j]
        if u == v:
            terms.append(abs(wu - wv))
            i += 1
            j += 1
        elif u < v:
            terms.append(abs(wu))
            i += 1
        else:
            terms.append(abs(wv))
            j += 1
    terms += [abs(w) for _, w in a[i:]]
    terms += [abs(w) for _, w in b[j:]]
    return 0.5 * sum(terms)


@dataclass(frozen=True)
class Automorphism:
    """Simplicial automorphism given by a vertex bijection."""

    mapping: tuple[tuple[str, str], ...]  # sorted by source label

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)


def make_automorphism(K: SimplicialComplex, mapping: Mapping[str, str]) -> Automorphism:
    """Validate that the vertex bijection maps simplices to simplices."""
    if sorted(mapping) != list(K.vertices) or sorted(mapping.values()) != list(K.vertices):
        raise NotAnAutomorphism("mapping is not a bijection of the vertex set")
    # Checking maximal simplices suffices: a face's image lies in its maximal simplex's image.
    for s in K.maximal_simplices:
        image = tuple(sorted(mapping[v] for v in s))
        if not K.spans(image):
            raise NotAnAutomorphism(f"image {image} of simplex {s} is not a simplex")
    return Automorphism(mapping=tuple(sorted(mapping.items())))


def apply_automorphism(
    K: SimplicialComplex, g: Automorphism, x: BarycentricPoint
) -> BarycentricPoint:
    """Relabel the weights of a point by the automorphism."""
    m = g.as_dict()
    relabeled = {m[v]: w for v, w in x.items}
    support = tuple(sorted(relabeled))
    if not K.spans(support):
        raise NotAnAutomorphism(f"image support {support} is not a simplex")
    return BarycentricPoint(items=tuple((v, relabeled[v]) for v in support))
