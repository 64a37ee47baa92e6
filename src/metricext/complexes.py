"""Finite abstract simplicial complexes and barycentric points.

A complex is given by the canonical list of its maximal simplices; a vertex
set is a face when some maximal simplex holds it all (`holds`).  At the API,
simplices are sorted tuples of string vertex labels; all iteration uses
lexicographic label order so outputs are reproducible bit-for-bit.
Complexes and points are immutable after construction.

A barycentric point stores its support once, as (vertex id, weight) pairs
of the complex it was made for, ids ascending, so a query on it maps no
label to an id again; a point is used only with that complex.  Its label
views (`support`, `items`, `weights`, `get`, repr) read the complex's
`vertices`, for the readers that hand labels out: files, the CLI and the
grid oracle.  Points built from ids go through `_point_on`; `make_point`
normalizes label weights (`_normalised`) and only then maps the labels to
ids.  The per-simplex l1 distance is one merge of two points' pairs.

Inside, a complex is integer ids: vertex i is the i-th label in sorted
order and simplex s the s-th maximal simplex, so id order is label order.
Its tables are int32 CSR arrays (`IdRows`): the vertex ids of each maximal
simplex, the maximal simplices holding each vertex (incidence) and the
neighbours of each vertex (adjacency).  `holds(ids)` is the one face test;
`spans(labels)` maps labels to ids and asks it.  `complex_from_ids` is the one
constructor.  It sorts and deduplicates the listed id rows, drops a row
that a larger row holds, adds each vertex no row holds as a 0-simplex, and
sorts rows by size, then lexicographically; incidence is a stable argsort of
the vertex ids and adjacency the distinct pair codes of each simplex, all by
numpy.  `build_complex` maps labels to ids once, after validating them, and
the generators hand their ids to it directly.

Equality and hash read the labels and the simplex rows.  Everything else
is derived on first use and kept on the complex, freed with it: the label
-> id `index`, read only where a caller hands labels in (`make_point`,
`vertex_point`, `spans`, `make_automorphism`, `probes.make_ray` and
`deepest_ray`, `generators.random_point`'s given face, the file readers
and the CLI), the
word table, the grid oracle's graphs by resolution, the
maximal simplices meeting each one the path search asks about and the
faces they share with it, the id rows read so far (`IdRows.row`), and two
label views of whole tables:
`maximal_simplices` (label tuples), read by `oracle.build_grid` and
`fileio.complex_to_dict`, and the `adjacency` dict, read by the oracle's
own search.  Every other reader reads id rows: one at a
time through `row`, or, to walk a whole table, all at once as lists that no
cache keeps (`IdRows.all_rows`).

The word table holds no V^2 array and no graph of its own: it reads the
complex's adjacency CSR, and it is keyed by vertex id, so a query on points
maps no label.  It answers word distances on demand: a row is one
breadth-first search (scipy's, in C) whose tree of predecessors pointer
doubling turns into exact int32 depths, kept in a small LRU; a single
distance is read from a kept row of either end, or found by a bidirectional
search over the adjacency and remembered in a bounded memo.  Its dense
`matrix`, the same rows stacked, is built only for the consumers that need
every pair (validating an explicit metric, the four-point scan).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

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


class IdRows:
    """Rows of ids in CSR form: row i is indices[indptr[i]:indptr[i + 1]], ascending.

    Both arrays are int32.  `row(i)` is row i as a tuple of ints, cut from
    the arrays on its first read and kept: a query pays only for the rows it
    touches, and a repeated read is a dict lookup, not an array slice.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = indptr
        self.indices = indices
        self._rows: dict[int, tuple[int, ...]] = {}

    @classmethod
    def of(cls, counts: np.ndarray, values: np.ndarray) -> IdRows:
        """Rows of counts[i] values each, taken in order from values."""
        indptr = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, values.astype(np.int32))

    def row(self, i: int) -> tuple[int, ...]:
        row = self._rows.get(i)
        if row is None:
            ptr = self.indptr
            row = self._rows[i] = tuple(self.indices[ptr.item(i):ptr.item(i + 1)].tolist())
        return row

    def all_rows(self) -> list[list[int]]:
        """Every row as a list, read from the arrays in one pass and kept by no cache."""
        ptr, ids = self.indptr.tolist(), self.indices.tolist()
        return [ids[a:b] for a, b in zip(ptr, ptr[1:])]

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, IdRows) and np.array_equal(self.indptr, other.indptr)
        return same and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash((self.indptr.tobytes(), self.indices.tobytes()))


class WordMetricTable:
    """Word distances between vertex ids on the 1-skeleton, computed on demand.

    Nothing V^2 is held: a row (one vertex's distances to all others, by id)
    is one breadth-first search plus pointer doubling over its tree
    (`_search_row`), and the last `rows_kept` rows are kept.  A single
    distance is read from a kept row of either end; otherwise a
    bidirectional breadth-first search finds it and the last `PAIRS_KEPT`
    such answers are remembered.  `matrix`, the dense all-pairs table, is
    every row stacked, built only when a consumer that needs every pair asks
    for it.  The caches only ever hold exact distances, so which one answers
    never changes a value.

    The graph is the complex's own adjacency CSR, and every key is a vertex
    id: a label reader maps its labels to ids at its own edge.  The first
    row, searched and kept at construction, is the connectivity test: a
    search that misses a vertex raises DisconnectedComplex.
    """

    def __init__(self, adjacency: IdRows):
        self.adjacency = adjacency
        n = len(adjacency)
        self.rows_kept = max(1, ROW_ENTRIES_KEPT // n)
        data = np.ones(len(adjacency.indices))
        self._graph = csr_matrix((data, adjacency.indices, adjacency.indptr), shape=(n, n))
        first = self._search_row(0)  # raises DisconnectedComplex if the search misses a vertex
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._keep_row(0, first)
        self._pairs: dict[tuple[int, int], float] = {}

    def _search_row(self, i: int) -> np.ndarray:
        """Word distances from vertex i (int32): one breadth-first search, then pointer doubling.

        The search's predecessor array is a tree whose depths are the
        distances.  Each vertex starts one step below its parent; a pass adds
        the step count of the ancestor it points to and then points to that
        ancestor's ancestor (list ranking, Wyllie 1979), so after k passes
        every vertex within 2^k steps of i knows its depth.  The last vertex in
        search order is the deepest, so it is the last to reach i.
        """
        # the graph is symmetric, so a directed search gives the same tree without a transpose
        order, up = breadth_first_order(self._graph, i, directed=True, return_predecessors=True)
        if len(order) < len(up):
            raise DisconnectedComplex("1-skeleton is not connected")
        up[i] = i
        row = np.ones(len(up), dtype=np.int32)
        row[i] = 0
        last = order.item(-1)
        step, ancestor = np.empty_like(row), np.empty_like(up)
        while up.item(last) != i:
            # every entry of up is a vertex now, so "clip" clips nothing; it spares take a checked copy
            row.take(up, out=step, mode="clip")
            row += step
            up.take(up, out=ancestor, mode="clip")
            up, ancestor = ancestor, up
        return row

    def _keep_row(self, i: int, row: np.ndarray) -> np.ndarray:
        row.flags.writeable = False
        self._rows[i] = row
        if len(self._rows) > self.rows_kept:
            self._rows.popitem(last=False)
        return row

    def row(self, i: int) -> np.ndarray:
        """Read-only distances from vertex i to every vertex, by id."""
        row = self._rows.get(i)
        if row is not None:
            self._rows.move_to_end(i)
            return row
        return self._keep_row(i, self._search_row(i))

    def distance(self, i: int, j: int) -> float:
        """Word distance between vertices i and j: read from a kept row, remembered, or searched."""
        if i == j:
            return 0.0
        row = self._rows.get(i)
        if row is not None:
            return float(row.item(j))
        row = self._rows.get(j)
        if row is not None:
            return float(row.item(i))
        key = (i, j) if i <= j else (j, i)
        d = self._pairs.get(key)
        if d is None:
            d = self._pairs[key] = float(self._search_pair(i, j))
            if len(self._pairs) > PAIRS_KEPT:
                del self._pairs[next(iter(self._pairs))]
        return d

    def _search_pair(self, i: int, j: int) -> int:
        """Breadth-first search from both ends, a whole level of the smaller frontier at a time.

        Before a level of one side is grown, the two searched balls are
        disjoint, so the distance exceeds the sum of their radii; the first
        vertex the growing side finds in the other ball therefore closes a
        shortest path.
        """
        if i == j:
            return 0
        row = self.adjacency.row
        seen = ({i: 0}, {j: 0})
        frontier = [[i], [j]]
        while frontier[0] and frontier[1]:
            side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
            mine, other = seen[side], seen[1 - side]
            grown = []
            for a in frontier[side]:
                step = mine[a] + 1
                for b in row(a):
                    if b in other:
                        return step + other[b]
                    if b not in mine:
                        mine[b] = step
                        grown.append(b)
            frontier[side] = grown
        raise DisconnectedComplex(f"no edge path from vertex {i} to vertex {j}")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense all-pairs table (int64), built on first use: every row, stacked."""
        return np.stack([self._search_row(i) for i in range(len(self.adjacency))]).astype(np.int64)


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract simplicial complex: its faces are the subsets of its maximal simplices.

    Vertex ids are positions in `vertices`, simplex ids rows of `simplex_csr`;
    `complex_from_ids` builds the three id tables, rows in canonical order.
    """

    vertices: tuple[str, ...]
    # maximal simplex -> its vertex ids
    simplex_csr: IdRows = field(repr=False)
    # vertex -> ids of the maximal simplices holding it
    incidence_csr: IdRows = field(compare=False, hash=False, repr=False)
    # vertex -> ids of its neighbours in the 1-skeleton
    adjacency_csr: IdRows = field(compare=False, hash=False, repr=False)

    @cached_property
    def index(self) -> dict[str, int]:
        """Label -> vertex id, built on first use."""
        return dict(zip(self.vertices, range(len(self.vertices))))

    @cached_property
    def maximal_simplices(self) -> tuple[Simplex, ...]:
        """The maximal simplices as label tuples, by simplex id; built from the CSR on first read."""
        ptr, ids = self.simplex_csr.indptr, self.simplex_csr.indices
        labels = np.array(self.vertices, dtype=object)
        starts = np.flatnonzero(_new_in_run(np.diff(ptr))).tolist()  # rows are sorted by size
        maximal: list[Simplex] = []
        for start, end in zip(starts, starts[1:] + [len(ptr) - 1]):  # one size at a time: its label columns
            maximal += zip(*labels[ids[ptr[start]:ptr[end]].reshape(end - start, -1).T].tolist())
        return tuple(maximal)

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Label -> its neighbours' labels, ascending; built from the CSR on first use."""
        ptr, vs = self.adjacency_csr.indptr.tolist(), self.vertices
        labels = [vs[j] for j in self.adjacency_csr.indices.tolist()]
        return {v: tuple(labels[ptr[i]:ptr[i + 1]]) for i, v in enumerate(vs)}

    @cached_property
    def word_table(self) -> WordMetricTable:
        """The package's one source of word distances, created on first use.

        Raises DisconnectedComplex on every access if the 1-skeleton is not connected.
        """
        return WordMetricTable(self.adjacency_csr)

    @cached_property
    def grids(self) -> dict[int, GridGraph]:
        """The grid oracle's graphs by resolution n, filled by `oracle.build_grid`."""
        return {}

    @cached_property
    def _neighbour_rows(self) -> dict[int, tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
        """The rows `neighbours` has built, by maximal simplex: the t, and their faces aligned."""
        return {}

    def neighbours(self, s: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(t, the vertex ids of s & t, ascending) per other maximal simplex t meeting s, t ascending.

        A row is built the first time it is asked for and kept on the
        complex, as two aligned tuples (the t, and their faces, equal faces
        one tuple), which hold a reference per t rather than a pair; each
        call walks it afresh.
        """
        row = self._neighbour_rows.get(s)
        if row is None:
            held = self.incidence_csr.row
            shared: dict[int, list[int]] = {}
            for w in self.simplex_csr.row(s):  # ascending, so each face is too
                for t in held(w):
                    shared.setdefault(t, []).append(w)
            del shared[s]
            ts, faces = tuple(sorted(shared)), {}
            row = self._neighbour_rows[s] = ts, tuple([faces.setdefault(f := tuple(shared[t]), f) for t in ts])
        return zip(*row)

    @cached_property
    def dimension(self) -> int:
        return int(self.simplex_csr.indptr[-1] - self.simplex_csr.indptr[-2]) - 1  # rows are sorted by size

    def holds(self, ids: Sequence[int]) -> bool:
        """Whether the distinct vertex ids are a face: some maximal simplex holds them all.

        One id is a vertex, and two a search of the first one's neighbour
        ids; more are tested against each maximal simplex holding ids[0],
        unless they are more than any has.  () is no face.
        """
        if len(ids) == 1:
            return True
        if len(ids) == 2:
            a, b = ids
            row = self.adjacency_csr.row(a)
            at = bisect_left(row, b)
            return at < len(row) and row[at] == b
        if not ids or len(ids) > self.dimension + 1:
            return False
        simplex = self.simplex_csr.row
        for i in self.incidence_csr.row(ids[0]):
            sigma = simplex(i)
            for v in ids:
                if v not in sigma:
                    break
            else:
                return True
        return False

    def spans(self, s: Sequence[str]) -> bool:
        """Whether the distinct labels s are a face: `holds` of their ids; an unknown label is none."""
        ids = tuple(map(self.index.get, s))
        return None not in ids and self.holds(ids)

    def maximal_indices_containing(self, ids: Sequence[int]) -> list[int]:
        """Ids of the maximal simplices holding every given vertex id, ascending; all of them for ()."""
        rows = list(map(self.incidence_csr.row, ids))
        if not rows:
            return list(range(len(self.simplex_csr)))
        return list(rows[0]) if len(rows) == 1 else sorted(set(rows[0]).intersection(*rows[1:]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimplicialComplex({len(self.vertices)} vertices, "
            f"{len(self.simplex_csr)} maximal simplices, dim {self.dimension})"
        )


def _new_in_run(a: np.ndarray) -> np.ndarray:
    """Mask of the entries (rows, if a is 2-D) of the sorted a that differ from the one before."""
    new = np.ones(len(a), dtype=bool)
    if a.ndim == 1:
        np.not_equal(a[1:], a[:-1], out=new[1:])
    else:
        np.any(a[1:] != a[:-1], axis=1, out=new[1:])
    return new


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of codes, ascending (np.unique hashes first, many times slower)."""
    codes = np.sort(codes, kind="stable")
    return codes[_new_in_run(codes)]


def _canonical_rows(sizes: np.ndarray, ids: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """The distinct listed rows, each sorted and duplicate-free, by size, each size's rows lexicographic."""
    if not len(sizes):
        return {}
    k = int(sizes[0])
    rows = np.sort(ids.reshape(-1, k), axis=1, kind="stable") if (sizes == k).all() else None
    if rows is not None and not (rows[:, 1:] == rows[:, :-1]).any():
        groups = {k: rows}
    else:
        # sizes differ, or a row lists a vertex twice: sort every row at once by (row, id) codes
        key = _distinct(np.repeat(np.arange(len(sizes)), sizes) * n + ids)
        owner = key // n
        ids = key - owner * n
        sizes = np.bincount(owner, minlength=len(sizes))
        starts = np.cumsum(sizes) - sizes
        groups = {
            k: ids[starts[sizes == k][:, None] + np.arange(k)]
            for k in np.flatnonzero(np.bincount(sizes)).tolist()
        }
    for k, rows in groups.items():
        rows = rows[np.lexsort(rows.T[::-1])]
        groups[k] = rows[_new_in_run(rows)]
    return groups


def _drop_held_rows(groups: dict[int, np.ndarray], n: int) -> None:
    """Drop each row that a larger row holds, in place.

    A row r of size k is held by a larger row t iff t holds r's vertex p
    with the fewest holders and every other vertex of r: the (r, t) pairs
    are the holders of p, and each membership is a search of the sorted
    codes t * n + v of all rows.
    """
    sizes = sorted(groups)
    flat = np.concatenate([groups[k].ravel() for k in sizes])
    size_of = np.concatenate([np.full(len(groups[k]), k) for k in sizes])
    owner = np.repeat(np.arange(len(size_of)), size_of)
    codes = owner * n + flat  # ascending: rows in order, ids ascending within each
    degree = np.bincount(flat, minlength=n)
    holder = owner[np.argsort(flat, kind="stable")]
    first = np.cumsum(degree) - degree  # vertex p's holders are holder[first[p]:first[p] + degree[p]]
    for k in sizes[:-1]:
        rows = groups[k]
        pivot = rows[np.arange(len(rows)), np.argmin(degree[rows], axis=1)]
        count = degree[pivot]
        r = np.repeat(np.arange(len(rows)), count)
        t = holder[np.arange(len(r)) + np.repeat(first[pivot] - (np.cumsum(count) - count), count)]
        larger = size_of[t] > k
        r, t = r[larger], t[larger]
        want = t[:, None] * n + rows[r]
        at = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
        held = np.zeros(len(rows), dtype=bool)
        held[r[(codes[at] == want).all(axis=1)]] = True
        groups[k] = rows[~held]


def complex_from_ids(labels: tuple[str, ...], sizes: np.ndarray, ids: np.ndarray) -> SimplicialComplex:
    """The complex on the sorted, distinct `labels` whose listed simplices are rows of vertex ids.

    ids holds the rows one after another, row r taking the next sizes[r]
    entries, each a position in labels.  A row may list its vertices in any
    order and more than once; every size is at least 1.  Rows that a larger
    listed row holds are faces and are dropped, so ``maximal_simplices`` is
    a true antichain; each vertex no row holds is carried as a 0-simplex.
    """
    n = len(labels)
    groups = _canonical_rows(np.asarray(sizes, dtype=np.int64), np.asarray(ids, dtype=np.int64), n)
    if len(groups) > 1:
        _drop_held_rows(groups, n)
    covered = np.zeros(n, dtype=bool)
    for rows in groups.values():
        covered[rows] = True
    if not covered.all():
        lone = np.flatnonzero(~covered)
        if 1 in groups:
            lone = np.sort(np.concatenate([groups[1].ravel(), lone]), kind="stable")
        groups[1] = lone[:, None]
    by_size = [groups[k] for k in sorted(groups) if len(groups[k])]

    size = np.repeat([rows.shape[1] for rows in by_size], [len(rows) for rows in by_size])
    simplex_ids = np.concatenate([rows.ravel() for rows in by_size])
    owner = np.repeat(np.arange(len(size)), size)
    by_vertex = np.argsort(simplex_ids, kind="stable")
    # v's neighbours are the other vertices of the maximal simplices holding it: distinct pair codes
    pairs = _distinct(np.concatenate([
        (rows[:, :, None] * n + rows[:, None, :])[:, ~np.eye(rows.shape[1], dtype=bool)].ravel()
        for rows in by_size
    ]))
    source = pairs // n
    return SimplicialComplex(
        vertices=labels,
        simplex_csr=IdRows.of(size, simplex_ids),
        incidence_csr=IdRows.of(np.bincount(simplex_ids, minlength=n), owner[by_vertex]),
        adjacency_csr=IdRows.of(np.bincount(source, minlength=n), pairs - source * n),
    )


def _raise_first_offender(listed: list[tuple], index: Mapping[str, int]) -> None:
    """Raise the error of the first bad listed simplex: empty, or holding an unknown label."""
    for raw in listed:
        s = make_simplex(raw)
        unknown = next((v for v in s if v not in index), None)
        if unknown is not None:
            raise UnknownVertexInSimplex(f"simplex {s} uses unknown vertex {unknown!r}")


def build_complex(
    vertices: Iterable[str], maximal_simplices: Iterable[Iterable[str]]
) -> SimplicialComplex:
    """Validate input, map labels to ids once and build the complex from them.

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
    labels = tuple(sorted(vset))
    index = dict(zip(labels, range(len(labels))))
    listed = list(map(tuple, maximal_simplices))
    sizes = np.fromiter(map(len, listed), dtype=np.int64, count=len(listed))
    try:
        ids = np.fromiter(
            map(index.__getitem__, chain.from_iterable(listed)), dtype=np.int64, count=int(sizes.sum())
        )
    except KeyError:
        ids = None
    if ids is None or not sizes.all():
        _raise_first_offender(listed, index)
    return complex_from_ids(labels, sizes, ids)


@dataclass(frozen=True)
class BarycentricPoint:
    """Point of a complex as sparse (vertex id, weight) pairs.

    Weights are positive, sum to 1 (renormalized on construction) and the
    support spans a simplex of the owning complex.  The point stores its
    support once, as the (vertex id, weight) `pairs` of that complex, ids
    ascending, and derives `ids` from them when it is made; it keeps a
    reference to the complex's `vertices`, which plays no part in equality,
    hash or repr.  Instances are hashable and compare by their pairs, so a
    point is used only with its own complex.  The label views `support`,
    `items` (sorted (label, weight) pairs), `weights`, `get` and repr read
    labels through `vertices`: ids ascend in label order, so they list the
    labels in that order.  `support` and `items` are built on first read
    and kept; `weights` is a fresh dict on every read, so a caller may
    change it.
    """

    pairs: tuple[tuple[int, float], ...]  # ids ascending, weights > 0
    vertices: tuple[str, ...] = field(compare=False, repr=False)
    # the ids of pairs, derived once; not part of equality, hash or repr
    ids: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple([i for i, _ in self.pairs]))

    @cached_property
    def support(self) -> Simplex:
        return tuple([self.vertices[i] for i in self.ids])

    @cached_property
    def items(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.support, [w for _, w in self.pairs]))

    @property
    def weights(self) -> dict[str, float]:
        return dict(self.items)

    def get(self, v: str) -> float:
        return self.weights.get(v, 0.0)

    @property
    def is_vertex(self) -> bool:
        return len(self.pairs) == 1

    def key(self) -> tuple[tuple[int, float], ...]:
        return self.pairs

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}:{w:.6g}" for v, w in self.items)
        return f"Point({inner})"


def _normalised(weights: Mapping) -> list[tuple]:
    """The (key, weight) pairs of weights in key order, those under WEIGHT_FLOOR dropped, scaled to sum to 1.

    Every sum adds the weights in key order.  Raises NegativeWeight on a
    negative weight, and WeightsNotNormalizable on a NaN or infinite weight
    or when no weight survives normalization.
    """
    for v, w in weights.items():
        if w < 0:
            raise NegativeWeight(f"weight of {v!r} is negative ({w})")
        if not math.isfinite(w):
            raise WeightsNotNormalizable(f"weight of {v!r} is not a finite number ({w})")
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
    return normalized


def make_point(K: SimplicialComplex, weights: Mapping[str, float]) -> BarycentricPoint:
    """Normalized barycentric point whose support must span a simplex of K.

    The weights are normalized by label first, raising as `_normalised`
    does, and the kept labels are then looked up: an unknown label or a
    support that is no face raises SupportNotASimplex, and a label whose
    weight is dropped raises nothing.
    """
    normalized = _normalised(weights)
    # the support's ids, resolved here once, ascend with the labels; an unknown label is no face
    ids = tuple(map(K.index.get, [v for v, _ in normalized]))
    if None in ids or not K.holds(ids):
        raise SupportNotASimplex(f"support {tuple([v for v, _ in normalized])} does not span a simplex")
    return BarycentricPoint(tuple(zip(ids, [w for _, w in normalized])), K.vertices)


def _point_on(K: SimplicialComplex, ids: Sequence[int], weights: list[float]) -> BarycentricPoint:
    """The point on the face with ascending vertex ids `ids` and these weights, normalized.

    It is the point `make_point` makes from those ids' labels and weights,
    built without its checks: ids ascend in label order, so the weights are
    summed in the order it sums them; the ids are a face of K; and no weight
    falls under WEIGHT_FLOOR once normalized, so none is dropped.
    """
    total = sum(weights)
    return BarycentricPoint(tuple([(i, w / total) for i, w in zip(ids, weights)]), K.vertices)


def vertex_point(K: SimplicialComplex, v: str) -> BarycentricPoint:
    """The point of weight 1 at label v: make_point(K, {v: 1.0}), its id's `_point_on`."""
    i = K.index.get(v)  # a vertex's id is its face test
    if i is None:
        raise SupportNotASimplex(f"support {(v,)} does not span a simplex")
    return _point_on(K, (i,), [1.0])


def common_simplex(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint
) -> tuple[int, ...] | None:
    """The ascending vertex ids of the smallest face holding both supports, or None.

    A simplex holds both supports iff it holds their union, so one exists
    iff the union is a face, and then the union is the smallest choice.
    """
    union = tuple(sorted(set(x.ids).union(y.ids)))
    return union if K.holds(union) else None


def simplex_l1(x: BarycentricPoint, y: BarycentricPoint) -> float:
    """Half the l1 difference of barycentric coordinates.

    Defined for points in a common simplex; scaled so two distinct vertices
    are at distance exactly 1.  The value only depends on the coordinates,
    never on which common simplex is used.

    One merge of the two id-sorted pair lists gives |x_v - y_v| for every
    vertex of either support, in id order, which is label order; two
    vertices of weight 1.0 need no merge.
    """
    a, b = x.pairs, y.pairs
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
    """Simplicial automorphism given by a vertex bijection.

    `mapping` is its (source, image) label pairs; `image_of[i]` is the id
    of vertex id i's image, for the id readers, and plays no part in
    equality, hash or repr.
    """

    mapping: tuple[tuple[str, str], ...]  # sorted by source label
    image_of: tuple[int, ...] = field(compare=False, repr=False)

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)


def make_automorphism(K: SimplicialComplex, mapping: Mapping[str, str]) -> Automorphism:
    """Validate that the label bijection maps simplices to simplices.

    The labels are mapped to ids once, and the id image is checked by
    `_automorphism_on_ids`; either step raises NotAnAutomorphism.
    """
    vs = K.vertices
    if sorted(mapping) != list(vs) or sorted(mapping.values()) != list(vs):
        raise NotAnAutomorphism("mapping is not a bijection of the vertex set")
    return _automorphism_on_ids(K, [K.index[mapping[v]] for v in vs])


def _automorphism_on_ids(K: SimplicialComplex, image_of: Sequence[int]) -> Automorphism:
    """The automorphism sending vertex id i to image_of[i], a permutation of the ids.

    Raises NotAnAutomorphism unless it maps simplices to simplices.

    Checking maximal simplices suffices: a face's image lies in its maximal
    simplex's image.  The simplex table is read once, as lists; an image
    that is itself a maximal simplex is a face, so only other images run the
    face test, and a valid map reads no row into K's row caches.
    """
    vs = K.vertices
    rows = K.simplex_csr.all_rows()
    maximal = set(map(tuple, rows))
    for row in rows:
        image = tuple(sorted([image_of[i] for i in row]))
        if image not in maximal and not K.holds(image):
            raise NotAnAutomorphism(
                f"image {tuple([vs[i] for i in image])} of simplex {tuple([vs[i] for i in row])} is not a simplex"
            )
    return Automorphism(mapping=tuple(zip(vs, [vs[j] for j in image_of])), image_of=tuple(image_of))


def apply_automorphism(
    K: SimplicialComplex, g: Automorphism, x: BarycentricPoint
) -> BarycentricPoint:
    """Move the weights of a point to the automorphism's images, by vertex id (`image_of`)."""
    pairs = tuple(sorted([(g.image_of[i], w) for i, w in x.pairs]))
    if not K.holds([i for i, _ in pairs]):
        raise NotAnAutomorphism(f"image support {tuple([K.vertices[i] for i, _ in pairs])} is not a simplex")
    return BarycentricPoint(pairs, K.vertices)
