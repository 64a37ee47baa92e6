"""Independent brute-force oracles.

Ground truth for the solvers lives here: a grid oracle that counts the
fewest unit transfers of weight 1/n between two grid points, which is
exactly their path distance (`grid_oracle_path_distance`), an exhaustive
metric-axiom scanner,
and a combinatorial Gromov-product oracle for trees.  Nothing in this
module calls the solver code it is meant to check; the small primitives
(BFS, l1 lengths) are reimplemented locally on purpose.  The grid oracle
counts its transfers with one breadth-first search from the source node,
so it returns a value and never a path: the path solver's witnesses,
a route's built when it is read, are checked against the value alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .complexes import VALUE_TOL, BarycentricPoint, SimplicialComplex
from .errors import InvalidParameters, NotATree, PointNotOnGrid, ResolutionTooCoarse

GridNode = tuple[tuple[str, int], ...]  # sorted (vertex, numerator), numerators sum to n


def _compositions(total: int, parts: int):
    """All ways to write total as an ordered sum of `parts` nonnegative ints."""
    for cuts in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cuts:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


@dataclass(frozen=True, eq=False)
class GridGraph:
    """All barycentric points with coordinates in multiples of 1/n.

    Nodes are stored as integer numerators to avoid floating-point drift.
    An edge is a unit transfer: it moves 1/n of weight from one vertex of a
    maximal simplex to another vertex of that simplex.  Edges have weight 1
    and are stored once in each direction; a path of k hops has length k/n.

    This is the grid path metric.  Two nodes a, b of one simplex are
    Σ|a−b|/2 transfers apart without leaving it, and no fewer suffice, since
    one transfer changes Σ|a−b| by at most 2.  So the fewest hops, over n,
    equal the shortest path through straight pieces between nodes that share
    a simplex, each of l1 length Σ|a−b|/(2n).
    """

    K: SimplicialComplex
    n: int
    nodes: tuple[GridNode, ...]
    index: dict[GridNode, int]
    graph: csr_matrix


def build_grid(K: SimplicialComplex, n: int) -> GridGraph:
    """The grid graph at resolution 1/n, built on first use and kept on K."""
    if n < 2:
        raise ResolutionTooCoarse("need resolution 1/n with n >= 2")
    if n in K.grids:
        return K.grids[n]
    index: dict[GridNode, int] = {}
    tails: list[int] = []
    heads: list[int] = []
    for sigma in K.maximal_simplices:
        local: dict[tuple[int, ...], int] = {}
        for comp in _compositions(n, len(sigma)):
            node = tuple((v, c) for v, c in zip(sigma, comp) if c > 0)
            local[comp] = index.setdefault(node, len(index))
        pairs = list(permutations(range(len(sigma)), 2))
        for comp, tail in local.items():
            for i, j in pairs:
                if comp[i]:
                    step = list(comp)
                    step[i] -= 1
                    step[j] += 1
                    tails.append(tail)
                    heads.append(local[tuple(step)])
    graph = csr_matrix((np.ones(len(tails)), (tails, heads)), shape=(len(index), len(index)))
    # a transfer inside a face of several maximal simplices was listed, and summed, once per simplex
    graph.data[:] = 1.0
    grid = K.grids[n] = GridGraph(K=K, n=n, nodes=tuple(index), index=index, graph=graph)
    return grid


def snap_to_grid_node(x: BarycentricPoint, n: int) -> GridNode:
    """Nearest grid node by largest-remainder rounding of the numerators."""
    raw = [(v, Fraction(w) * n) for v, w in x.items]
    floors = [(v, int(f), f - int(f)) for v, f in raw]
    short = n - sum(c for _, c, _ in floors)
    by_remainder = sorted(floors, key=lambda t: (-t[2], t[0]))
    bumped = {v: c for v, c, _ in floors}
    for v, _, _ in by_remainder[:short]:
        bumped[v] += 1
    return tuple((v, c) for v, c in sorted(bumped.items()) if c > 0)


def _node_l1(x: BarycentricPoint, node: GridNode, n: int) -> float:
    xw = x.weights
    nw = {v: c / n for v, c in node}
    return 0.5 * sum(abs(xw.get(v, 0.0) - nw.get(v, 0.0)) for v in sorted(set(xw) | set(nw)))


def grid_oracle_path_distance(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint, h: float
) -> float:
    """Shortest grid-path length from x to y at resolution h = 1/n: the
    fewest unit transfers between their grid nodes, over n.

    For x and y on the 1/n grid the value is exactly the path distance.
    Grid paths are paths, so it is never below it.  On an optimal chain,
    the chain's transport has integer supplies and demands in units of
    1/n, so an optimal flow in whole units exists (transportation polytopes
    are integral: Dantzig 1951; Hoffman & Kruskal 1956).  The path that
    moves each unit onto one vertex of each face then breaks only at grid
    nodes, consecutive breakpoints share a simplex, and there grid hops
    equal l1 length (`GridGraph`), so the value is never above it either.
    Points on the 1/n grid are on the 1/(2n) grid too, so refining h gives
    the same value.  Each point is snapped to its nearest grid node
    (`snap_to_grid_node`); one farther than h/2 in l1 from every node, or
    snapping to no node of the grid, raises PointNotOnGrid.

    Every transfer is one hop, so a breadth-first search from x's node
    finds the fewest: walking its predecessors back from y's node follows a
    shortest path of the search tree, and the walk's length is the count.
    The value alone is returned, and a solver answer's witness (a route's
    built when it is read) is compared with it.  A zero, non-finite or
    non-1/n h raises InvalidParameters, an n below 2 ResolutionTooCoarse.
    """
    if not (math.isfinite(h) and h != 0 and math.isfinite(1.0 / h)):
        raise InvalidParameters(f"resolution {h!r} must be a finite, nonzero 1/n")
    n = round(1.0 / h)
    if abs(1.0 / h - n) > 1e-9:
        raise InvalidParameters(f"resolution {h!r} is not of the form 1/n")
    grid = build_grid(K, n)
    endpoints = []
    for p in (x, y):
        node = snap_to_grid_node(p, n)
        if _node_l1(p, node, n) > h / 2 + 1e-12:
            raise PointNotOnGrid(f"{p} is farther than h/2 from every grid node")
        if node not in grid.index:
            raise PointNotOnGrid(f"{p} snaps to {node}, which is not a grid node")
        endpoints.append(grid.index[node])
    src, dst = endpoints
    if src == dst:
        return 0.0
    before = breadth_first_order(grid.graph, src, directed=True, return_predecessors=True)[1]
    hops, node = 0, dst
    while node != src:
        node = before.item(node)
        if node < 0:  # no predecessor: dst is not reached from src
            raise ResolutionTooCoarse("grid graph is disconnected at this resolution")
        hops += 1
    return hops / n


@dataclass(frozen=True)
class ScanViolation:
    kind: str  # Symmetry | Identity | PositiveDistance | Triangle
    witness: tuple[int, ...]
    margin: float

    def __str__(self) -> str:
        return f"{self.kind}@{self.witness} margin={self.margin:.3g}"


def exhaustive_metric_scan(
    dist: Callable[[BarycentricPoint, BarycentricPoint], float],
    points: Sequence[BarycentricPoint],
) -> list[ScanViolation]:
    """All symmetry / identity / triangle violations over the sample set.

    O(len(points)^3); intended for at most ~200 points.  The distance
    matrix is materialized first so each pair is evaluated once per order.
    """
    m = len(points)
    if m > 200:
        raise ValueError("scan is cubic; pass at most 200 points")
    d = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            d[i, j] = dist(points[i], points[j])
    out: list[ScanViolation] = []
    for i, j in zip(*np.nonzero(np.abs(d - d.T) > VALUE_TOL)):
        if i < j:
            out.append(ScanViolation("Symmetry", (int(i), int(j)), float(abs(d[i, j] - d[j, i]))))
    keys = [p.key() for p in points]
    for i in range(m):
        if abs(d[i, i]) > VALUE_TOL:
            out.append(ScanViolation("Identity", (i,), float(abs(d[i, i]))))
        for j in range(m):
            if i < j and keys[i] != keys[j] and abs(d[i, j]) <= VALUE_TOL:
                out.append(ScanViolation("PositiveDistance", (i, j), float(d[i, j])))
    for k in range(m):
        slack = d - (d[:, k][:, None] + d[k, :][None, :])
        for i, j in np.argwhere(slack > VALUE_TOL):
            out.append(ScanViolation("Triangle", (int(i), int(k), int(j)), float(slack[i, j])))
    return out


def _oracle_bfs(K: SimplicialComplex, source: str) -> dict[str, int]:
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in K.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def tree_vertex_path(K: SimplicialComplex, a: str, b: str) -> list[str]:
    """The unique simple vertex path in a tree, via BFS parent descent."""
    dist = _oracle_bfs(K, b)
    path = [a]
    cur = a
    while cur != b:
        cur = min(w for w in K.adjacency[cur] if dist[w] == dist[cur] - 1)
        path.append(cur)
    return path


def tree_gromov_oracle(K: SimplicialComplex, a: str, b: str, c: str) -> float:
    """Distance from c to the unique a-b path; equals the Gromov product.

    Only valid when the 1-skeleton is a tree.
    """
    n = len(K.vertices)
    edges = sum(map(len, K.adjacency.values())) // 2
    reach = _oracle_bfs(K, K.vertices[0])
    if edges != n - 1 or len(reach) != n:
        raise NotATree(f"{n} vertices with {edges} edges, reach {len(reach)}")
    from_c = _oracle_bfs(K, c)
    return float(min(from_c[z] for z in tree_vertex_path(K, a, b)))
