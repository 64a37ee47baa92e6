"""The l1 path metric between barycentric points of a finite complex.

A path is a sequence of points in which consecutive entries share a simplex;
its length is the sum of per-simplex l1 distances.  The distance is the
minimum length over all paths.  The solver works in three tiers:

  1. points in a common simplex: the l1 distance itself is optimal;
  2. two vertices: the word metric with an edge-path witness;
  3. general case: an exact best-first (A*) search over chains of maximal
     simplices.

Along a fixed chain, half the l1 distance between two distributions is the
least mass that must move between them, so each unit of mass sent from u in
supp(x) to v in supp(y) pays the fewest vertex switches it needs through
the chain's interface faces.  Those moves are uncapacitated, so the chain's
optimum is a transportation problem whose costs a DP over the faces gives
(`chain_lp`).  The search carries that DP from simplex to simplex: a state
is the last simplex plus the switch counts reaching each of its vertices,
its priority an exact transport that never overestimates and is exact once
the simplex holds supp(y), and states dominated at the same simplex are
dropped, which keeps the search finite.  Exact rational arithmetic makes
values and witnesses reproducible bit-for-bit and invariant under vertex
relabelings.

Every solved distance is checked against the admissible lower bounds its
query computed; a result below any bound is recorded and raised as an
internal inconsistency, never returned.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .complexes import (
    BarycentricPoint,
    SimplicialComplex,
    Simplex,
    common_simplex,
    make_point,
    simplex_l1,
    vertex_point,
)
from .errors import (
    EmptyIntersection,
    EndpointNotInCarrier,
    InternalConsistencyError,
    InvalidCarrier,
)
from .vertexmetrics import geodesic, word_metric

VALUE_TOL = 1e-9
TIE_TOL = 1e-12


# --------------------------------------------------------------------------
# tripwire registry: lower-bound checks performed by the solver

@dataclass
class TripwireLog:
    checks: int = 0
    violations: list[str] = field(default_factory=list)


_TRIPWIRE = TripwireLog()


def tripwire_log() -> TripwireLog:
    return _TRIPWIRE


def reset_tripwire_log() -> None:
    _TRIPWIRE.checks = 0
    _TRIPWIRE.violations.clear()


def _assert_above_bounds(value: float, bounds: Iterable[tuple[str, float]], context: str) -> None:
    for name, bound in bounds:
        _TRIPWIRE.checks += 1
        if value < bound - VALUE_TOL:
            msg = f"{context}: result {value!r} below {name} bound {bound!r}"
            _TRIPWIRE.violations.append(msg)
            raise InternalConsistencyError(msg)


# --------------------------------------------------------------------------
# chains and witnesses

@dataclass(frozen=True)
class Chain:
    """Sequence of maximal simplices with nonempty consecutive overlaps."""

    simplices: tuple[Simplex, ...]

    def __post_init__(self):
        if not self.simplices:
            raise EmptyIntersection("a chain needs at least one simplex")
        for a, b in zip(self.simplices, self.simplices[1:]):
            if not set(a) & set(b):
                raise EmptyIntersection(f"consecutive simplices {a} and {b} are disjoint")

    def faces(self) -> list[Simplex]:
        return [
            tuple(sorted(set(a) & set(b)))
            for a, b in zip(self.simplices, self.simplices[1:])
        ]


@dataclass(frozen=True)
class PathWitness:
    """Certificate for an upper bound on the path distance."""

    points: tuple[BarycentricPoint, ...]
    carriers: tuple[Simplex, ...]
    length: float

    def reversed(self) -> PathWitness:
        """The same path walked from its last point to its first."""
        return PathWitness(points=self.points[::-1], carriers=self.carriers[::-1], length=self.length)

    def validate(self, K: SimplicialComplex) -> None:
        if len(self.points) != len(self.carriers) + 1:
            raise InvalidCarrier("need one carrier per consecutive point pair")
        total = path_length(K, self.points, self.carriers)
        if abs(total - self.length) > VALUE_TOL:
            raise InvalidCarrier(f"stored length {self.length} != recomputed {total}")


class PathResult(NamedTuple):
    value: float
    witness: PathWitness


def path_length(
    K: SimplicialComplex,
    points: Sequence[BarycentricPoint],
    carriers: Sequence[Simplex],
) -> float:
    """Sum of per-simplex l1 lengths; carriers must hold both endpoints.

    The value never depends on which admissible carriers are supplied, since
    the simplex l1 metric restricts to faces.
    """
    if len(points) != len(carriers) + 1:
        raise InvalidCarrier("need exactly one carrier per consecutive point pair")
    total = 0.0
    for i, carrier in enumerate(carriers):
        carrier = tuple(sorted(carrier))
        if carrier not in K.faces:
            raise InvalidCarrier(f"carrier {carrier} is not a simplex of the complex")
        a, b = points[i], points[i + 1]
        if not (set(a.support) <= set(carrier) and set(b.support) <= set(carrier)):
            raise InvalidCarrier(
                f"segment {i}: supports {a.support}, {b.support} not inside {carrier}"
            )
        total += simplex_l1(a, b)
    return total


# --------------------------------------------------------------------------
# the per-chain optimum: switch-count DP plus an exact transport

def _enter(val: dict[str, int], layer: Sequence[str]) -> dict[str, int]:
    """Fewest switches to each vertex of the next layer, given those to the last.

    Mass stays on its vertex if the layer holds it, and otherwise switches
    once from the cheapest vertex of the last layer.  Counts within a layer
    differ by at most one, so staying is never worse than switching.
    """
    switch = min(val.values()) + 1
    return {w: val.get(w, switch) for w in layer}


def _masses(x: BarycentricPoint, y: BarycentricPoint) -> tuple[list[Fraction], list[Fraction]]:
    """Exact weights of x and y; y's are rescaled to x's exact total.

    The two float weight vectors need not sum to the same binary value, and
    a transport needs supply and demand to balance exactly.
    """
    supply = [Fraction(w) for _, w in x.items]
    demand = [Fraction(w) for _, w in y.items]
    scale = sum(supply) / sum(demand)
    return supply, [d * scale for d in demand]


def _transport(
    supply: Sequence[Fraction], demand: Sequence[Fraction], cost: Sequence[Sequence[int]]
) -> tuple[Fraction, list[list[Fraction]]]:
    """Exact min-cost transport by successive shortest paths; (cost, flows).

    Rows are sources, columns sinks, every row-column arc is uncapacitated.
    Each round runs Bellman-Ford from the rows with supply left over the
    residual graph (forward arcs at +cost, used arcs back at -cost) and
    sends as much as a cheapest path to an unfilled column allows.
    Augmenting along any shortest path keeps the residual graph free of
    negative cycles, so the flow is optimal once every column is filled.
    """
    m, n = len(supply), len(demand)
    left, need = list(supply), list(demand)
    flow = [[Fraction(0)] * n for _ in range(m)]
    while any(need):
        dist: list = [0 if left[i] else None for i in range(m)] + [None] * n
        prev: list = [None] * (m + n)
        changed = True
        while changed:
            changed = False
            for i in range(m):
                if dist[i] is None:
                    continue
                for j in range(n):
                    d = dist[i] + cost[i][j]
                    if dist[m + j] is None or d < dist[m + j]:
                        dist[m + j], prev[m + j], changed = d, i, True
            for j in range(n):
                if dist[m + j] is None:
                    continue
                for i in range(m):
                    d = dist[m + j] - cost[i][j]
                    if flow[i][j] and (dist[i] is None or d < dist[i]):
                        dist[i], prev[i], changed = d, m + j, True
        j = next(j for j in range(n) if need[j])
        arcs = []  # (row, column, forward) along the path, sink first
        node = m + j
        while True:
            i = prev[node]
            arcs.append((i, node - m, True))
            if prev[i] is None:
                break
            node = prev[i]
            arcs.append((i, node - m, False))
        amount = min([left[i], need[j]] + [flow[a][b] for a, b, fwd in arcs if not fwd])
        for a, b, fwd in arcs:
            flow[a][b] += amount if fwd else -amount
        left[i] -= amount
        need[j] -= amount
    total = sum(
        (flow[i][j] * cost[i][j] for i in range(m) for j in range(n)), Fraction(0)
    )
    return total, flow


def chain_lp(
    K: SimplicialComplex,
    chain: Chain,
    x: BarycentricPoint,
    y: BarycentricPoint,
) -> tuple[float, list[BarycentricPoint]]:
    """Exact optimum over paths with the given carrier sequence.

    Interior breakpoints are constrained to the interface faces of the
    chain.  Each unit of mass moved from u in supp(x) to v in supp(y) pays
    the fewest vertex switches along the faces, which a DP gives; nothing
    caps those moves, so the optimum is an exact rational transport between
    x and y.  The breakpoints follow each used (u, v) pair's optimal
    positions.  Returns the value and one optimal breakpoint assignment.
    """
    sigma = chain.simplices
    if not set(x.support) <= set(sigma[0]):
        raise EndpointNotInCarrier(f"supp {x.support} not inside first simplex {sigma[0]}")
    if not set(y.support) <= set(sigma[-1]):
        raise EndpointNotInCarrier(f"supp {y.support} not inside last simplex {sigma[-1]}")
    faces = chain.faces()  # raises EmptyIntersection on invalid chains
    routes = []  # per u in supp(x): switch counts at {u}, each face, supp(y)
    for u in x.support:
        dp = [{u: 0}]
        for layer in (*faces, y.support):
            dp.append(_enter(dp[-1], layer))
        routes.append(dp)
    supply, demand = _masses(x, y)
    cost = [[dp[-1][v] for v in y.support] for dp in routes]
    value, flow = _transport(supply, demand, cost)

    mass: list[dict[str, Fraction]] = [{} for _ in faces]
    for row, dp in zip(flow, routes):
        for amount, v in zip(row, y.support):
            if not amount:
                continue
            w = v
            for i in range(len(faces), 0, -1):  # dp[i] holds the counts on faces[i - 1]
                if w not in dp[i]:
                    w = min(dp[i], key=lambda p: (dp[i][p], p))
                mass[i - 1][w] = mass[i - 1].get(w, Fraction(0)) + amount
    breakpoints = [make_point(K, {v: float(m) for v, m in d.items()}) for d in mass]
    return float(value), breakpoints


# --------------------------------------------------------------------------
# admissible lower bounds

def lower_bounds(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint
) -> list[tuple[str, float]]:
    """Admissible lower bounds on the path distance, each individually valid.

    coordinate: half the total variation of the coordinate vectors; any path
      moves each coordinate at least that much.
    disjoint_support: 1 when the supports are disjoint (each endpoint's mass
      must fully drain and refill).
    sphere: sphere-crossing count around the heaviest support vertex of x.
      For a radius k larger than every support radius of x but smaller than
      the largest support radius of y, some path point must carry its full
      weight on the sphere of radius k, so that sphere's weight function
      varies by at least |w_k(x) - 1| + |1 - w_k(y)| along the path.
    """
    xw, yw = x.weights, y.weights
    coords = sorted(set(xw) | set(yw))
    coordinate = 0.5 * sum(abs(xw.get(v, 0.0) - yw.get(v, 0.0)) for v in coords)
    disjoint = 1.0 if not set(x.support) & set(y.support) else 0.0
    out = [("coordinate", coordinate), ("disjoint_support", disjoint)]

    max_w = max(w for _, w in x.items)
    center = min(v for v, w in x.items if w == max_w)
    table = word_metric(K)
    dist = {v: int(table.distance(center, v)) for v in (*x.support, *y.support)}
    wx: dict[int, float] = {}
    wy: dict[int, float] = {}
    for v, w in x.items:
        wx[dist[v]] = wx.get(dist[v], 0.0) + w
    for v, w in y.items:
        wy[dist[v]] = wy.get(dist[v], 0.0) + w
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
    out.append(("sphere", 0.5 * total))
    return out


# --------------------------------------------------------------------------
# the main solver

def _vertex_route_witness(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
    table,
) -> PathWitness:
    """Upper-bound witness: huddle to a support vertex, walk edges, spread."""
    best = None
    for u in x.support:
        for v in y.support:
            cost = (1.0 - x.get(u)) + table.distance(u, v) + (1.0 - y.get(v))
            key = (cost, u, v)
            if best is None or key < best:
                best = key
    _, u, v = best
    points: list[BarycentricPoint] = [x]
    carriers: list[Simplex] = []
    if not (x.is_vertex and x.support[0] == u):
        points.append(vertex_point(K, u))
        carriers.append(x.support)
    for w in geodesic(K, u, v)[1:]:
        prev = points[-1].support[0]
        points.append(vertex_point(K, w))
        carriers.append(tuple(sorted((prev, w))))
    if not (y.is_vertex and y.support[0] == v):
        points.append(y)
        carriers.append(y.support)
    length = path_length(K, points, carriers)
    return PathWitness(points=tuple(points), carriers=tuple(carriers), length=length)


def _trivial_witness(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint, carrier: Simplex
) -> PathWitness:
    return PathWitness(points=(x, y), carriers=(carrier,), length=simplex_l1(x, y))


def l1_path_distance(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
) -> PathResult:
    """Exact path distance with an attaining witness.

    Tier 1 and 2 shortcuts (common simplex, vertex pair) return closed
    forms; the general case runs the best-first chain search.  The result
    is checked against every lower bound the query computed.
    """
    word_metric(K)  # raises DisconnectedComplex early
    if x.key() == y.key():
        return PathResult(0.0, PathWitness(points=(x,), carriers=(), length=0.0))

    bounds = lower_bounds(K, x, y)
    carrier = common_simplex(K, x, y)
    if carrier is not None:
        value = simplex_l1(x, y)
        result = PathResult(value, _trivial_witness(K, x, y, carrier))
    elif x.is_vertex and y.is_vertex:
        table = word_metric(K)
        witness = _vertex_route_witness(K, x, y, table)
        result = PathResult(float(table.distance(x.support[0], y.support[0])), witness)
    else:
        return _path_by_search(K, x, y, bounds + lower_bounds(K, y, x))

    _assert_above_bounds(result.value, bounds, "l1_path_distance")
    return result


def _path_by_search(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
    bounds: list[tuple[str, float]],
) -> PathResult:
    """Tier 3 for a query whose lower bounds, x to y then y to x, are already known.

    `l1_path_distance` and `ExtendedMetric` both solve here, so each query
    computes its bounds once and is checked against all of them.
    """
    result = _solve_by_search(K, x, y, bounds)
    _assert_above_bounds(result.value, bounds, "l1_path_distance")
    return result


def chain_solver_distance(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
) -> PathResult:
    """Diagnostic entry point that skips the closed-form shortcuts.

    Exercises the chain search even on vertex pairs and common-simplex
    pairs, so the search can be validated against the closed forms.
    """
    word_metric(K)
    if x.key() == y.key():
        return PathResult(0.0, PathWitness(points=(x,), carriers=(), length=0.0))
    bounds = lower_bounds(K, x, y) + lower_bounds(K, y, x)
    result = _solve_by_search(K, x, y, bounds)
    _assert_above_bounds(result.value, bounds, "chain_solver_distance")
    return result


def _solve_by_search(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
    bounds: list[tuple[str, float]],
) -> PathResult:
    """The vertex route, unless the best-first search finds a shorter chain."""
    table = word_metric(K)
    incumbent = _vertex_route_witness(K, x, y, table)
    if incumbent.length <= max(b for _, b in bounds) + TIE_TOL:
        return PathResult(incumbent.length, incumbent)
    found = _best_first(K, x, y, table, incumbent.length)
    if found is None:
        return PathResult(incumbent.length, incumbent)

    carriers, bound = found
    value, breakpoints = chain_lp(K, Chain(simplices=carriers), x, y)
    points = (x, *breakpoints, y)
    length = path_length(K, points, carriers)
    if abs(value - float(bound)) > TIE_TOL or abs(length - value) > VALUE_TOL:
        raise InternalConsistencyError(
            f"search value {float(bound)}, chain optimum {value} and witness length "
            f"{length} disagree"
        )
    return PathResult(value, PathWitness(points=points, carriers=carriers, length=length))


def _best_first(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
    table,
    incumbent: float,
) -> tuple[tuple[Simplex, ...], Fraction] | None:
    """Best chain shorter than the incumbent by more than TIE_TOL, or None.

    A state is a maximal simplex sigma reached by a chain from supp(x) plus,
    for each u in supp(x), the fewest switches val_u(w) that bring the mass
    of u to each w in sigma.  States are popped in the order of an exact
    transport whose cost from u to v is min_w val_u(w) + word(w, v): a
    bound no extension of the chain can beat, equal to the chain optimum
    once sigma holds supp(y).  So the first such state popped is optimal.
    A state is dropped when another state at the same sigma is nowhere
    worse; a chain that returns to a simplex is always dropped this way,
    so the search is finite.
    """
    M = K.maximal_simplices
    target = set(y.support)
    supply, demand = _masses(x, y)
    to_y: dict[str, tuple[int, ...]] = {}
    transports: dict[tuple, Fraction] = {}
    labels: list[tuple[Simplex, tuple, int | None]] = []  # (sigma, vals, parent)
    alive: list[bool] = []
    front: dict[Simplex, list[int]] = {}  # sigma -> its undominated live labels
    heap: list[tuple[Fraction, int]] = []

    def bound(sigma: Simplex, vals: tuple) -> Fraction:
        for w in sigma:
            if w not in to_y:
                to_y[w] = tuple(table.distance(w, v) for v in y.support)
        cost = tuple(
            tuple(min(c + to_y[w][j] for w, c in zip(sigma, row)) for j in range(len(y.support)))
            for row in vals
        )
        if cost not in transports:
            transports[cost] = _transport(supply, demand, cost)[0]
        return transports[cost]

    def push(sigma: Simplex, vals: tuple, parent: int | None) -> None:
        kept = front.setdefault(sigma, [])
        if any(_dominates(labels[k][1], vals) for k in kept):
            return
        b = bound(sigma, vals)
        if b >= incumbent - TIE_TOL:
            return
        for k in [k for k in kept if _dominates(vals, labels[k][1])]:
            alive[k] = False
            kept.remove(k)
        kept.append(len(labels))
        labels.append((sigma, vals, parent))
        alive.append(True)
        heapq.heappush(heap, (b, len(labels) - 1))

    for sigma in K.maximal_containing(x.support):
        push(sigma, tuple(tuple(int(w != u) for w in sigma) for u in x.support), None)

    while heap:
        b, li = heapq.heappop(heap)
        if not alive[li]:
            continue
        sigma, vals, _ = labels[li]
        if target <= set(sigma):
            chain = []
            while li is not None:
                chain.append(labels[li][0])
                li = labels[li][2]
            return tuple(reversed(chain)), b
        for j in sorted({j for w in sigma for j in K.incidence[w]}):
            tau = M[j]
            if tau == sigma:
                continue
            shared = set(tau)
            vals_tau = []
            for row in vals:
                entered = _enter({w: c for w, c in zip(sigma, row) if w in shared}, tau)
                vals_tau.append(tuple(entered[w] for w in tau))
            push(tau, tuple(vals_tau), li)
    return None


def _dominates(a: tuple, b: tuple) -> bool:
    """Whether switch-count vectors a are nowhere larger than b."""
    return all(p <= q for ra, rb in zip(a, b) for p, q in zip(ra, rb))
