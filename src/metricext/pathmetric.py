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
its priority a transport that never overestimates and is exact once the
simplex holds supp(y), and states dominated at the same simplex are
dropped, which keeps the search finite.  On one simplex an atom's counts
take two values, m and m + 1, so a state keeps per atom only m and the bit
set Z of vertices at m: its arc costs, dominance tests and moves are a few
integer operations each, whatever the simplex's size, and the search asks
the complex only which simplices meet the one it expands (`neighbours`).

The search core runs in Python ints.  The dyadic float weights scale to
integer supplies and demands that balance exactly (`_masses`), every cost
is a switch count plus a word distance, so each transport is an integer
transport, solved exactly; an answer is divided by its scale once.  That
makes values and witnesses reproducible bit-for-bit and invariant under
vertex relabelings.  The vertex route that seeds the search is carried as
its cost, and its witness is built only when it is the answer.  Before a
state is priced, a floor that no transport total undercuts (each unit of
supply, and of demand, pays at least its cheapest arc) is compared with
the pruning cutoff; a state it already prunes is dropped unpriced, exactly
as its total would have dropped it.  A state whose supp(x) or supp(y) has
one or two atoms is priced in closed form (`_transport_total`: the floor
itself, or a fractional knapsack), which gives the solver's total, so
pushes, pops and chains do not change; only larger states and
`chain_lp`, which needs the flows, run the solver.

A query computes its admissible lower bounds in one pass (`query_bounds`,
both directions of `lower_bounds` with the symmetric entries computed
once).  The search reads that one list, and every solved distance is
checked against it; a result below any bound is recorded and raised as an
internal inconsistency, never returned.  The extension tests the
coordinate bound, the list's first entry, on its own first, and computes
`query_bounds` only for a query past it.

The extension needs only min(bilinear, 3C * path), so it hands the search
a ceiling (bilinear, 3C).  The search then prunes every state whose bound
already puts 3C * path at or above bilinear, so the extension's floor acts
at every search state, not only at the root, and answers None when it has
proved 3C * path >= bilinear; below the ceiling its answer and witness are
the ones found without it.  `l1_path_distance` and `chain_solver_distance`
pass no ceiling.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .complexes import (
    VALUE_TOL,
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
        held = set(carrier)
        if len(held) != len(carrier) or not K.spans(carrier):
            raise InvalidCarrier(f"carrier {carrier} is not a simplex of the complex")
        a, b = points[i], points[i + 1]
        if not (held.issuperset(a.support) and held.issuperset(b.support)):
            raise InvalidCarrier(
                f"segment {i}: supports {a.support}, {b.support} not inside {carrier}"
            )
        total += simplex_l1(a, b)
    return total


# --------------------------------------------------------------------------
# the per-chain optimum: switch-count DP plus an exact integer transport

def _masses(x: BarycentricPoint, y: BarycentricPoint) -> tuple[list[int], list[int], int]:
    """Integer supplies and demands that balance exactly, and their common scale.

    Float weights are dyadic, so over the largest denominator den of their
    exact ratios (a power of two, hence the lcm) x_u = a_u / den and
    y_v = b_v / den with integers a, b.  Supply a_u * sum(b) and demand
    b_v * sum(a) both total sum(a) * sum(b); they are x and y, y rescaled to
    x's exact total, times the scale den * sum(b).
    """
    xs = [w.as_integer_ratio() for _, w in x.items]
    ys = [w.as_integer_ratio() for _, w in y.items]
    den = max(d for _, d in xs + ys)
    a = [n * (den // d) for n, d in xs]
    b = [n * (den // d) for n, d in ys]
    sa, sb = sum(a), sum(b)
    return [n * sb for n in a], [n * sa for n in b], den * sb


def _transport(
    supply: Sequence[int], demand: Sequence[int], cost: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]]:
    """Exact min-cost transport in integers by successive shortest paths; (cost, flows).

    Rows are sources, columns sinks, every row-column arc is uncapacitated;
    supplies are positive and total the demands.  Each round finds the
    distances from the rows with supply left over the residual graph by
    Bellman-Ford rounds (Bellman 1958; Ford 1956): rows relax every column
    at +cost, then columns relax the rows that send them flow at -cost, each
    in index order, and a node takes a predecessor only on a strict
    improvement.  It then sends as much as the recorded path to the first
    unfilled column allows.  Costs reduced by a round's distances are
    nonnegative on every residual arc and zero along the path, so the arcs
    an augmentation opens are zero too: the residual graph never holds a
    negative cycle, the rounds end, and the flow is optimal once every
    column is filled.

    A pass relaxes only the nodes whose distance fell since they were last
    relaxed.  A node relaxed at distance d left each neighbour at most
    d + cost, and distances only fall, so until its own distance falls it
    cannot strictly improve a neighbour.  Every distance and predecessor,
    and so every flow, is the one rounds over all nodes give.
    """
    m, n = len(supply), len(demand)
    rows, cols = range(m), range(n)
    left, need = list(supply), list(demand)
    flow = [[0] * n for _ in rows]
    while any(need):
        dr: list = [0 if s else None for s in left]
        dc: list = [None] * n
        via_r: list = [None] * m  # the column each row was last improved from
        via_c: list = [None] * n  # the row each column was last improved from
        fell_r = [bool(s) for s in left]  # fell since last relaxed
        while any(fell_r):
            fell_c = [False] * n
            for i in rows:
                if fell_r[i]:
                    fell_r[i] = False
                    base = dr[i]
                    for c, d in enumerate(cost[i]):
                        if dc[c] is None or base + d < dc[c]:
                            dc[c], via_c[c], fell_c[c] = base + d, i, True
            for c in cols:
                if fell_c[c]:
                    base = dc[c]
                    for i in rows:
                        if flow[i][c] and (dr[i] is None or base - cost[i][c] < dr[i]):
                            dr[i], via_r[i], fell_r[i] = base - cost[i][c], c, True
        j = next(c for c in cols if need[c])
        forward, backward = [], []  # arcs (row, column) along the path
        c = j
        while True:
            i = via_c[c]
            forward.append((i, c))
            c = via_r[i]
            if c is None:
                break
            backward.append((i, c))
        amount = min([left[i], need[j]] + [flow[a][b] for a, b in backward])
        for a, b in forward:
            flow[a][b] += amount
        for a, b in backward:
            flow[a][b] -= amount
        left[i] -= amount
        need[j] -= amount
    total = sum(f * c for line, fl in zip(cost, flow) for f, c in zip(fl, line))
    return total, flow


def _transport_floor(
    supply: Sequence[int], demand: Sequence[int], cost: Sequence[Sequence[int]]
) -> int:
    """A lower bound on `_transport`'s total.

    Every unit of supply pays at least its row's cheapest arc, and every
    unit of demand its column's, so neither sum exceeds the optimum.
    """
    by_rows = sum(map(mul, supply, map(min, cost)))
    by_columns = sum(map(mul, demand, map(min, zip(*cost))))
    return max(by_rows, by_columns)


def _transport_total(
    supply: Sequence[int], demand: Sequence[int], cost: Sequence[Sequence[int]]
) -> int:
    """`_transport(supply, demand, cost)[0]`, in closed form when a side has one or two atoms.

    With one row every arc carries its column's whole demand (with one
    column, its row's whole supply): the total is `_transport_floor`'s.
    With two rows, start from every column served by the second row: moving
    a unit of column j to the first row changes the total by
    cost[0][j] - cost[1][j], and the first row must take exactly supply[0]
    units, at most demand[j] of them from column j.  That is a fractional
    knapsack, so moving the supply to columns in ascending order of that
    difference is optimal, and its total an integer.  Two columns are the
    same with rows and columns exchanged.  Larger states solve the transport.
    """
    if len(supply) == 1:
        return sum(map(mul, demand, cost[0]))
    if len(demand) == 1:
        return sum(map(mul, supply, next(zip(*cost))))
    if len(supply) == 2:
        return _knapsack(supply[0], demand, *cost)
    if len(demand) == 2:
        return _knapsack(demand[0], supply, *zip(*cost))
    return _transport(supply, demand, cost)[0]


def _knapsack(amount: int, caps: Sequence[int], first: Sequence[int], second: Sequence[int]) -> int:
    """Least sum of first[j] * a_j + second[j] * (caps[j] - a_j) over 0 <= a_j <= caps[j] totalling amount."""
    total = sum(map(mul, caps, second))
    for change, cap in sorted(zip(map(sub, first, second), caps)):
        moved = min(cap, amount)
        total += moved * change
        amount -= moved
    return total


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
    caps those moves, so the optimum is a transport between x and y, solved
    in integers and divided by its scale once.  The breakpoints follow each
    used (u, v) pair's optimal positions.  Returns the value and one optimal
    breakpoint assignment.
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
            # mass stays on a vertex the layer holds, or switches once from the cheapest
            switch = min(dp[-1].values()) + 1
            dp.append({w: dp[-1].get(w, switch) for w in layer})
        routes.append(dp)
    supply, demand, scale = _masses(x, y)
    cost = [[dp[-1][v] for v in y.support] for dp in routes]
    total, flow = _transport(supply, demand, cost)

    mass: list[dict[str, int]] = [{} for _ in faces]
    for row, dp in zip(flow, routes):
        for amount, v in zip(row, y.support):
            if not amount:
                continue
            w = v
            for i in range(len(faces), 0, -1):  # dp[i] holds the counts on faces[i - 1]
                if w not in dp[i]:
                    w = min(dp[i], key=lambda p: (dp[i][p], p))
                mass[i - 1][w] = mass[i - 1].get(w, 0) + amount
    # int / int is correctly rounded: the exact quotient, rounded once
    breakpoints = [make_point(K, {v: m / scale for v, m in d.items()}) for d in mass]
    return total / scale, breakpoints


# --------------------------------------------------------------------------
# admissible lower bounds

def lower_bounds(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint
) -> list[tuple[str, float]]:
    """Admissible lower bounds on the path distance, each individually valid.

    coordinate: half the total variation of the coordinate vectors
      (`simplex_l1`); any path moves each coordinate at least that much.
    disjoint_support: 1 when the supports are disjoint (each endpoint's mass
      must fully drain and refill).
    sphere: sphere-crossing count around the heaviest support vertex of x.
      For a radius k larger than every support radius of x but smaller than
      the largest support radius of y, some path point must carry its full
      weight on the sphere of radius k, so that sphere's weight function
      varies by at least |w_k(x) - 1| + |1 - w_k(y)| along the path.
    """
    return [
        ("coordinate", simplex_l1(x, y)),
        ("disjoint_support", _disjoint_support(x, y)),
        ("sphere", _sphere_bound(word_metric(K), x, y)),
    ]


def query_bounds(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint
) -> list[tuple[str, float]]:
    """A query's bounds: lower_bounds(K, x, y) + lower_bounds(K, y, x), entry for entry.

    The coordinate and disjoint-support bounds are symmetric (|a - b| and
    |b - a| are the same float), so each is computed once; the sphere bound
    is computed once around each end's heaviest vertex.
    """
    table = word_metric(K)
    coordinate = ("coordinate", simplex_l1(x, y))
    disjoint = ("disjoint_support", _disjoint_support(x, y))
    return [
        coordinate,
        disjoint,
        ("sphere", _sphere_bound(table, x, y)),
        coordinate,
        disjoint,
        ("sphere", _sphere_bound(table, y, x)),
    ]


def _disjoint_support(x: BarycentricPoint, y: BarycentricPoint) -> float:
    return 1.0 if set(x.support).isdisjoint(y.support) else 0.0


def _sphere_bound(table, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """The sphere bound of `lower_bounds`, centred at the least of x's heaviest vertices.

    supp(x) spans a simplex, so every other vertex of it lies at radius 1.
    """
    center = max(x.items, key=itemgetter(1))[0]  # the first maximum: items ascend by label
    wx: dict[int, float] = {}
    wy: dict[int, float] = {}
    for v, w in x.items:
        k = int(v != center)
        wx[k] = wx.get(k, 0.0) + w
    for v, w in y.items:
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


# --------------------------------------------------------------------------
# the main solver

def _vertex_route(x: BarycentricPoint, y: BarycentricPoint, table) -> tuple[float, str, str]:
    """The cheapest route that huddles x to some u, walks edges to v and spreads to y: (cost, u, v).

    The cost is (1 - x_u) + word(u, v) + (1 - y_v), an upper bound on the
    path distance; ties go to the least (u, v).
    """
    return min(
        ((1.0 - wu) + table.distance(u, v) + (1.0 - wv), u, v)
        for u, wu in x.items
        for v, wv in y.items
    )


def _route_witness(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint, u: str, v: str
) -> PathWitness:
    """The vertex route's witness: huddle to u, walk a geodesic to v, spread to y."""
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


def _route_length(x: BarycentricPoint, y: BarycentricPoint, u: str, v: str, word: int) -> float:
    """`_route_witness(K, x, y, u, v).length` bit for bit, where word = word(u, v).

    `path_length` adds from 0.0, left to right, the huddle simplex_l1(x, e_u),
    word edges of exactly 1.0 each, and the spread simplex_l1(e_v, y).  With
    u in supp(x), simplex_l1 sums |x_u - 1| at u and |x_w| elsewhere, in
    label order, as here (and so for y and v: |a - b| is |b - a|).  A segment
    the witness skips, x being e_u or y e_v, is 0.0 here, which adds no bit.
    The same floats are added in the same order, and nothing is built.
    """
    total = 0.5 * sum([abs(c - 1.0) if t == u else abs(c) for t, c in x.items])  # 0.0 + huddle
    for _ in range(word):
        total += 1.0
    return total + 0.5 * sum([abs(c - 1.0) if t == v else abs(c) for t, c in y.items])


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
    table = word_metric(K)  # raises DisconnectedComplex early
    if x.key() == y.key():
        return PathResult(0.0, PathWitness(points=(x,), carriers=(), length=0.0))

    carrier = common_simplex(K, x, y)
    if carrier is not None:
        result = PathResult(simplex_l1(x, y), _trivial_witness(K, x, y, carrier))
    elif x.is_vertex and y.is_vertex:
        # the witness's geodesic keeps v's row, which the value and the bounds then read
        u, v = x.support[0], y.support[0]
        witness = _route_witness(K, x, y, u, v)
        result = PathResult(float(table.distance(u, v)), witness)
    else:
        return _solve_by_search(K, x, y, query_bounds(K, x, y))

    _assert_above_bounds(result.value, lower_bounds(K, x, y), "l1_path_distance")
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
    return _solve_by_search(K, x, y, query_bounds(K, x, y))


def _solve_by_search(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
    bounds: list[tuple[str, float]],
    ceiling: tuple[float, float] | None = None,
) -> PathResult | None:
    """The vertex route, unless the best-first search finds a shorter chain.

    The route is carried as its cost; its witness is built only when it is
    the answer.  A ceiling (bilinear, factor) is the stake of a caller that
    only needs min(bilinear, factor * path): the search then prunes every
    chain with factor * value >= bilinear as well, and when it finds nothing
    and factor * the route's exact length (`_route_length`) reaches bilinear
    too, the answer is None, a proof that factor * path >= bilinear.
    Otherwise the result is the exact path, the same as without a ceiling
    (see `_best_first`).  For the extension's own ceiling (D, 3C) the route
    test always passes, since each support spans a simplex and so
    D <= C * route, but it keeps the proof free of what the caller's
    numbers mean.

    `bounds` are the query's lower bounds, x to y then y to x
    (`query_bounds`); every result but None is checked against each of
    them once.
    """
    table = word_metric(K)
    incumbent, u, v = _vertex_route(x, y, table)
    if incumbent > max(b for _, b in bounds) + TIE_TOL:
        found = _best_first(K, x, y, table, incumbent, ceiling)
        if found is not None:
            carriers, bound, scale = found
            value, breakpoints = chain_lp(K, Chain(simplices=carriers), x, y)
            points = (x, *breakpoints, y)
            length = path_length(K, points, carriers)
            # the same integer transport over the same scale: equal bit for bit
            if value != bound / scale or abs(length - value) > VALUE_TOL:
                raise InternalConsistencyError(
                    f"search value {bound / scale}, chain optimum {value} and witness length "
                    f"{length} disagree"
                )
            _assert_above_bounds(value, bounds, "path search")
            return PathResult(value, PathWitness(points=points, carriers=carriers, length=length))
    if ceiling is not None:
        bilinear, factor = ceiling
        if factor * _route_length(x, y, u, v, int(table.distance(u, v))) >= bilinear:
            return None
    witness = _route_witness(K, x, y, u, v)
    _assert_above_bounds(witness.length, bounds, "path search")
    return PathResult(witness.length, witness)


def _reaching_total(bilinear: float, factor: float, scale: int, cutoff: int) -> int:
    """The least total T below cutoff with factor * (T / scale) >= bilinear, else cutoff.

    The test is the caller's own, in floats, on the value `chain_lp` would
    return (int / int, correctly rounded).  Division by a positive int and
    multiplication by a positive float are monotone under rounding, so the
    test is monotone in T and a binary search finds the least T.
    """
    lo, hi = 0, cutoff
    while lo < hi:
        mid = (lo + hi) // 2
        if factor * (mid / scale) >= bilinear:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _best_first(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
    table,
    incumbent: float,
    ceiling: tuple[float, float] | None = None,
) -> tuple[tuple[Simplex, ...], int, int] | None:
    """Best chain shorter than the incumbent by more than TIE_TOL: (chain, total, scale), or None.

    A state is a maximal simplex sigma reached by a chain from supp(x) plus,
    for each u in supp(x), the fewest switches val_u(w) that bring the mass
    of u to each w in sigma.  Those counts take two values only: at the
    first simplex they are 0 at u and 1 elsewhere, and a move to t keeps the
    shared vertices' counts and gives every other vertex of t the least of
    them plus 1, so if val_u is m or m + 1 on sigma, it is on t too, with m
    kept when some vertex at m is shared and m + 1 otherwise.  So val_u is
    stored as (m, Z), Z the vertices at m as a bit set (bits are given to
    vertices as the search first meets them), and a move to t gives
    (m, Z & t) when that is not empty, else (m + 1, sigma & t).

    States are popped in the order of an integer transport (`_masses`,
    `_transport_total`) whose cost from u to v is min_w val_u(w) + word(w, v):
    a bound no extension of the chain can beat, equal to the chain optimum
    times the scale once sigma holds supp(y).  With d_v the least word
    distance from sigma to v and Y_v the vertices of sigma at d_v, that cost
    is m + d_v when Z meets Y_v and m + d_v + 1 otherwise.  So the first
    state popped whose sigma holds supp(y) is optimal.  A state is pruned
    when its total reaches ceil((incumbent - TIE_TOL) * scale), which is
    exactly when its value is no shorter than incumbent - TIE_TOL; when
    `_transport_floor` already reaches that cutoff, the state is pruned
    without solving its transport, and that cost is remembered as pruned.
    A state is dropped when another state at the same sigma is nowhere
    worse: for every u, (m, Z) is nowhere above (m', Z') iff m < m', or
    m == m' and Z holds Z'.  A chain that returns to a simplex is always
    dropped this way, so the search is finite.

    A ceiling (bilinear, factor) lowers the cutoff R to E = the least total
    T with factor * (T / scale) >= bilinear, when E < R (`_reaching_total`).
    The answer is then the same as without it, or None where a chain of
    total in [E, R) was pruned, as follows.

    - Rounding is monotone, so a state whose bound reaches E cannot
      complete to a chain whose value, times factor, falls below bilinear:
      such a chain could not win the caller's min.
    - A dominated state has a bound no lower than its dominator's, so a
      state whose bound reaches E, kept or pruned, never drops or replaces
      a state below E.  The states below
      E are pushed and popped in the same order as without the ceiling;
      every state popped before the goal has a bound below E, so a goal
      found is the same chain, with the same total, breakpoints and witness.
    - If nothing is found, a chain of total T in [E, R) may have been
      pruned.  T < R puts T / scale below incumbent - TIE_TOL exactly.
      Rounding T / scale, and the gap between the incumbent and the route's
      exact length (the same sum, added up another way), are both far
      below TIE_TOL, so the rounded T / scale is below that length and
      factor * length reaches bilinear too.  The caller therefore tests the
      route's length (`_route_length`): when factor * length falls below
      bilinear, no such chain exists and the route is the exact answer.
    """
    M = K.maximal_simplices
    ys = y.support
    ends = set(K.maximal_indices_containing(ys))
    supply, demand, scale = _masses(x, y)
    p, q = (incumbent - TIE_TOL).as_integer_ratio()
    cutoff = -(-p * scale // q)
    if ceiling is not None:
        cutoff = _reaching_total(*ceiling, scale, cutoff)
    index = table.index
    rows_y = [table.row(v) for v in ys]  # one search per vertex of supp(y) answers every word(w, v)
    met: dict[str, tuple[int, list[int]]] = {}  # w -> (its bit, word(w, v) per v), on first touch
    seen: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}  # s -> (bits of M[s], per v (d_v, Y_v))
    transports: dict[tuple, int] = {}  # cost -> its total, or a floor at or above the cutoff
    labels: list[tuple[int, tuple, int | None]] = []  # (s, state, parent); state: per u, (m, Z)
    alive: list[bool] = []
    front: dict[int, list[int]] = {}  # s -> its undominated live labels
    heap: list[tuple[int, int]] = []

    def meet(s: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Record s the first time the search meets it: its bits, and (d_v, Y_v) per v in supp(y)."""
        ones, words = [], []
        for w in M[s]:
            known = met.get(w)
            if known is None:
                i = index[w]
                known = met[w] = (1 << len(met), [row.item(i) for row in rows_y])
            ones.append(known[0])
            words.append(known[1])
        near = []
        for column in zip(*words):
            d = min(column)
            at = 0
            for b, word in zip(ones, column):
                if word == d:
                    at |= b
            near.append((d, at))
        found = seen[s] = (sum(ones), tuple(near))  # distinct bits: their sum is their union
        return found

    def push(s: int, near: tuple, state: tuple, parent: int | None) -> None:
        kept = front.get(s)
        if kept is None:
            kept = front[s] = []
        for k in kept:
            if _dominates(labels[k][1], state):
                return
        cost = tuple([tuple([m + d if z & at else m + d + 1 for d, at in near]) for m, z in state])
        b = transports.get(cost)
        if b is None:
            b = _transport_floor(supply, demand, cost)
            if b < cutoff:
                b = _transport_total(supply, demand, cost)
            transports[cost] = b  # a floor at or above the cutoff prunes as the total it bounds would
        if b >= cutoff:
            return
        for k in [k for k in kept if _dominates(state, labels[k][1])]:
            alive[k] = False
            kept.remove(k)
        kept.append(len(labels))
        labels.append((s, state, parent))
        alive.append(True)
        heapq.heappush(heap, (b, len(labels) - 1))

    for s in K.maximal_indices_containing(x.support):
        near = meet(s)[1]
        push(s, near, tuple([(0, met[u][0]) for u in x.support]), None)

    while heap:
        b, li = heapq.heappop(heap)
        if not alive[li]:
            continue
        s, state, _ = labels[li]
        if s in ends:
            chain = []
            while li is not None:
                chain.append(M[labels[li][0]])
                li = labels[li][2]
            return tuple(reversed(chain)), b, scale
        ms = seen[s][0]
        for t in K.neighbours(s):
            mt, near = seen.get(t) or meet(t)
            # mass stays on a shared vertex at m, or all of it switches once
            push(t, near, tuple([(m, zt) if (zt := z & mt) else (m + 1, ms & mt) for m, z in state]), li)
    return None


def _dominates(a: tuple, b: tuple) -> bool:
    """Whether the switch counts of state a are nowhere above those of state b."""
    for (ma, za), (mb, zb) in zip(a, b):
        if ma > mb or (ma == mb and zb & ~za):
            return False
    return True
