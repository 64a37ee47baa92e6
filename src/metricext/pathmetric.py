"""The l1 path metric between barycentric points of a finite complex.

A path is a sequence of points in which consecutive entries share a simplex;
its length is the sum of per-simplex l1 distances.  The distance is the
minimum length over all paths.  The solver works in three tiers:

  1. points in a common simplex: the l1 distance itself is optimal;
  2. two vertices: the word metric, whose edge-path witness is built when
     it is read;
  3. general case: an exact best-first (A*) search over chains of maximal
     simplices.

Along a fixed chain, half the l1 distance between two distributions is the
least mass that must move between them, so each unit of mass sent from u in
supp(x) to v in supp(y) pays the fewest vertex switches it needs through
the chain's interface faces.  Those moves are uncapacitated, so the chain's
optimum is a transportation problem whose costs a DP over the faces gives
(`_switch_counts`, `chain_lp`).  The search carries that DP from simplex
to simplex: a state is the last simplex plus the switch counts reaching
each of its vertices, its priority a transport that never overestimates
and is exact once the simplex holds supp(y), and states dominated at the
same simplex are dropped, which keeps the search finite.  On one simplex
an atom's counts take two values, m and m + 1, so a state keeps per atom
only m and the bit set Z of vertices at m: its arc costs, dominance tests
and moves are a few integer operations each, whatever the simplex's size.  The search asks the
complex only which simplices meet the one it expands, and in which face
(`neighbours`): a move's new state and its price depend on that face
alone, so a face is priced once per expansion, and a simplex behind a
face that the cutoff prunes is never met.

The search core runs in Python ints.  The dyadic float weights scale to
integer supplies and demands that balance exactly (`_masses`), every cost
is a switch count plus a word distance, so each transport is an integer
transport, solved exactly; an answer is divided by its scale once.  That
makes values and witnesses reproducible bit-for-bit, invariant under
vertex relabelings and symmetric in x and y.  The vertex route that seeds
the search is priced in the same units, an integer R (`_vertex_route`),
and the chain the search finds is carried as its total: a chain answer is
checked when it is answered, its exact optimum (the transport over its
DP's costs, `_switch_counts`) against the search's total, but `chain_lp`
places its breakpoints only when the caller first reads the witness, as
a route answer's witness is built then too (`PathResult`).

Every transport here costs m_u + d_v + e_uv from u to v with e_uv in
{0, 1}: a search state by construction, the word block by its columns,
a chain's DP costs by its rows, each proved where it is split.  Whatever
the plan, the m and d parts cost a fixed separable sum, and each unit on
an arc with e = 1 one more, so the total is that sum plus the scale
minus F, the largest flow along the arcs with e = 0 (`_zero_flow`; Ford
& Fulkerson 1956).  The sum alone is a floor no total undercuts: a
search state it already prunes is dropped without a flow, exactly as its
total would have dropped it, and a state's F is kept per zero pattern.
`chain_lp` completes the flow into a plan, which places the breakpoints.

A search-tier query is priced once, by its word transport T_W: the least
cost of moving x's masses onto y's when a unit moved from u to v pays
word(u, v) (Kantorovich 1942), an integer over the query's scale
(`_word_transport`).  T_W / scale is an admissible bound, the strongest
the query lists (`query_bounds`); it is also every root state's price,
so the search is skipped exactly when T_W reaches its cutoff, and each
solved distance is checked against the listed bounds; a result below any
of them is recorded and raised as an internal inconsistency, never
returned.  A closed form is checked against the same list, its T_W known
without a solve: word(u, v) for two vertices, and on a common simplex
the transport at cost 1 between distinct vertices (`_simplex_transport`).

Every path answer comes from one function (`_path`), which orders the
tiers and, for a caller that needs only min(bilinear, factor * path), the
floors of a ceiling (bilinear, factor); its docstring describes them.
`l1_path_distance` passes no ceiling, the extension passes (D, 3C), and
`chain_solver_distance` skips the closed forms.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

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


class PathResult:
    """A path distance and a witness that attains it, used as the pair (value, witness).

    A closed form comes with its witness.  A vertex route's witness
    (`_route_witness`) and a chain's (`_chain_witness`) are built when
    `.witness` is first read, and then kept: `route` holds the route's
    (K, x, y, u, v), u and v vertex ids, and `chain` the chain's (K, x, y,
    rows), its simplices' vertex id rows, until then; labels are read only
    when the witness is built.
    Reading `.value`, or `[0]`, builds nothing.  A route's witness length,
    a float sum, must lie within VALUE_TOL of the value; a chain's witness
    must pass `_chain_witness`'s checks; else the read raises
    InternalConsistencyError.  Unpacking, indexing, equality, hashing and
    repr are the pair's.
    """

    __slots__ = ("value", "_witness", "_route", "_chain")

    def __init__(
        self,
        value: float,
        witness: PathWitness | None = None,
        route: tuple | None = None,
        chain: tuple | None = None,
    ):
        self.value = value
        self._witness = witness
        self._route = route
        self._chain = chain

    @property
    def witness(self) -> PathWitness:
        if self._witness is None:
            if self._route is not None:
                witness = _route_witness(*self._route)
                if abs(witness.length - self.value) > VALUE_TOL:
                    raise InternalConsistencyError(
                        f"route value {self.value!r} != its witness length {witness.length!r}"
                    )
            else:
                witness = _chain_witness(*self._chain, self.value)
            self._witness, self._route, self._chain = witness, None, None
        return self._witness

    def __iter__(self):
        yield self.value
        yield self.witness

    def __getitem__(self, i: int):
        return getattr(self, ("value", "witness")[i])

    def __len__(self) -> int:
        return 2

    def __eq__(self, other):
        if not isinstance(other, (PathResult, tuple)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"PathResult(value={self.value!r}, witness={self.witness!r})"


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
    b_v * sum(a) both total sum(a) * sum(b), the scale: they are x and y,
    each normalised to total exactly 1, times that scale.  Weights whose
    floats do not sum to exactly 1 are so treated alike at either end, and
    the answer does not depend on which end is x.
    """
    xs = [w.as_integer_ratio() for _, w in x.pairs]
    ys = [w.as_integer_ratio() for _, w in y.pairs]
    den = max(d for _, d in xs + ys)
    a = [n * (den // d) for n, d in xs]
    b = [n * (den // d) for n, d in ys]
    sa, sb = sum(a), sum(b)
    return [n * sb for n in a], [n * sa for n in b], sa * sb


def _zero_flow(
    supply: Sequence[int], demand: Sequence[int], zero: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]]:
    """The largest flow from the supplies to the demands along the zero arcs: (F, flows).

    Every transport here costs m_u + d_v + e_uv from row u to column v, with
    e_uv in {0, 1}, and zero[u] lists the columns v with e_uv = 0.  Whatever
    the plan, the m and d parts cost sum(supply * m) + sum(demand * d), and
    each unit on an arc with e = 1 one more, so the least total is that sum
    plus the scale (the total supply) minus F (Ford & Fulkerson 1956;
    equivalently the Hall deficiency, Gale 1957).  Arcs are uncapacitated:
    only the supplies and demands bound the flow.  A greedy pass sends what
    each zero arc can, in order.  Then, while the residual graph (a zero
    arc forward, an arc that carries flow backward) has a path from a row
    with supply left to a column with demand left, a breadth-first search
    finds a shortest one and sends along it as much as it allows.  When
    none is left the flow is maximum, and shortest paths end the rounds
    after O(VE) augmentations whatever the masses (Edmonds & Karp 1972).
    """
    left, need = list(supply), list(demand)
    flow = [[0] * len(demand) for _ in supply]
    _send(flow, left, need, [(i, j) for i, columns in enumerate(zero) for j in columns])
    while any(left):
        via_r = {i: None for i, a in enumerate(left) if a}  # row -> the column it was reached by
        via_c = {}  # column -> the row it was reached from, in the order reached
        level = list(via_r)
        while level:
            grown = []
            for i in level:
                for j in zero[i]:
                    if j not in via_c:
                        via_c[j] = i
                        for r, line in enumerate(flow):
                            if line[j] and r not in via_r:
                                via_r[r] = j
                                grown.append(r)
            level = grown
        end = next((j for j in via_c if need[j]), None)
        if end is None:
            break
        path, j = [], end  # arcs (row, column, +1 forward or -1 backward), back from the end
        while j is not None:
            i = via_c[j]
            path.append((i, j, 1))
            j = via_r[i]
            if j is not None:
                path.append((i, j, -1))
        sent = min([left[i], need[end]] + [flow[a][b] for a, b, sign in path if sign < 0])
        for a, b, sign in path:
            flow[a][b] += sign * sent
        left[i] -= sent
        need[end] -= sent
    return sum(supply) - sum(left), flow


def _send(flow: list[list[int]], left: list[int], need: list[int], arcs: Iterable[tuple[int, int]]) -> None:
    """Sends along each arc (i, j), in order, as much as row i has left and column j needs."""
    for i, j in arcs:
        sent = min(left[i], need[j])
        flow[i][j] += sent
        left[i] -= sent
        need[j] -= sent


def _row_split(cost: Sequence[Sequence[int]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Each row's least cost m_u and the columns at it, for costs m_u + e_uv with e_uv in {0, 1}.

    A row with a cost above m_u + 1 does not decompose so, and
    InternalConsistencyError is raised.
    """
    mins, zero = [], []
    for row in cost:
        m = min(row)
        at = tuple([j for j, c in enumerate(row) if c == m])
        if len(at) < len(row) and max(row) > m + 1:
            raise InternalConsistencyError(f"costs {row} take more than two successive values")
        mins.append(m)
        zero.append(at)
    return mins, zero


def _switch_counts(chain: Chain, xs: Sequence, ys: Sequence) -> tuple[list[tuple], list[list[dict]], list[list[int]]]:
    """The switch-count DP along a chain: its faces, each atom's counts, and the chain's costs.

    xs and ys are supp(x) and supp(y), named as the chain names vertices:
    labels, or, for a chain of id rows, vertex ids; only set membership is
    read.  Per u in supp(x), the fewest vertex switches that bring the mass
    of u to each vertex of {u}, of each interface face and of supp(y): mass
    stays on a vertex the next layer holds, or switches once from the
    cheapest.  Row u of the cost matrix is its counts at supp(y), a column
    per v.
    """
    sigma = chain.simplices
    if not set(xs) <= set(sigma[0]):
        raise EndpointNotInCarrier(f"supp {tuple(xs)} not inside first simplex {sigma[0]}")
    if not set(ys) <= set(sigma[-1]):
        raise EndpointNotInCarrier(f"supp {tuple(ys)} not inside last simplex {sigma[-1]}")
    faces = chain.faces()  # raises EmptyIntersection on invalid chains
    routes = []  # per u in supp(x): switch counts at {u}, each face, supp(y)
    for u in xs:
        dp = [{u: 0}]
        for layer in (*faces, ys):
            switch = min(dp[-1].values()) + 1
            dp.append({w: dp[-1].get(w, switch) for w in layer})
        routes.append(dp)
    return faces, routes, [[dp[-1][v] for v in ys] for dp in routes]


def _chain_transport(
    supply: Sequence[int], demand: Sequence[int], cost: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]]:
    """The least total of a chain's transport over its DP's costs (`_switch_counts`), and a plan attaining it.

    Each layer's counts take two values, its least c and c + 1: the first
    layer {u} holds 0, and the next keeps its shared vertices' counts and
    gives every other vertex the least of them plus 1.  So row u of the
    costs, its counts at supp(y), is m_u + e_uv with e_uv in {0, 1}
    (`_row_split`), and the total is sum(supply * m) + scale - F
    (`_zero_flow`).  A largest zero-arc flow, completed by any fill of the
    supply left into the demand left, attains it: a filled unit pays
    exactly m_u + 1, since a zero arc between a row and a column that both
    have mass left would be an augmenting path.
    """
    mins, zero = _row_split(cost)
    carried, flow = _zero_flow(supply, demand, zero)
    left = [a - sum(row) for a, row in zip(supply, flow)]
    need = [b - sum(column) for b, column in zip(demand, zip(*flow))]
    _send(flow, left, need, itertools.product(range(len(supply)), range(len(demand))))
    return sum(map(mul, supply, mins)) + sum(supply) - carried, flow


def chain_lp(
    K: SimplicialComplex,
    chain: Chain,
    x: BarycentricPoint,
    y: BarycentricPoint,
) -> tuple[float, list[BarycentricPoint]]:
    """Exact optimum over paths with the given carrier sequence.

    Interior breakpoints are constrained to the interface faces of the
    chain.  Each unit of mass moved from u in supp(x) to v in supp(y) pays
    the fewest vertex switches along the faces, which a DP gives
    (`_switch_counts`); nothing caps those moves, so the optimum is a
    transport between x and y, solved in integers (`_chain_transport`) and
    divided by its scale once.  The breakpoints follow each used (u, v)
    pair's optimal positions.  Returns the value and one optimal breakpoint
    assignment.
    """
    faces, routes, cost = _switch_counts(chain, x.support, y.support)
    supply, demand, scale = _masses(x, y)
    total, flow = _chain_transport(supply, demand, cost)

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

@dataclass
class _WordTransport:
    """A query's word transport: the masses it moves, their costs, and its integer total T_W over scale.

    supp(x) spans a simplex, so its vertices are pairwise adjacent and their
    word distances to any v differ by at most 1: the block is d_v + e_uv
    with e_uv in {0, 1}, d_v its column minimum (`_row_split` of its
    columns).
    """

    supply: list[int]
    demand: list[int]
    scale: int
    words: tuple[tuple[int, ...], ...]  # word(u, v): a row per u in supp(x), a column per v in supp(y)
    near: list[int]  # per v, d_v = min_u word(u, v)
    zero: list[tuple[int, ...]]  # per v, the positions of the u at d_v

    @cached_property
    def floor(self) -> int:
        """sum(demand * d) plus the supply of each u at no column minimum: at most T_W, and found without a flow.

        Every unit from such a u pays d_v + 1, so no flow along the zero
        arcs carries it: scale - F is at least that supply.
        """
        met = set().union(*self.zero)
        return sum(map(mul, self.demand, self.near)) + sum([a for u, a in enumerate(self.supply) if u not in met])

    @cached_property
    def total(self) -> int:
        """T_W = sum(demand * d) + scale - F, F the largest flow along the block's zero arcs (`_zero_flow`)."""
        return sum(map(mul, self.demand, self.near)) + self.scale - _zero_flow(self.demand, self.supply, self.zero)[0]


def _word_transport(table, x: BarycentricPoint, y: BarycentricPoint) -> _WordTransport:
    """The word transport T_W between x's and y's masses (`_masses`), over the word block."""
    supply, demand, scale = _masses(x, y)
    words = tuple([tuple([int(table.distance(u, v)) for v in y.ids]) for u in x.ids])
    return _WordTransport(supply, demand, scale, words, *_row_split(list(zip(*words))))


def lower_bounds(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint
) -> list[tuple[str, float]]:
    """Admissible lower bounds on the path distance, each individually valid.

    coordinate: half the total variation of the coordinate vectors
      (`simplex_l1`); any path moves each coordinate at least that much.
    disjoint_support: 1 when the supports are disjoint (each endpoint's mass
      must fully drain and refill).
    transport: T_W / scale, the word transport (`_word_transport`).  On one
      simplex simplex_l1 is the word transport, since distinct vertices lie
      at word distance 1; the transport obeys the triangle inequality, so
      along any path it is at most the path's length.

    The transport is the largest of the three: the coordinate bound is the
    transport at cost 1 between distinct vertices, which word distances
    never undercut, and on disjoint supports every unit moves at cost 1 or
    more.  All three are symmetric in x and y.
    """
    priced = _word_transport(word_metric(K), x, y)
    return query_bounds(x, y, priced.total / priced.scale)


def query_bounds(x: BarycentricPoint, y: BarycentricPoint, transport: float) -> list[tuple[str, float]]:
    """The bounds of `lower_bounds`, for a query whose word transport T_W / scale is already known."""
    return [
        ("coordinate", simplex_l1(x, y)),
        ("disjoint_support", _disjoint_support(x, y)),
        ("transport", transport),
    ]


def _simplex_transport(x: BarycentricPoint, y: BarycentricPoint) -> float:
    """T_W / scale for x and y in a common simplex, where no word distance is read and nothing solved.

    Distinct vertices of a simplex are adjacent, so the word block is
    1 - delta: every unit of mass moves at cost 1 but what stays on a
    shared atom u, min(supply_u, demand_u) of it (`_masses`).  So T_W is
    scale minus those amounts, the integer `_word_transport` solves.
    """
    supply, demand, scale = _masses(x, y)
    stays = dict(zip(x.ids, supply))
    return (scale - sum([min(stays[v], d) for v, d in zip(y.ids, demand) if v in stays])) / scale


def _disjoint_support(x: BarycentricPoint, y: BarycentricPoint) -> float:
    return 1.0 if set(x.ids).isdisjoint(y.ids) else 0.0


# --------------------------------------------------------------------------
# the main solver

def _vertex_route(x: BarycentricPoint, y: BarycentricPoint, priced: _WordTransport) -> tuple[int, int, int]:
    """The cheapest route that huddles x to some u, walks edges to v and spreads to y.

    Returns (R, u, v), u and v vertex ids and R the route's length
    (1 - x_u) + word(u, v) + (1 - y_v) with x and y normalised exactly, in
    the integer units of the query's transports (`_masses`): (1 - x_u) *
    scale is scale - supply_u, and (1 - y_v) * scale is scale - demand_v.
    R is symmetric in x and y, an upper bound on the path distance times
    the scale, with word(u, v) read from the query's word block
    (`_WordTransport`); ties go to the least (u, v), ids ascending with
    labels.
    """
    return min(
        ((word + 2) * priced.scale - a - b, u, v)
        for u, a, row in zip(x.ids, priced.supply, priced.words)
        for v, b, word in zip(y.ids, priced.demand, row)
    )


def _route_witness(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint, u: int, v: int
) -> PathWitness:
    """The vertex route's witness: huddle to vertex id u, walk a geodesic to vertex id v, spread to y."""
    points: list[BarycentricPoint] = [x]
    carriers: list[Simplex] = []
    walk = geodesic(K, K.vertices[u], K.vertices[v])
    if not (x.is_vertex and x.ids[0] == u):
        points.append(vertex_point(K, walk[0]))
        carriers.append(x.support)
    for prev, w in zip(walk, walk[1:]):
        points.append(vertex_point(K, w))
        carriers.append(tuple(sorted((prev, w))))
    if not (y.is_vertex and y.ids[0] == v):
        points.append(y)
        carriers.append(y.support)
    length = path_length(K, points, carriers)
    return PathWitness(points=tuple(points), carriers=tuple(carriers), length=length)


def _chain_witness(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint, rows: tuple[tuple[int, ...], ...], value: float
) -> PathWitness:
    """A chain answer's witness: `chain_lp`'s breakpoints along the chain the search found.

    The chain comes as its simplices' vertex id rows, which become the
    label carriers here.  The chain's optimum must be the
    answer's value bit for bit (the same integer transport over the same
    scale) and the witness's length within VALUE_TOL of it, or
    InternalConsistencyError is raised.
    """
    carriers = tuple([tuple([K.vertices[w] for w in row]) for row in rows])
    optimum, breakpoints = chain_lp(K, Chain(simplices=carriers), x, y)
    points = (x, *breakpoints, y)
    length = path_length(K, points, carriers)
    if optimum != value or abs(length - value) > VALUE_TOL:
        raise InternalConsistencyError(
            f"search value {value}, chain optimum {optimum} and witness length {length} disagree"
        )
    return PathWitness(points=points, carriers=carriers, length=length)


def l1_path_distance(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
) -> PathResult:
    """Exact path distance with an attaining witness (`_path` without a ceiling)."""
    return _path(K, x, y)


def _path(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
    ceiling: tuple[float, float] | None = None,
) -> PathResult | None:
    """The path from x to y, or None once a ceiling proves factor * path >= bilinear.

    The tiers run in order: equal points; a common simplex, whose l1
    distance is the path, with a one-segment witness; two vertices, the
    word metric, whose edge-path witness is built when it is read; else the
    search.  Every answer is checked against `query_bounds`, the bounds of
    `lower_bounds`: a closed form's with its word transport in closed form,
    the search's with the word transport it is priced by once.

    A ceiling (bilinear, factor) is the stake of a caller that needs only
    min(bilinear, factor * path), such as the extension's (D, 3C).  Its
    floors come in the order of their cost:

      1. the coordinate bound simplex_l1(x, y), alone and first, which
         decides most queries;
      2. a common simplex, whose path is that same float;
      3. the word block's floor over scale (`_WordTransport.floor`: its
         separable sum plus the supply that no zero arc carries), which
         T_W never undercuts, so it decides before the flow of T_W is found;
      4. the word transport T_W and every state of the search
         (`_solve_by_search`).

    When step 3 decides, no path can win the caller's min: every chain's
    total, every root's price and the route's R are at least T_W, and
    rounding is monotone, so a floor L <= T_W that reaches bilinear makes
    each of them reach it.  T_W itself needs no test of its own: where
    factor * T_W / scale reaches bilinear, T_W reaches the search's cutoff,
    so the search does not run and the route, R >= T_W, reaches bilinear
    too.  Below the ceiling the answer is the one found without it, and a
    common simplex or search answer has factor * value < bilinear, so the
    caller compares nothing more: a common simplex has failed step 1, a
    chain's total lies below the cutoff the ceiling sets
    (`_reaching_total`), and the route is returned only when factor *
    R / scale is below bilinear.  Two vertices get their exact path
    whatever the ceiling.
    """
    if ceiling is not None:
        bilinear, factor = ceiling
        if factor * simplex_l1(x, y) >= bilinear:
            return None
    table = word_metric(K)  # raises DisconnectedComplex early
    if x.key() == y.key():
        return PathResult(0.0, PathWitness(points=(x,), carriers=(), length=0.0))

    carrier = common_simplex(K, x, y)
    if carrier is not None:
        value = simplex_l1(x, y)
        result = PathResult(value, PathWitness(points=(x, y), carriers=(carrier,), length=value))
        transport = _simplex_transport(x, y)
    elif x.is_vertex and y.is_vertex:
        # v's row gives the value and the bounds; the route witness, built when it is
        # read, walks its geodesic down the same row
        u, v = x.ids[0], y.ids[0]
        result = PathResult(float(table.row(v).item(u)), route=(K, x, y, u, v))
        transport = result.value  # T_W of two vertices: word(u, v) over scale 1
    else:
        priced = _word_transport(table, x, y)
        if ceiling is not None:
            if factor * (priced.floor / priced.scale) >= bilinear:
                return None
        return _solve_by_search(K, x, y, priced, ceiling)

    _assert_above_bounds(result.value, query_bounds(x, y, transport), "closed form")
    return result


def chain_solver_distance(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
) -> PathResult:
    """Diagnostic entry point that skips the closed-form shortcuts.

    Common-simplex pairs go through the chain search, so it can be validated
    against the closed form.  Vertex pairs go through the same entry but
    never reach the search: for two vertices the word transport is the word
    distance, the route's own cost, so `_solve_by_search` returns the route
    without calling `_best_first`.
    """
    table = word_metric(K)
    if x.key() == y.key():
        return PathResult(0.0, PathWitness(points=(x,), carriers=(), length=0.0))
    return _solve_by_search(K, x, y, _word_transport(table, x, y))


def _solve_by_search(
    K: SimplicialComplex,
    x: BarycentricPoint,
    y: BarycentricPoint,
    priced: _WordTransport,
    ceiling: tuple[float, float] | None = None,
) -> PathResult | None:
    """The vertex route, unless the best-first search finds a shorter chain.

    The route is priced as the integer R (`_vertex_route`), and a route
    answer's value is R / scale, rounded once.  A chain answer's value is
    the search's total over its scale, once the chain's exact optimum, the
    transport over its switch-count DP's costs (`_switch_counts`,
    `_chain_transport`), is found equal to that total; a disagreement
    raises InternalConsistencyError.  Either answer's witness is built when
    the caller first reads it (`PathResult`): a chain's by `chain_lp` and
    `path_length`, checked again (`_chain_witness`).

    Without a ceiling the search's cutoff is R: a chain wins only with a
    total below R, and a tie goes to the route.  A ceiling (bilinear,
    factor) is the stake of a caller that only needs min(bilinear,
    factor * path): the cutoff is then min(E, R), E the least total with
    factor * (E / scale) >= bilinear (`_reaching_total`), so the search
    prunes every chain with factor * value >= bilinear as well, and when
    it finds nothing and factor * R / scale reaches bilinear too, the
    answer is None, a proof that factor * path >= bilinear.  Otherwise the
    result is the exact path, the same as without a ceiling (see
    `_best_first`).  For the extension's own ceiling (D, 3C) the route test
    always passes, since each support spans a simplex and so D <= C *
    route, but it keeps the proof free of what the caller's numbers mean.

    `priced` is the query's word transport (`_word_transport`).  Its total
    T_W is the price of every root of the search, so when T_W reaches the
    search's cutoff the search would push nothing, and it is not run.
    Every result but None is checked once against each of the query's
    bounds (`query_bounds`).
    """
    table = word_metric(K)
    route, u, v = _vertex_route(x, y, priced)
    cutoff = route if ceiling is None else _reaching_total(*ceiling, priced.scale, route)
    if priced.total < cutoff:
        found = _best_first(K, x, y, table, priced, cutoff)
        if found is not None:
            rows, bound, scale = found
            cost = _switch_counts(Chain(simplices=rows), x.ids, y.ids)[2]
            # the chain's exact optimum, the transport over its DP's costs, is the search's total
            optimum = _chain_transport(priced.supply, priced.demand, cost)[0]
            if optimum != bound:
                raise InternalConsistencyError(
                    f"search total {bound} and chain optimum {optimum} over scale {scale} disagree"
                )
            value = bound / scale
            _assert_above_bounds(value, query_bounds(x, y, priced.total / priced.scale), "path search")
            return PathResult(value, chain=(K, x, y, rows))
    value = route / priced.scale
    if ceiling is not None:
        bilinear, factor = ceiling
        if factor * value >= bilinear:
            return None
    _assert_above_bounds(value, query_bounds(x, y, priced.total / priced.scale), "path search")
    return PathResult(value, route=(K, x, y, u, v))


def _reaching_total(bilinear: float, factor: float, scale: int, cutoff: int) -> int:
    """The least total T below cutoff with factor * (T / scale) >= bilinear, else cutoff.

    The test is the caller's own, in floats, on the value a chain answer
    takes, T / scale (int / int, correctly rounded).  Division by a positive
    int and multiplication by a positive float are monotone under rounding,
    so the test is monotone in T and a binary search finds the least T.
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
    priced: _WordTransport,
    cutoff: int,
) -> tuple[tuple[tuple[int, ...], ...], int, int] | None:
    """Best chain whose total lies below the cutoff: (chain, total, scale), or None.

    The chain is its simplices' vertex id rows.

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

    States are popped in the order of an integer transport (`_masses`)
    whose cost from u to v is min_w val_u(w) + word(w, v):
    a bound no extension of the chain can beat, equal to the chain optimum
    times the scale once sigma holds supp(y).  With d_v the least word
    distance from sigma to v and Y_v the vertices of sigma at d_v, that cost
    is m + d_v when Z meets Y_v and m + d_v + 1 otherwise.  So the first
    state popped whose sigma holds supp(y) is optimal, whichever of the
    states of equal total is popped first (A* is optimal up to its
    tie-breaking; Hart, Nilsson & Raphael 1968): the heap prefers the state
    nearer supp(y), of least sum_v d_v, then the earlier label.

    A root is a sigma holding supp(x), where val_u is 0 at u and 1
    elsewhere.  u is adjacent to every vertex of sigma, so
    min_w val_u(w) + word(w, v) = word(u, v): every root's costs are the
    query's word block, and its total is the word transport T_W (`priced`,
    `_word_transport`), which is seeded, never computed here.  Hence no
    chain's total is below T_W, and with T_W at or above the cutoff the
    search pushes nothing; the caller then does not run it.

    A move's state and total depend only on its face f = sigma & t.  The
    moved (m', Z') is (m, Z & f) or (m + 1, f), so Z' lies in f, and every
    vertex of t outside f has count m' + 1.  Such a vertex is adjacent to
    each vertex of Z', so its word distance to any v is at least theirs
    minus 1, and it never lowers min_w val_u(w) + word(w, v): the costs are
    m' + d_v, plus 1 when Z' misses Y_v, with d_v and Y_v taken over f.
    So an expansion walks the pairs (t, f) of `K.neighbours`, t ascending:
    it builds each face's move once, from vertices already met, tests
    dominance at t, prices the face the first time one of its neighbours
    survives that test, and skips every t behind a face whose total
    reaches the cutoff.  Only a t that is pushed is met, for its bits and
    its sum_v d_v.  The pushes and pops are those of pricing every t from
    its own vertices.

    A state's costs are m_u + d_v + e_uv, with e_uv = 0 exactly where Z_u
    meets Y_v, so its total is the separable sum(supply * m) +
    sum(demand * d) plus scale minus F, F the largest flow along those zero
    arcs (`_zero_flow`), kept per zero pattern: the masses are the query's.
    A state is pruned when its total reaches the cutoff; when the separable
    sum, at most the total, already reaches it, the state is pruned without
    its zero arcs or their flow.  A state is dropped when another state at
    the same sigma is nowhere worse: for every u, (m, Z) is nowhere above
    (m', Z') iff m < m', or m == m' and Z holds Z'.  A chain that returns
    to a simplex is always dropped this way, so the search is finite.

    The cutoff is the route's R (`_vertex_route`), or, under a ceiling
    (bilinear, factor), min(E, R), E the least total with
    factor * (E / scale) >= bilinear (`_reaching_total`).  Rounding is
    monotone, so a state whose bound reaches E cannot complete to a chain
    whose value, times factor, falls below bilinear.  A dominated state has
    a bound no lower than its dominator's, so a state whose bound reaches
    E, kept or pruned, never drops or replaces a state below E: the states
    below E are pushed and popped in the same order as without the
    ceiling, and a goal found is the same chain, with the same total,
    breakpoints and witness.  If nothing is found and E < R, then R > E,
    so factor * R / scale reaches bilinear too and the caller answers None.
    """
    simplex = K.simplex_csr.row
    ends = set(K.maximal_indices_containing(y.ids))
    supply, demand, scale = priced.supply, priced.demand, priced.scale
    rows_y = [table.row(v) for v in y.ids]  # one search per vertex of supp(y) answers every word(w, v)
    met: dict[int, tuple[int, list[int]]] = {}  # vertex id w -> (its bit, word(w, v) per v), on first touch
    far: dict[int, int] = {}  # s -> sum_v d_v, for the simplices met
    flows: dict[tuple, int] = {}  # zero arcs -> F, the largest flow along them (`_zero_flow`)
    labels: list[tuple[int, tuple, int | None]] = []  # (s, state, parent); state: per u, (m, Z)
    alive: list[bool] = []
    front: dict[int, list[int]] = {}  # s -> its undominated live labels
    heap: list[tuple[int, int, int]] = []  # (total, sum_v d_v, label)

    def meet(s: int) -> int:
        """Record s the first time the search meets it: bits for its new vertices, and its sum_v d_v."""
        words = []
        for w in simplex(s):
            known = met.get(w)
            if known is None:
                known = met[w] = (1 << len(met), [row.item(w) for row in rows_y])
            words.append(known[1])
        found = far[s] = sum(map(min, zip(*words)))
        return found

    def price(state: tuple, face: tuple[int, ...]) -> int:
        """The total of state at any simplex through face, or a floor at or above the cutoff."""
        known = [met[w] for w in face]
        base = sum([a * m for a, (m, _) in zip(supply, state)])
        ys = []  # per v, Y_v over the face
        for b, column in zip(demand, zip(*[words for _, words in known])):
            d = min(column)
            ys.append(sum([bit for (bit, _), word in zip(known, column) if word == d]))
            base += b * d
        if base >= cutoff:
            return base  # a floor: it prunes the state, as the total it bounds would
        zero = tuple([tuple([j for j, at in enumerate(ys) if z & at]) for _, z in state])
        carried = flows.get(zero)
        if carried is None:
            carried = flows[zero] = _zero_flow(supply, demand, zero)[0]
        return base + scale - carried

    def push(s: int, state: tuple, b: int, parent: int | None) -> None:
        kept = front.setdefault(s, [])
        for k in [k for k in kept if _dominates(state, labels[k][1])]:
            alive[k] = False
            kept.remove(k)
        kept.append(len(labels))
        labels.append((s, state, parent))
        alive.append(True)
        heapq.heappush(heap, (b, far[s] if s in far else meet(s), len(labels) - 1))

    if priced.total < cutoff:  # the total of every root
        for s in K.maximal_indices_containing(x.ids):
            meet(s)
            push(s, tuple([(0, met[u][0]) for u in x.ids]), priced.total, None)

    while heap:
        b, _, li = heapq.heappop(heap)
        if not alive[li]:
            continue
        s, state, _ = labels[li]
        if s in ends:
            chain = []
            while li is not None:
                s, _, li = labels[li]
                chain.append(simplex(s))
            return tuple(reversed(chain)), b, scale
        moves: dict[tuple[int, ...], tuple] = {}  # face -> the state a move through it reaches
        totals: dict[tuple[int, ...], int] = {}  # face -> that state's total, once priced
        for t, face in K.neighbours(s):
            moved = moves.get(face)
            if moved is None:
                mf = sum([met[w][0] for w in face])  # distinct bits: their sum is their union
                # mass stays on a shared vertex at m, or all of it switches once
                moved = moves[face] = tuple([(m, zt) if (zt := z & mf) else (m + 1, mf) for m, z in state])
            for k in front.get(t, ()):
                if _dominates(labels[k][1], moved):
                    break
            else:
                b = totals.get(face)
                if b is None:
                    b = totals[face] = price(moved, face)
                if b < cutoff:
                    push(t, moved, b, li)
    return None


def _dominates(a: tuple, b: tuple) -> bool:
    """Whether the switch counts of state a are nowhere above those of state b."""
    for (ma, za), (mb, zb) in zip(a, b):
        if ma > mb or (ma == mb and zb & ~za):
            return False
    return True
