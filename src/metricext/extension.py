"""Extending a vertex metric to the whole complex.

The bilinear form D(x,y) = sum_u sum_v x_u y_v d(u,v) extends a vertex
metric to all barycentric points but is positive on the diagonal at any
non-vertex point, so it is not a metric.  The corrected extension takes

    ext(x, y) = min( D(x, y), 3C * path(x, y) )

where path is the l1 path metric and C bounds d against the word metric
(d(u,v) <= C * word(u,v)).  The minimum agrees with d on vertices, equals D
whenever the supports are disjoint, and is a genuine metric.

A query settles on the bilinear branch as soon as 3C times a lower bound on
the path reaches D.  The coordinate bound (simplex_l1) is tested first, on
its own: it makes almost every floor decision, and it is the exact path
value when the supports share a simplex.  Only a query past it, with no
common simplex, computes its admissible bounds (query_bounds) for the
full floor; past that, the path search takes (D, 3C) as a ceiling and
applies the same test to the bound of every state it would expand, so the
floor acts at every search state, not only at the root.  A search that
proves 3C * path >= D answers the bilinear branch without an exact path.

Double differences and Gromov products with respect to the extension, or
to the bilinear form, are vertexmetrics' `double_difference` and
`gromov_product` of `ExtendedMetric.distance`, or of
`functools.partial(bilinear_extension, metric)`: the one definition of each,
0.5-normalized, so <a|b>_c = <c,a|b,c> holds verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (
    VALUE_TOL,
    BarycentricPoint,
    SimplicialComplex,
    common_simplex,
    simplex_l1,
)
from .errors import MissingQIConstants
from .pathmetric import (  # noqa: F401 - bench/workloads.py reads extension.l1_path_distance
    PathResult,
    PathWitness,
    _solve_by_search,
    _trivial_witness,
    l1_path_distance,
    query_bounds,
)
from .vertexmetrics import VertexMetric, word_metric

Branch = str  # "bilinear" | "l1path"


def bilinear_extension(
    metric: VertexMetric, x: BarycentricPoint, y: BarycentricPoint
) -> float:
    """sum_{u,v} x_u y_v d(u,v) over the supports.

    The two arguments are put in canonical order first, so the float sum is
    accumulated identically either way and symmetry holds exactly.
    """
    if y.key() < x.key():
        x, y = y, x
    total = 0.0
    for u, xu in x.items:
        for v, yv in y.items:
            total += xu * yv * metric.distance(u, v)
    return total


@dataclass
class ExtendedMetric:
    """The corrected extension of a vertex metric, with value caching.

    All distances queried through one instance share one cache, so algebraic
    identities between repeated lookups cancel to rounding error only.
    """

    K: SimplicialComplex
    vertex: VertexMetric
    _cache: dict = field(default_factory=dict, repr=False)
    _witnesses: dict = field(default_factory=dict, repr=False)  # the path behind each l1path answer

    def __post_init__(self):
        # The linear bound underlying the whole construction.
        if self.vertex.C < self.vertex.minimal_C - VALUE_TOL:
            raise ValueError(
                f"C={self.vertex.C} below minimal linear bound {self.vertex.minimal_C}"
            )
        word_metric(self.K)  # connectivity required throughout

    @property
    def scale(self) -> float:
        return 3.0 * self.vertex.C

    @property
    def sandwich_width(self) -> float:
        """B' = 2(A+B); requires quasi-isometry constants."""
        if not self.vertex.has_qi_constants:
            raise MissingQIConstants("no (A, B) constants supplied")
        return 2.0 * (self.vertex.A + self.vertex.B)

    def distance(self, x: BarycentricPoint, y: BarycentricPoint) -> float:
        return self.distance_with_branch(x, y)[0]

    def distance_with_branch(
        self, x: BarycentricPoint, y: BarycentricPoint
    ) -> tuple[float, Branch]:
        """min of the bilinear and rescaled-path branches; ties report bilinear."""
        key = self._key(x, y)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._compute(x, y, key)
            self._cache[key] = hit
        return hit

    def distance_with_witness(
        self, x: BarycentricPoint, y: BarycentricPoint
    ) -> tuple[float, Branch, PathWitness | None]:
        """Value and branch, plus the path from x to y behind an l1path answer.

        The witness is the one the query was solved with (None on the
        bilinear branch); asking for it solves nothing again.
        """
        value, branch = self.distance_with_branch(x, y)
        witness = self._witnesses.get(self._key(x, y))
        if witness is not None and witness.points[0].key() != x.key():
            witness = witness.reversed()
        return value, branch, witness

    @staticmethod
    def _key(x: BarycentricPoint, y: BarycentricPoint) -> tuple:
        kx, ky = x.key(), y.key()
        return (kx, ky) if kx <= ky else (ky, kx)

    def _compute(self, x: BarycentricPoint, y: BarycentricPoint, key: tuple) -> tuple[float, Branch]:
        """min(bilinear, 3C * path), deciding the floor with its cheapest sufficient test.

        Past the disjoint-support return, the coordinate bound simplex_l1(x, y)
        is tested alone before common_simplex and query_bounds.  The
        decisions are the ones of testing max(query_bounds) after
        common_simplex: the coordinate is entry 0 of query_bounds, the same
        float, and float multiplication is monotone, so scale * coordinate
        >= bilinear implies scale * max(bounds) >= bilinear; a common
        simplex's path value is that same float, so its test is this one.
        Values, branches, witnesses and tripwire counts are unchanged.

        Every path that reaches the l1path answer has scale * path < bilinear,
        so that answer needs no final comparison: a common simplex has failed
        the coordinate test; a chain's total lies below the cutoff that the
        ceiling sets (`_reaching_total`); and the route is returned only when
        scale * `_route_length` < bilinear, which is its witness length bit
        for bit.
        """
        if x.key() == y.key():
            if x.is_vertex:
                return (0.0, "bilinear")
            self._witnesses[key] = PathWitness(points=(x,), carriers=(), length=0.0)
            return (0.0, "l1path")
        if x.is_vertex and y.is_vertex:
            return (self.vertex.distance(x.support[0], y.support[0]), "bilinear")
        bilinear = bilinear_extension(self.vertex, x, y)
        if not set(x.support) & set(y.support):
            # disjoint supports: the bilinear branch always wins
            return (bilinear, "bilinear")
        coordinate = simplex_l1(x, y)
        if self.scale * coordinate >= bilinear:
            return (bilinear, "bilinear")
        carrier = common_simplex(self.K, x, y)
        if carrier is not None:
            path = PathResult(coordinate, _trivial_witness(self.K, x, y, carrier))
        else:
            bounds = query_bounds(self.K, x, y)
            if self.scale * max(v for _, v in bounds) >= bilinear:
                return (bilinear, "bilinear")
            path = _solve_by_search(self.K, x, y, bounds, ceiling=(bilinear, self.scale))
            if path is None:  # the search proved scale * path >= bilinear
                return (bilinear, "bilinear")
        self._witnesses[key] = path.witness
        return (self.scale * path.value, "l1path")


@dataclass(frozen=True)
class SandwichResult:
    passed: bool
    bilinear: float
    extended: float
    width: float
    message: str = ""


def sandwich_check(
    M: ExtendedMetric, x: BarycentricPoint, y: BarycentricPoint
) -> SandwichResult:
    """Check D - B' <= ext <= D with B' = 2(A+B).

    The upper bound holds unconditionally (the extension is a min over a set
    containing D); the lower bound is the quasi-isometry sandwich.
    """
    width = M.sandwich_width
    d_bil = bilinear_extension(M.vertex, x, y)
    d_ext = M.distance(x, y)
    ok_upper = d_ext <= d_bil + VALUE_TOL
    ok_lower = d_bil - d_ext <= width + VALUE_TOL
    msg = "" if (ok_upper and ok_lower) else (
        f"sandwich violated: bilinear={d_bil}, extended={d_ext}, width={width}"
    )
    return SandwichResult(
        passed=ok_upper and ok_lower,
        bilinear=d_bil,
        extended=d_ext,
        width=width,
        message=msg,
    )
