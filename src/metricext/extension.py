"""Extending a vertex metric to the whole complex.

The bilinear form D(x,y) = sum_u sum_v x_u y_v d(u,v) extends a vertex
metric to all barycentric points but is positive on the diagonal at any
non-vertex point, so it is not a metric.  The corrected extension takes

    ext(x, y) = min( D(x, y), 3C * path(x, y) )

where path is the l1 path metric and C bounds d against the word metric
(d(u,v) <= C * word(u,v)).  The minimum agrees with d on vertices, equals D
whenever the supports are disjoint, and is a genuine metric.

Past two vertices and disjoint supports, a query is one path query under
the ceiling (D, 3C) (`pathmetric._path`, whose docstring describes the
floors): it settles on the bilinear branch as soon as 3C times a lower
bound on the path reaches D, the coordinate bound first, then the word
transport and the search's states last, and otherwise answers 3C * path;
a route's or a chain's witness is built when `distance_with_witness`
first reads it.

Double differences and Gromov products with respect to the extension, or
to the bilinear form, are vertexmetrics' `double_difference` and
`gromov_product` of `ExtendedMetric.distance`, or of
`functools.partial(bilinear_extension, metric)`: the one definition of each,
0.5-normalized, so <a|b>_c = <c,a|b,c> holds verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import VALUE_TOL, BarycentricPoint, SimplicialComplex
from .errors import InvalidParameters, MissingQIConstants
from .pathmetric import (  # noqa: F401 - bench/workloads.py reads extension.l1_path_distance
    PathResult,
    PathWitness,
    _path,
    l1_path_distance,
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
    for u, xu in x.pairs:
        for v, yv in y.pairs:
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
    _cache: dict = field(default_factory=dict, repr=False)  # key -> ((value, branch), PathResult | None)

    def __post_init__(self):
        # C bounds the metric against its own complex's word metric only
        if self.vertex.K is not self.K and self.vertex.K != self.K:
            raise InvalidParameters("the vertex metric was made for another complex")
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
        kx, ky = x.key(), y.key()
        key = (kx, ky) if kx <= ky else (ky, kx)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self._compute(x, y)
        return hit[0]

    def distance_with_witness(
        self, x: BarycentricPoint, y: BarycentricPoint
    ) -> tuple[float, Branch, PathWitness | None]:
        """Value and branch, plus the path from x to y behind an l1path answer.

        The witness is the one the query was solved with (None on the
        bilinear branch); asking for it solves nothing again.  A route's
        or a chain's witness is built on this first read and kept with the
        cached answer; a common simplex's comes with its value.
        """
        value, branch = self.distance_with_branch(x, y)  # caches the answer with its path
        kx, ky = x.key(), y.key()
        path = self._cache[(kx, ky) if kx <= ky else (ky, kx)][1]
        if path is None:
            return value, branch, None
        witness = path.witness
        if witness.points[0].key() != kx:
            witness = witness.reversed()
        return value, branch, witness

    def _compute(
        self, x: BarycentricPoint, y: BarycentricPoint
    ) -> tuple[tuple[float, Branch], PathResult | None]:
        """min(bilinear, 3C * path) with the path behind it; ties report bilinear.

        Two vertices take the vertex metric, and disjoint supports the
        bilinear form, which 3C * path never undercuts there.  Every other
        pair is one path query under the ceiling (bilinear, 3C): None is a
        proof that 3C * path >= bilinear, and any other answer lies below
        it (`pathmetric._path`).
        """
        if x.is_vertex and y.is_vertex:
            u, v = x.ids[0], y.ids[0]
            # a validated diagonal is zero only to VALUE_TOL; ext(u, u) is exactly 0
            return (0.0 if u == v else self.vertex.distance(u, v), "bilinear"), None
        bilinear = bilinear_extension(self.vertex, x, y)
        if set(x.ids).isdisjoint(y.ids):
            return (bilinear, "bilinear"), None
        path = _path(self.K, x, y, ceiling=(bilinear, self.scale))
        if path is None:
            return (bilinear, "bilinear"), None
        return (self.scale * path.value, "l1path"), path


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
