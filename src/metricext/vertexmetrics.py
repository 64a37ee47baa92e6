"""Vertex-level metrics: word metric, validation, constants, diagnostics.

The word metric gives every edge of the 1-skeleton length 1; its table,
kept on the complex, is the package's one source of word distances.  Like
every vertex metric here it is keyed by vertex id, the position of a label
in `K.vertices`.  It serves them on demand: a row by one breadth-first
search plus pointer doubling over its tree, single pairs from a kept row or
by bidirectional search, and a dense `matrix`, the rows stacked, only when
asked.
The word-derived vertex metrics (the word metric itself and its concave
transforms, `word_transform`) are evaluated per pair or per row from that
table, with closed-form constants, so they hold nothing V^2 either.
User-supplied vertex metrics are dense; they are validated exhaustively
against the metric axioms and against the linear bound
d(u,v) <= C * word(u,v) that the extension construction requires.  The
four-point hyperbolicity scan of a distance matrix lives here too.

`double_difference` and `gromov_product` are the package's one definition
of each, for any distance function d: a word table's or vertex metric's
`distance` on vertex ids, an ExtendedMetric's `distance`, or
`functools.partial(bilinear_extension, metric)` for the bilinear form on
points.  The double difference of (x, x', y, y') is

    0.5 * ( d(x,y) - d(x',y) - d(x,y') + d(x',y') )

The factor 0.5 is what makes the identity <a|b>_c = <c,a|b,c> between the
Gromov product and the double difference hold exactly; every consumer in the
package relies on that normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .complexes import VALUE_TOL, SimplicialComplex, WordMetricTable
from .errors import (
    InvalidParameters,
    MetricAxiomError,
    SuppliedConstantTooSmall,
)


@dataclass(frozen=True)
class MetricViolation:
    """One witnessed failure of a metric axiom."""

    kind: str  # NotSymmetric | NegativeDistance | NonzeroDiagonal | TriangleViolation
    vertices: tuple[str, ...]
    margin: float

    def __str__(self) -> str:
        return f"{self.kind}{self.vertices} margin={self.margin:.3g}"


def word_metric(K: SimplicialComplex) -> WordMetricTable:
    """The word table of K, built on first use and kept on K; rejects disconnected complexes."""
    return K.word_table


def geodesic(K: SimplicialComplex, i: int, j: int) -> list[int]:
    """Shortest edge path from vertex id i to vertex id j, as ids: each step, the least neighbour one nearer j."""
    to_j = word_metric(K).row(j)
    row = K.adjacency_csr.row
    path = [i]
    for step in range(to_j.item(i) - 1, -1, -1):
        for i in row(i):  # ascending, so the first found is the least
            if to_j.item(i) == step:
                break
        path.append(i)
    return path


def metric_violations(order: tuple[str, ...], matrix: np.ndarray) -> list[MetricViolation]:
    """Exhaustive scan of the metric axioms; every violation is witnessed."""
    m = np.asarray(matrix, dtype=float)
    n = len(order)
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match {n} vertices")
    out: list[MetricViolation] = []
    for i, j in zip(*np.nonzero(np.abs(m - m.T) > VALUE_TOL)):
        if i < j:
            out.append(MetricViolation("NotSymmetric", (order[i], order[j]), float(abs(m[i, j] - m[j, i]))))
    for i, j in zip(*np.nonzero(m < -VALUE_TOL)):
        out.append(MetricViolation("NegativeDistance", (order[i], order[j]), float(-m[i, j])))
    for (i,) in zip(*np.nonzero(np.abs(np.diag(m)) > VALUE_TOL)):
        out.append(MetricViolation("NonzeroDiagonal", (order[i],), float(abs(m[i, i]))))
    offdiag = ~np.eye(n, dtype=bool)
    for i, j in zip(*np.nonzero(offdiag & (np.abs(m) <= VALUE_TOL))):
        if i < j:
            out.append(MetricViolation("ZeroOffDiagonal", (order[i], order[j]), float(m[i, j])))
    # Triangle inequality, one middle vertex at a time (O(n^3) but vectorized).
    for k in range(n):
        slack = m - (m[:, k][:, None] + m[k, :][None, :])
        bad = np.argwhere(slack > VALUE_TOL)
        for i, j in bad:
            out.append(
                MetricViolation(
                    "TriangleViolation",
                    (order[i], order[k], order[j]),
                    float(slack[i, j]),
                )
            )
    return out


def minimal_linear_bound(matrix: np.ndarray, K: SimplicialComplex) -> float:
    """Least C with d(u,v) <= C * word(u,v) over all vertex pairs of K, matrix over `K.vertices`.

    `validate_vertex_metric` checks a supplied C against it.
    """
    if len(K.vertices) < 2:
        raise ValueError("need at least two vertices")
    m = np.asarray(matrix, dtype=float)
    w = word_metric(K).matrix.astype(float)
    off = ~np.eye(len(w), dtype=bool)
    return float(np.max(m[off] / w[off]))


@dataclass(frozen=True)
class QICheckResult:
    passed: bool
    witnesses: tuple[tuple[str, str, str], ...]  # (side, u, v)
    linear_bound: float | None  # A + B on pass


def qi_constants_check(
    matrix: np.ndarray, K: SimplicialComplex, A: float, B: float
) -> QICheckResult:
    """Verify (1/A)*word - B <= d <= A*word + B on every pair of K, matrix over `K.vertices`."""
    if A < 1 or B < 0:
        raise ValueError("need A >= 1 and B >= 0")
    m = np.asarray(matrix, dtype=float)
    w = word_metric(K).matrix.astype(float)
    order = K.vertices
    witnesses: list[tuple[str, str, str]] = []
    upper_bad = np.argwhere(m > A * w + B + VALUE_TOL)
    lower_bad = np.argwhere(m < w / A - B - VALUE_TOL)
    for i, j in upper_bad:
        if i < j:
            witnesses.append(("upper", order[i], order[j]))
    for i, j in lower_bad:
        if i < j:
            witnesses.append(("lower", order[i], order[j]))
    passed = not witnesses
    return QICheckResult(
        passed=passed,
        witnesses=tuple(witnesses),
        linear_bound=float(A + B) if passed else None,
    )


def word_transform(t, scale: float, saturation: float):
    """scale*t + saturation*(1 - 2**-t) of a word distance t: a float or a numpy array.

    The one statement of the transform.  It is concave and increasing with
    value 0 at 0, so the result is again a metric and t = 1 gives its least
    linear bound; 2.0**-t is exact for integer t.
    """
    return scale * t + saturation * (1.0 - 2.0**-t)


class VertexMetric:
    """Validated metric on the vertex set, with its linear-bound constant.

    C always satisfies d(u,v) <= C * word(u,v); (A, B) are optional
    quasi-isometry constants against the word metric and unlock the
    bounded-difference checks downstream.

    `K` is the complex the metric was made for: C bounds it against K's word
    metric only, and every array is over `K.vertices`.  Like the word table,
    `distance(i, j)` and `row(i)` take vertex ids.  The metric has one of two
    forms, given to the constructor:

    - an explicit dense `matrix`, read-only, with the constants its
      validation found;
    - `transform=(scale, saturation)`: `word_transform` of K's word table.
      It holds no matrix: `distance` transforms one word-table lookup, `row`
      one word row, and `matrix`, for the consumers that need every pair,
      is built on first use.  Its constants are closed forms: C and
      minimal_C are the transform at t = 1, A = max(scale, 1/scale) and
      B = saturation.  The untransformed word metric's `distance` is the
      word table's own.
    """

    def __init__(
        self,
        K: SimplicialComplex,
        matrix: np.ndarray | None = None,
        C: float | None = None,
        minimal_C: float | None = None,
        A: float | None = None,
        B: float | None = None,
        *,
        transform: tuple[float, float] | None = None,
    ):
        if (matrix is None) == (transform is None):
            raise ValueError("a vertex metric is a matrix or a transform, exactly one")
        self.K = K
        self.transform = transform
        if transform is None:
            self.matrix = matrix
        else:
            word = word_metric(K)  # rejects a disconnected K now, not at the first query
            scale, saturation = transform
            C = minimal_C = word_transform(1.0, scale, saturation)
            A, B = max(scale, 1.0 / scale), float(saturation)
            if transform == (1.0, 0.0):
                self.distance = word.distance  # the extension's hot call, with no layer between
        self.C = C
        self.minimal_C = minimal_C
        self.A = A
        self.B = B

    def distance(self, i: int, j: int) -> float:
        if self.transform is None:
            return float(self.matrix[i, j])
        return word_transform(self.K.word_table.distance(i, j), *self.transform)

    def row(self, i: int) -> np.ndarray:
        """The distances from vertex i to every vertex, as floats, by id."""
        if self.transform is None:
            return self.matrix[i]
        return word_transform(self.K.word_table.row(i), *self.transform)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix; the transform form builds it here, on first use."""
        return word_transform(self.K.word_table.matrix, *self.transform)

    @property
    def has_qi_constants(self) -> bool:
        return self.A is not None and self.B is not None

    def __repr__(self) -> str:
        return (
            f"VertexMetric({len(self.K.vertices)} vertices, C={self.C}, minimal_C={self.minimal_C}, "
            f"A={self.A}, B={self.B})"
        )


def _require_finite(**values: float | None) -> None:
    """Raise InvalidParameters for a given value that is NaN, infinite or a bool; None is not given."""
    for name, value in values.items():
        if value is not None and (isinstance(value, (bool, np.bool_)) or not math.isfinite(value)):
            raise InvalidParameters(f"{name} must be a finite number, got {value!r}")


def validate_vertex_metric(
    K: SimplicialComplex,
    matrix: np.ndarray,
    order: tuple[str, ...] | None = None,
    *,
    C: float | None = None,
    A: float | None = None,
    B: float | None = None,
) -> VertexMetric:
    """Build a VertexMetric after exhaustive axiom and constant checks.

    A NaN or infinite matrix entry, and a constant that is NaN, infinite or a
    bool, raise InvalidParameters: every axiom and bound test is false on NaN.
    The metric keeps a read-only copy of the matrix, so a later write to the
    caller's array changes no distance.
    """
    order = tuple(order) if order is not None else K.vertices
    if sorted(order) != list(K.vertices):
        raise ValueError("metric order does not match the complex vertex set")
    m = np.array(matrix, dtype=float)
    if m.shape != (len(order), len(order)):
        raise ValueError(f"matrix shape {m.shape} does not match vertex count {len(order)}")
    if not np.isfinite(m).all():
        raise InvalidParameters("metric matrix has a NaN or infinite entry")
    _require_finite(C=C, A=A, B=B)
    violations = metric_violations(order, m)
    if violations:
        raise MetricAxiomError(violations)

    # Re-index the metric to the canonical vertex order of the complex.
    if order != K.vertices:
        at = {v: i for i, v in enumerate(order)}
        perm = [at[v] for v in K.vertices]
        m = m[np.ix_(perm, perm)]
    # one vertex has no pair to bound: 1.0, as the word metric's closed form gives
    minimal = minimal_linear_bound(m, K) if len(order) > 1 else 1.0
    if C is not None and C < minimal - VALUE_TOL:
        raise SuppliedConstantTooSmall(f"supplied C={C} below minimal C={minimal}")
    if A is not None or B is not None:
        if A is None or B is None:
            raise ValueError("supply both A and B or neither")
        result = qi_constants_check(m, K, A, B)
        if not result.passed:
            raise MetricAxiomError(
                [MetricViolation("QIBoundViolation", w[1:], 0.0) for w in result.witnesses]
            )
    m.flags.writeable = False
    return VertexMetric(
        K=K,  # m is over K's vertices, by id, now
        matrix=m,
        C=minimal if C is None else float(C),
        minimal_C=minimal,
        A=A,
        B=B,
    )


def word_vertex_metric(K: SimplicialComplex) -> VertexMetric:
    """The word metric packaged as a vertex metric (C=1, QI constants (1,0))."""
    return VertexMetric(K, transform=(1.0, 0.0))


def transformed_word_metric(
    K: SimplicialComplex, scale: float = 1.0, saturation: float = 0.0
) -> VertexMetric:
    """The concave transform `word_transform` of the word metric, as a vertex metric.

    The result is (max(scale, 1/scale), saturation)-quasi-isometric to the
    word metric, with minimal linear bound scale + saturation/2.  A NaN,
    infinite or bool scale or saturation raises InvalidParameters.
    """
    _require_finite(scale=scale, saturation=saturation)
    if scale <= 0 or saturation < 0:
        raise ValueError("need scale > 0 and saturation >= 0")
    return VertexMetric(K, transform=(scale, saturation))


def gromov_product(d: Callable, a, b, c) -> float:
    """<a|b>_c = (d(a,c) + d(b,c) - d(a,b)) / 2 for the distance function d."""
    return 0.5 * (d(a, c) + d(b, c) - d(a, b))


def double_difference(d: Callable, x, x2, y, y2) -> float:
    """<x,x2|y,y2> = (d(x,y) - d(x2,y) - d(x,y2) + d(x2,y2)) / 2 for the distance function d.

    Grouped so that repeated arguments cancel to exactly zero in floating point.
    """
    return 0.5 * ((d(x, y) - d(x2, y)) + (d(x2, y2) - d(x, y2)))


def hyperbolicity_delta(matrix: np.ndarray) -> float:
    """Least delta in the four-point condition over all quadruples of a distance matrix.

    <x|y>_w >= min(<x|z>_w, <z|y>_w) - delta for every (w, x, y, z).  The
    matrix may be a vertex metric's or any finite point set's.  Exhaustive
    O(n^4) scan, vectorized per base point; meant for n <= ~60.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    if n <= 1:
        return 0.0
    worst = 0.0
    for w in range(n):
        g = 0.5 * (m[:, w][:, None] + m[:, w][None, :] - m)
        # maxmin[x, y] = max_z min(g[x, z], g[z, y]); g is symmetric
        maxmin = np.minimum(g[:, :, None], g[None, :, :]).max(axis=1)
        worst = max(worst, float((maxmin - g).max()))
    return max(0.0, worst)
