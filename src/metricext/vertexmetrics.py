"""Vertex-level metrics: word metric, validation, constants, diagnostics.

The word metric gives every edge of the 1-skeleton length 1; its table,
kept on the complex, is the package's one source of word distances.
User-supplied vertex metrics are validated exhaustively against the metric
axioms and against the linear bound d(u,v) <= C * word(u,v) that the
extension construction requires.  Vertex-level Gromov products, double
differences and the four-point hyperbolicity scan live here as well.

Convention: the double difference of (x, x', y, y') is

    0.5 * ( d(x,y) - d(x',y) - d(x,y') + d(x',y') )

The factor 0.5 is what makes the identity <a|b>_c = <c,a|b,c> between the
Gromov product and the double difference hold exactly; every consumer in the
package relies on that normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import SimplicialComplex, WordMetricTable
from .errors import (
    MetricAxiomError,
    SuppliedConstantTooSmall,
)

TRIANGLE_TOL = 1e-9


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


def geodesic(K: SimplicialComplex, u: str, v: str) -> list[str]:
    """Shortest edge path from u to v: the least neighbour one step closer to v, each step."""
    table = word_metric(K)
    index = table.index
    to_v = table.matrix[index[v]]
    path = [u]
    while path[-1] != v:
        step = to_v[index[path[-1]]] - 1
        path.append(min(w for w in K.adjacency[path[-1]] if to_v[index[w]] == step))
    return path


def sphere(K: SimplicialComplex, u: str, k: int) -> tuple[str, ...]:
    """Vertices at word-metric distance exactly k from u."""
    if k < 0:
        raise ValueError("radius must be nonnegative")
    table = word_metric(K)
    return tuple(v for v, d in zip(table.order, table.matrix[table.index[u]]) if d == k)


def metric_violations(order: tuple[str, ...], matrix: np.ndarray) -> list[MetricViolation]:
    """Exhaustive scan of the metric axioms; every violation is witnessed."""
    m = np.asarray(matrix, dtype=float)
    n = len(order)
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match {n} vertices")
    out: list[MetricViolation] = []
    for i, j in zip(*np.nonzero(np.abs(m - m.T) > TRIANGLE_TOL)):
        if i < j:
            out.append(MetricViolation("NotSymmetric", (order[i], order[j]), float(abs(m[i, j] - m[j, i]))))
    for i, j in zip(*np.nonzero(m < -TRIANGLE_TOL)):
        out.append(MetricViolation("NegativeDistance", (order[i], order[j]), float(-m[i, j])))
    for (i,) in zip(*np.nonzero(np.abs(np.diag(m)) > TRIANGLE_TOL)):
        out.append(MetricViolation("NonzeroDiagonal", (order[i],), float(abs(m[i, i]))))
    offdiag = ~np.eye(n, dtype=bool)
    for i, j in zip(*np.nonzero(offdiag & (np.abs(m) <= TRIANGLE_TOL))):
        if i < j:
            out.append(MetricViolation("ZeroOffDiagonal", (order[i], order[j]), float(m[i, j])))
    # Triangle inequality, one middle vertex at a time (O(n^3) but vectorized).
    for k in range(n):
        slack = m - (m[:, k][:, None] + m[k, :][None, :])
        bad = np.argwhere(slack > TRIANGLE_TOL)
        for i, j in bad:
            out.append(
                MetricViolation(
                    "TriangleViolation",
                    (order[i], order[k], order[j]),
                    float(slack[i, j]),
                )
            )
    return out


def minimal_linear_bound(matrix: np.ndarray, word: WordMetricTable) -> float:
    """Least C with d(u,v) <= C * word(u,v) over all vertex pairs."""
    m = np.asarray(matrix, dtype=float)
    w = word.matrix.astype(float)
    off = ~np.eye(len(w), dtype=bool)
    return float(np.max(m[off] / w[off]))


def linear_bound_constant(
    matrix: np.ndarray, word: WordMetricTable, supplied: float | None = None
) -> float:
    """Minimal linear-bound constant, checking any user-supplied value."""
    if len(word.order) < 2:
        raise ValueError("need at least two vertices")
    minimal = minimal_linear_bound(matrix, word)
    if supplied is not None:
        if supplied < minimal - TRIANGLE_TOL:
            raise SuppliedConstantTooSmall(
                f"supplied C={supplied} below minimal C={minimal}"
            )
        return float(supplied)
    return minimal


@dataclass(frozen=True)
class QICheckResult:
    passed: bool
    witnesses: tuple[tuple[str, str, str], ...]  # (side, u, v)
    linear_bound: float | None  # A + B on pass


def qi_constants_check(
    matrix: np.ndarray, word: WordMetricTable, A: float, B: float
) -> QICheckResult:
    """Verify (1/A)*word - B <= d <= A*word + B on every pair."""
    if A < 1 or B < 0:
        raise ValueError("need A >= 1 and B >= 0")
    m = np.asarray(matrix, dtype=float)
    w = word.matrix.astype(float)
    order = word.order
    witnesses: list[tuple[str, str, str]] = []
    upper_bad = np.argwhere(m > A * w + B + TRIANGLE_TOL)
    lower_bad = np.argwhere(m < w / A - B - TRIANGLE_TOL)
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


@dataclass(frozen=True, eq=False)
class VertexMetric:
    """Validated metric on the vertex set, with its linear-bound constant.

    C always satisfies d(u,v) <= C * word(u,v); (A, B) are optional
    quasi-isometry constants against the word metric and unlock the
    bounded-difference checks downstream.
    """

    order: tuple[str, ...]
    matrix: np.ndarray
    C: float
    minimal_C: float
    A: float | None = None
    B: float | None = None
    index: dict[str, int] = field(default=None, repr=False)

    def distance(self, u: str, v: str) -> float:
        return float(self.matrix[self.index[u], self.index[v]])

    @property
    def has_qi_constants(self) -> bool:
        return self.A is not None and self.B is not None


def validate_vertex_metric(
    K: SimplicialComplex,
    matrix: np.ndarray,
    order: tuple[str, ...] | None = None,
    *,
    C: float | None = None,
    A: float | None = None,
    B: float | None = None,
    check_axioms: bool = True,
) -> VertexMetric:
    """Build a VertexMetric after exhaustive axiom and constant checks.

    ``check_axioms=False`` is for matrices that are metrics by construction
    (word metric, concave transforms of it); user-supplied matrices should
    always go through the full scan.
    """
    order = tuple(order) if order is not None else K.vertices
    if sorted(order) != list(K.vertices):
        raise ValueError("metric order does not match the complex vertex set")
    m = np.asarray(matrix, dtype=float)
    if m.shape != (len(order), len(order)):
        raise ValueError(f"matrix shape {m.shape} does not match vertex count {len(order)}")
    if check_axioms:
        violations = metric_violations(order, m)
        if violations:
            raise MetricAxiomError(violations)

    word = word_metric(K)
    # Re-index the metric to the canonical vertex order of the complex.
    if order != word.order:
        perm = [order.index(v) for v in word.order]
        m = m[np.ix_(perm, perm)]
        order = word.order
    c_value = linear_bound_constant(m, word, supplied=C)
    if A is not None or B is not None:
        if A is None or B is None:
            raise ValueError("supply both A and B or neither")
        result = qi_constants_check(m, word, A, B)
        if not result.passed:
            raise MetricAxiomError(
                [MetricViolation("QIBoundViolation", w[1:], 0.0) for w in result.witnesses]
            )
    return VertexMetric(
        order=order,
        matrix=m,
        C=c_value,
        minimal_C=minimal_linear_bound(m, word),
        A=A,
        B=B,
        index={v: i for i, v in enumerate(order)},
    )


def word_vertex_metric(K: SimplicialComplex) -> VertexMetric:
    """The word metric packaged as a vertex metric (C=1, QI constants (1,0))."""
    word = word_metric(K)
    m = word.matrix.astype(float)
    return VertexMetric(
        order=word.order,
        matrix=m,
        C=1.0,
        minimal_C=1.0,
        A=1.0,
        B=0.0,
        index=dict(word.index),
    )


def transformed_word_metric(
    K: SimplicialComplex, scale: float = 1.0, saturation: float = 0.0
) -> VertexMetric:
    """Concave transform  scale*t + saturation*(1 - 2**(-t))  of the word metric.

    Concave increasing with value 0 at 0, so the result is again a metric;
    it is (max(scale, 1/scale), saturation)-quasi-isometric to the word
    metric, with minimal linear bound scale + saturation/2.
    """
    if scale <= 0 or saturation < 0:
        raise ValueError("need scale > 0 and saturation >= 0")
    word = word_metric(K)
    t = word.matrix.astype(float)
    m = scale * t + saturation * (1.0 - np.power(2.0, -t))
    np.fill_diagonal(m, 0.0)
    A = max(scale, 1.0 / scale)
    return VertexMetric(
        order=word.order,
        matrix=m,
        C=scale + saturation / 2.0,
        minimal_C=minimal_linear_bound(m, word),
        A=A,
        B=float(saturation),
        index=dict(word.index),
    )


def gromov_product_vertices(table, a: str, b: str, c: str) -> float:
    """<a|b>_c = (d(a,c) + d(b,c) - d(a,b)) / 2."""
    d = table.distance
    return 0.5 * (d(a, c) + d(b, c) - d(a, b))


def double_difference_vertices(table, x: str, x2: str, y: str, y2: str) -> float:
    """<x,x2|y,y2> = (d(x,y) - d(x2,y) - d(x,y2) + d(x2,y2)) / 2."""
    d = table.distance
    return 0.5 * ((d(x, y) - d(x2, y)) + (d(x2, y2) - d(x, y2)))


def hyperbolicity_delta(table) -> float:
    """Least delta in the four-point condition over all vertex quadruples.

    <x|y>_w >= min(<x|z>_w, <z|y>_w) - delta for every (w, x, y, z).
    Exhaustive O(n^4) scan, vectorized per base point; meant for n <= ~60.
    """
    m = np.asarray(table.matrix, dtype=float)
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
