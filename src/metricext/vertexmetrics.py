"""Vertex-level metrics: word metric, validation, constants, diagnostics.

The word metric gives every edge of the 1-skeleton length 1; its table,
kept on the complex, is the package's one source of word distances.  It
serves them on demand: rows by single-source search, single pairs from a
kept row or by bidirectional search, and a dense `matrix` only when asked.
The word-derived vertex metrics (the word metric itself and its concave
transforms) are evaluated per pair from that table, with closed-form
constants, so they hold nothing V^2 either.  User-supplied vertex metrics
are dense; they are validated exhaustively against the metric axioms and
against the linear bound d(u,v) <= C * word(u,v) that the extension
construction requires.  The four-point hyperbolicity scan lives here too.

`double_difference` and `gromov_product` are the package's one definition
of each, for any distance function d: a word table's or vertex metric's
`distance` on vertex labels, an ExtendedMetric's `distance`, or
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


def geodesic(K: SimplicialComplex, u: str, v: str) -> list[str]:
    """Shortest edge path from u to v: the least neighbour one step closer to v, each step."""
    table = word_metric(K)
    index = table.index
    to_v = table.row(v)
    path = [u]
    while path[-1] != v:
        step = to_v.item(index[path[-1]]) - 1
        path.append(min(w for w in K.adjacency[path[-1]] if to_v.item(index[w]) == step))
    return path


def sphere(K: SimplicialComplex, u: str, k: int) -> tuple[str, ...]:
    """Vertices at word-metric distance exactly k from u."""
    if k < 0:
        raise ValueError("radius must be nonnegative")
    table = word_metric(K)
    return tuple(v for v, d in zip(table.order, table.row(u)) if d == k)


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


def minimal_linear_bound(matrix: np.ndarray, word: WordMetricTable) -> float:
    """Least C with d(u,v) <= C * word(u,v) over all vertex pairs.

    `validate_vertex_metric` checks a supplied C against it.
    """
    if len(word.order) < 2:
        raise ValueError("need at least two vertices")
    m = np.asarray(matrix, dtype=float)
    w = word.matrix.astype(float)
    off = ~np.eye(len(w), dtype=bool)
    return float(np.max(m[off] / w[off]))


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


class VertexMetric:
    """Validated metric on the vertex set, with its linear-bound constant.

    C always satisfies d(u,v) <= C * word(u,v); (A, B) are optional
    quasi-isometry constants against the word metric and unlock the
    bounded-difference checks downstream.

    `index` maps each vertex to its position in `order`.  An explicit metric
    is its dense `matrix` over `order`.  A word-derived metric
    (`word_vertex_metric`, `transformed_word_metric`) holds no matrix: each
    distance is  scale*t + saturation*(1 - 2**(-t))  of one word-table
    lookup t, and `matrix` is built on first use, for the consumers that
    need every pair.
    """

    def __init__(
        self,
        order: tuple[str, ...],
        matrix: np.ndarray | None,
        C: float,
        minimal_C: float,
        index: dict[str, int],
        A: float | None = None,
        B: float | None = None,
    ):
        self.order = order
        self.C = C
        self.minimal_C = minimal_C
        self.index = index
        self.A = A
        self.B = B
        # (word table, scale, saturation) of a word-derived metric, set by _word_derived
        self._transform: tuple[WordMetricTable, float, float] | None = None
        if matrix is not None:
            self.matrix = matrix

    def distance(self, u: str, v: str) -> float:
        return float(self.matrix[self.index[u], self.index[v]])

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix over `order`; a word-derived metric builds it here."""
        word, scale, saturation = self._transform
        t = word.matrix.astype(float)
        return scale * t + saturation * (1.0 - np.power(2.0, -t))

    @property
    def has_qi_constants(self) -> bool:
        return self.A is not None and self.B is not None

    def __repr__(self) -> str:
        return (
            f"VertexMetric({len(self.order)} vertices, C={self.C}, minimal_C={self.minimal_C}, "
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
    """
    order = tuple(order) if order is not None else K.vertices
    if sorted(order) != list(K.vertices):
        raise ValueError("metric order does not match the complex vertex set")
    m = np.asarray(matrix, dtype=float)
    if m.shape != (len(order), len(order)):
        raise ValueError(f"matrix shape {m.shape} does not match vertex count {len(order)}")
    if not np.isfinite(m).all():
        raise InvalidParameters("metric matrix has a NaN or infinite entry")
    _require_finite(C=C, A=A, B=B)
    violations = metric_violations(order, m)
    if violations:
        raise MetricAxiomError(violations)

    word = word_metric(K)
    # Re-index the metric to the canonical vertex order of the complex.
    if order != word.order:
        perm = [order.index(v) for v in word.order]
        m = m[np.ix_(perm, perm)]
        order = word.order
    minimal = minimal_linear_bound(m, word)
    if C is not None and C < minimal - VALUE_TOL:
        raise SuppliedConstantTooSmall(f"supplied C={C} below minimal C={minimal}")
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
        C=minimal if C is None else float(C),
        minimal_C=minimal,
        A=A,
        B=B,
        index={v: i for i, v in enumerate(order)},
    )


def _word_derived(K: SimplicialComplex, scale: float, saturation: float) -> VertexMetric:
    """scale*t + saturation*(1 - 2**(-t)) of the word distance t, as a vertex metric.

    The transform is concave and increasing with value 0 at 0, so t = 1
    gives the minimal linear bound and every constant is a closed form.
    """
    word = word_metric(K)
    metric = VertexMetric(
        order=word.order,
        matrix=None,
        C=scale + saturation / 2.0,
        minimal_C=scale * 1.0 + saturation * (1.0 - 2.0**-1.0),
        A=max(scale, 1.0 / scale),
        B=float(saturation),
        index=word.index,
    )
    metric._transform = (word, scale, saturation)

    def distance(u: str, v: str) -> float:
        t = word.distance(u, v)
        return scale * t + saturation * (1.0 - 2.0**-t)

    # Per pair from the word table; the untransformed word metric is the table's own distance.
    metric.distance = word.distance if (scale, saturation) == (1.0, 0.0) else distance
    return metric


def word_vertex_metric(K: SimplicialComplex) -> VertexMetric:
    """The word metric packaged as a vertex metric (C=1, QI constants (1,0))."""
    return _word_derived(K, 1.0, 0.0)


def transformed_word_metric(
    K: SimplicialComplex, scale: float = 1.0, saturation: float = 0.0
) -> VertexMetric:
    """Concave transform  scale*t + saturation*(1 - 2**(-t))  of the word metric.

    Concave increasing with value 0 at 0, so the result is again a metric;
    it is (max(scale, 1/scale), saturation)-quasi-isometric to the word
    metric, with minimal linear bound scale + saturation/2.  A NaN, infinite
    or bool scale or saturation raises InvalidParameters.
    """
    _require_finite(scale=scale, saturation=saturation)
    if scale <= 0 or saturation < 0:
        raise ValueError("need scale > 0 and saturation >= 0")
    return _word_derived(K, scale, saturation)


def gromov_product(d: Callable, a, b, c) -> float:
    """<a|b>_c = (d(a,c) + d(b,c) - d(a,b)) / 2 for the distance function d."""
    return 0.5 * (d(a, c) + d(b, c) - d(a, b))


def double_difference(d: Callable, x, x2, y, y2) -> float:
    """<x,x2|y,y2> = (d(x,y) - d(x2,y) - d(x,y2) + d(x2,y2)) / 2 for the distance function d.

    Grouped so that repeated arguments cancel to exactly zero in floating point.
    """
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
