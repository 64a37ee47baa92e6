"""Desk-scale probes of boundary behavior.

Boundary points are stood in for by finite geodesic rays: vertex sequences
whose distance from the base grows by one per step.  The probes tabulate
extended double differences along such rays and report empirical verdicts
(convergence, signed divergence, exponential decay, equivalence windows).
Probes report; they never prove.  The single hard assertion is the 4B'
window between the extended and bilinear double differences, which is a
theorem whenever quasi-isometry constants are supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence, Union

import numpy as np

from .complexes import VALUE_TOL, BarycentricPoint, SimplicialComplex, vertex_point
from .errors import InvalidConfiguration, MissingQIConstants
from .extension import ExtendedMetric, bilinear_extension
from .vertexmetrics import double_difference, geodesic, word_metric

DEFAULT_CONVERGENCE_TOL = 1e-3
DEFAULT_DEPTH_MAX = 12
DEFAULT_LAMBDA_GRID = tuple(np.round(np.arange(0.5, 0.951, 0.05), 2))


@dataclass(frozen=True)
class RaySpec:
    """Finite stand-in for a boundary point: a geodesic vertex ray."""

    vertices: tuple[str, ...]

    @property
    def base(self) -> str:
        return self.vertices[0]

    @property
    def depth(self) -> int:
        return len(self.vertices) - 1

    def point_at(self, K: SimplicialComplex, t: int) -> BarycentricPoint:
        if not 0 <= t <= self.depth:
            raise InvalidConfiguration(f"depth {t} outside ray of depth {self.depth}")
        return vertex_point(K, self.vertices[t])


Slot = Union[RaySpec, BarycentricPoint]


def make_ray(K: SimplicialComplex, vertices: Sequence[str]) -> RaySpec:
    """Validated ray: consecutive vertices adjacent, distance-from-base = index."""
    vs = tuple(vertices)
    if not vs:
        raise InvalidConfiguration("a ray needs at least its base vertex")
    table = word_metric(K)
    if vs[0] not in table.index:
        raise InvalidConfiguration(f"ray base {vs[0]!r} is not a vertex of the complex")
    from_base = table.row(vs[0])
    for k, v in enumerate(vs):
        if v not in table.index or from_base[table.index[v]] != k:
            raise InvalidConfiguration(f"ray vertex {v!r} at index {k} is not at distance {k}")
    for a, b in zip(vs, vs[1:]):
        if not K.spans((a, b)):
            raise InvalidConfiguration(f"ray vertices {a!r}, {b!r} are not adjacent")
    return RaySpec(vs)


def deepest_ray(K: SimplicialComplex, base: str) -> RaySpec:
    """Geodesic from base to a farthest vertex (lexicographic tie-break)."""
    table = word_metric(K)
    target = table.order[int(np.argmax(table.row(base)))]
    return make_ray(K, geodesic(K, base, target))


@dataclass(frozen=True)
class ProbeReport:
    """Tabulated probe values with fitted parameters and a verdict."""

    label: str
    table: tuple[tuple[float, float], ...]  # sorted by first component
    fitted: dict[str, float] = field(default_factory=dict)
    verdict: str = "inconclusive"

    def to_text(self) -> str:
        lines = [f"probe: {self.label}", f"verdict: {self.verdict}"]
        if self.fitted:
            fitted = ", ".join(f"{k}={v:.6g}" for k, v in sorted(self.fitted.items()))
            lines.append(f"fitted: {fitted}")
        lines.append(f"{'depth':>10}  {'value':>14}")
        for t, v in self.table:
            lines.append(f"{t:>10.4g}  {v:>14.8g}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "table": [[t, v] for t, v in self.table],
            "fitted": dict(self.fitted),
            "verdict": self.verdict,
        }


def _ray_slots(slots: Sequence[Slot]) -> list[RaySpec]:
    return [s for s in slots if isinstance(s, RaySpec)]


def _check_multiplicity(slots: Sequence[Slot]) -> None:
    rays = _ray_slots(slots)
    for ray in rays:
        if sum(1 for other in rays if other == ray) > 2:
            raise InvalidConfiguration(
                "a boundary stand-in may appear at most twice across the four slots"
            )


def _slot_points(
    K: SimplicialComplex, slots: Sequence[Slot], t: int
) -> list[BarycentricPoint]:
    return [s.point_at(K, t) if isinstance(s, RaySpec) else s for s in slots]


def _default_depths(slots: Sequence[Slot], start: int = 0) -> list[int]:
    rays = _ray_slots(slots)
    if not rays:
        return [0]
    top = min(r.depth for r in rays)
    return list(range(start, min(top, DEFAULT_DEPTH_MAX) + 1))


def _dd_table(
    M: ExtendedMetric, slots: Sequence[Slot], depths: Iterable[int] | None, start: int
) -> list[tuple[float, float]]:
    """(depth, extended double difference) at each depth, ascending; the default depths begin at start."""
    if len(slots) != 4:
        raise InvalidConfiguration("need exactly four slots")
    _check_multiplicity(slots)
    depth_list = sorted(depths) if depths is not None else _default_depths(slots, start)
    if not depth_list:
        raise InvalidConfiguration("need at least one depth")
    d = M.distance
    return [(float(t), double_difference(d, *_slot_points(M.K, slots, t))) for t in depth_list]


def dd_convergence_probe(
    M: ExtendedMetric,
    slots: Sequence[Slot],
    depths: Iterable[int] | None = None,
    tol: float = DEFAULT_CONVERGENCE_TOL,
) -> ProbeReport:
    """Extended double difference along deepening rays.

    Verdict is "converging" when the final successive difference drops
    below tol, otherwise "inconclusive"; finite tables can never refute
    continuity, so no negative verdict exists.
    """
    table = _dd_table(M, slots, depths, start=0)
    if len(table) == 1:
        verdict = "converging" if not _ray_slots(slots) else "inconclusive"
        fitted = {}
    else:
        final_step = abs(table[-1][1] - table[-2][1])
        verdict = "converging" if final_step < tol else "inconclusive"
        fitted = {"final_step": final_step}
    return ProbeReport(
        label="dd-convergence", table=tuple(table), fitted=fitted, verdict=verdict
    )


def dd_divergence_probe(
    M: ExtendedMetric,
    slots: Sequence[Slot],
    depths: Iterable[int] | None = None,
) -> ProbeReport:
    """Signed divergence check for coincident boundary stand-ins.

    A ray shared between crossed slots (first/fourth or second/third) must
    drive the double difference to +infinity; shared between straight slots
    (first/third or second/fourth) to -infinity.  The verdict reports the
    observed behavior; the expected sign is recorded alongside.
    """
    table = _dd_table(M, slots, depths, start=1)
    crossed = (slots[0] == slots[3] and isinstance(slots[0], RaySpec)) or (
        slots[1] == slots[2] and isinstance(slots[1], RaySpec)
    )
    straight = (slots[0] == slots[2] and isinstance(slots[0], RaySpec)) or (
        slots[1] == slots[3] and isinstance(slots[1], RaySpec)
    )
    expected = 1.0 if crossed else (-1.0 if straight else 0.0)
    final_t, final_v = table[-1]
    if final_v >= final_t / 2.0:
        verdict = "+inf-divergent"
    elif final_v <= -final_t / 2.0:
        verdict = "-inf-divergent"
    else:
        verdict = "bounded"
    return ProbeReport(
        label="dd-divergence",
        table=tuple(table),
        fitted={"expected_sign": expected, "final_value": final_v},
        verdict=verdict,
    )


def decay_probe(
    M: ExtendedMetric,
    quadruples: Iterable[tuple[BarycentricPoint, ...]],
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    threshold: float | None = None,
) -> ProbeReport:
    """Exponential decay of the crossing double difference.

    For each quadruple (u, a, b, c) with m = max(<u,a|b,c>, <u,b|a,c>) at
    least the threshold (6(A+B) unless overridden), records |<u,c|a,b>| and
    fits the smallest grid lambda with every recorded value <= lambda**m.
    """
    if not M.vertex.has_qi_constants:
        raise MissingQIConstants("decay probe needs quasi-isometry constants")
    T = threshold if threshold is not None else 6.0 * (M.vertex.A + M.vertex.B)
    d = M.distance
    rows = []
    for u, a, b, c in quadruples:
        m = max(double_difference(d, u, a, b, c), double_difference(d, u, b, a, c))
        if m < T:
            continue
        rows.append((float(m), abs(double_difference(d, u, c, a, b))))
    rows.sort()
    if not rows:
        return ProbeReport(
            label="dd-decay",
            table=(),
            fitted={"threshold": T},
            verdict="inconclusive",
        )
    fitted_lambda = None
    for lam in sorted(lambda_grid):
        if all(v <= lam**m + 1e-12 for m, v in rows):
            fitted_lambda = float(lam)
            break
    if fitted_lambda is None:
        worst = max(rows, key=lambda r: r[1] - max(lambda_grid) ** r[0])
        return ProbeReport(
            label="dd-decay",
            table=tuple(rows),
            fitted={"threshold": T, "worst_m": worst[0], "worst_value": worst[1]},
            verdict="violated",
        )
    return ProbeReport(
        label="dd-decay",
        table=tuple(rows),
        fitted={"threshold": T, "lambda": fitted_lambda},
        verdict="decay-consistent",
    )


@dataclass(frozen=True)
class WindowsResult:
    passed: bool
    worst_margin: float
    alpha: float | None
    beta: float | None
    checked: int
    vertex_checked: int


def equivalence_windows_check(
    M: ExtendedMetric,
    samples: Iterable[tuple[BarycentricPoint, ...]],
) -> WindowsResult:
    """Hard 4B' window plus a soft word-metric equivalence fit.

    Asserts |DD_ext - DD_bilinear| <= 4B' on every sampled quadruple (a
    theorem under the quasi-isometry hypothesis; failure is a bug, not a
    probe outcome).  On the vertex-only quadruples, fits the smallest
    additive window beta (then smallest stretch alpha >= 1) with
    (1/alpha) DD_word - beta <= DD_ext <= alpha DD_word + beta.
    """
    window = 4.0 * M.sandwich_width
    word = word_metric(M.K)
    bilinear = partial(bilinear_extension, M.vertex)
    worst = 0.0
    checked = 0
    vertex_rows: list[tuple[float, float]] = []
    passed = True
    for quad in samples:
        checked += 1
        dd_e = double_difference(M.distance, *quad)
        dd_b = double_difference(bilinear, *quad)
        margin = abs(dd_e - dd_b)
        worst = max(worst, margin)
        if margin > window + VALUE_TOL:
            passed = False
        if all(p.is_vertex for p in quad):
            labels = [p.support[0] for p in quad]
            vertex_rows.append((double_difference(word.distance, *labels), dd_e))
    alpha = beta = None
    if vertex_rows:
        best = None
        for a in np.arange(1.0, 3.0001, 0.05):
            need = 0.0
            for dd_w, dd_e in vertex_rows:
                need = max(need, dd_e - a * dd_w, dd_w / a - dd_e)
            key = (round(max(0.0, need), 12), round(float(a), 12))
            if best is None or key < best:
                best = key
        beta, alpha = best
    return WindowsResult(
        passed=passed,
        worst_margin=worst,
        alpha=alpha,
        beta=beta,
        checked=checked,
        vertex_checked=len(vertex_rows),
    )
