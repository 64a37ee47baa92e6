"""Named property suites runnable against any complex + vertex metric.

A check is declared once, by `@_check(suite, name)` on its body: that
registers it in ALL_CHECKS, in definition order, and hands the body a
CheckResult carrying its name and suite.  SUITES lists the suites in order of
their first check.  Each check samples with its own RNG, seeded from the seed
and a crc32 of its tag (never the per-process salted `hash`), so
`check --seed N` prints the same in every process.  The runner executes only
the requested suite's checks, one after another in registry order (the
tripwire check is defined last), and orders results by suite and name before
reporting.  The checks share one ExtendedMetric and one exact automorphism
search per run.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, field
from functools import cached_property, partial, wraps
from typing import Callable, Sequence

import numpy as np

from .complexes import (
    VALUE_TOL,
    Automorphism,
    BarycentricPoint,
    SimplicialComplex,
    apply_automorphism,
    make_automorphism,
    make_point,
    simplex_l1,
    vertex_point,
)
from .errors import MetricExtError, NotAnAutomorphism
from .extension import (
    ExtendedMetric,
    bilinear_extension,
    sandwich_check,
)
from .generators import (
    MIN_WEIGHT,
    _integer,
    _point_on,
    grid_point,
    nested_quadruples,
    random_disjoint_pair,
    random_point,
    random_quadruples,
    random_same_simplex_pair,
)
from .oracle import exhaustive_metric_scan, grid_oracle_path_distance, tree_gromov_oracle
from .pathmetric import (
    chain_solver_distance,
    l1_path_distance,
    lower_bounds,
    tripwire_log,
)
from .probes import dd_divergence_probe, decay_probe, deepest_ray, equivalence_windows_check
from .vertexmetrics import (
    VertexMetric,
    double_difference,
    gromov_product,
    hyperbolicity_delta,
    word_metric,
    word_vertex_metric,
)

DEFAULT_TRIPLES = 120  # geodesic triples a run samples
DEFAULT_PAIRS = 80  # point pairs a run samples; some checks take a share of them
GRID_RESOLUTION = 16  # the oracle grid's spacing is 1/GRID_RESOLUTION


@dataclass
class CheckResult:
    name: str
    suite: str
    passed: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        note = f"  ({'; '.join(self.notes)})" if self.notes else ""
        return f"[{status}] {self.suite}/{self.name}: {self.passed} ok, {self.failed} bad{note}"


@dataclass
class CheckContext:
    K: SimplicialComplex
    metric: VertexMetric
    seed: int = 0
    triples: int = DEFAULT_TRIPLES
    pairs: int = DEFAULT_PAIRS

    def __post_init__(self):
        self.M = ExtendedMetric(self.K, self.metric)
        # The tripwire log is process-wide; this run reports only what follows.
        self.tripwire_start = (tripwire_log().checks, len(tripwire_log().violations))

    def rng(self, tag: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(tag.encode())])

    @cached_property
    def automorphism(self) -> Automorphism | None:
        """The run's one automorphism search; None means only the identity exists."""
        return find_nontrivial_automorphism(self.K)


def find_nontrivial_automorphism(K: SimplicialComplex) -> Automorphism | None:
    """A non-identity simplicial automorphism of K, or None when only the identity exists.

    Exact individualisation-refinement (Weisfeiler & Leman 1968; McKay & Piperno 2014), with
    no budget and no size cap.  Colours are refined on which maximal simplices hold each vertex,
    so a pin splits vertices even where the 1-skeleton is complete.  The first vertex v of the
    first non-singleton cell is pinned against each other w of it, and pairs are pinned depth
    first until mapping each cell onto its namesake in label order passes `make_automorphism`.
    If no w works, every automorphism fixes v, so v stays pinned.
    """
    vs = K.vertices
    simplices, held = K.simplex_csr.all_rows(), K.incidence_csr.all_rows()

    def refine(colour: list[int]) -> list[int]:
        # colour[v] is vertex v's; it is named by the rank of its sorted signature, never by a label
        while True:
            seen = [tuple(sorted([colour[v] for v in s])) for s in simplices]
            signature = [(c, tuple(sorted([seen[s] for s in held[v]]))) for v, c in enumerate(colour)]
            names = {s: r for r, s in enumerate(sorted(set(signature)))}
            refined = [names[s] for s in signature]
            if len(names) == len(set(colour)):
                return refined
            colour = refined

    def pin(colour: list[int], v: int) -> list[int]:
        # a fresh colour, so two pins never share one
        return refine(colour[:v] + [max(colour) + 1] + colour[v + 1:])

    def cells(colour: list[int]) -> tuple[dict[int, list[int]], int | None]:
        """Colour -> its vertex ids, ascending, and the first colour that several share."""
        out: dict[int, list[int]] = {}
        for v, c in enumerate(colour):
            out.setdefault(c, []).append(v)
        return out, min((c for c, members in out.items() if len(members) > 1), default=None)

    colour = refine([0] * len(vs))
    top, split = cells(colour)
    while split is not None:
        fixed = pin(colour, top[split][0])
        # (a, b, w): look for a map carrying colouring a onto colouring b with w pinned
        stack = [(fixed, colour, w) for w in reversed(top[split][1:])]
        while stack:
            a, b, w = stack.pop()
            b = pin(b, w)
            if sorted(a) != sorted(b):
                continue
            (ca, inner), (cb, _) = cells(a), cells(b)
            try:
                return make_automorphism(K, {vs[u]: vs[t] for c in ca for u, t in zip(ca[c], cb[c])})
            except NotAnAutomorphism:
                if inner is not None:
                    a = pin(a, ca[inner][0])
                    stack.extend((a, b, w) for w in reversed(cb[inner]))
        colour = fixed
        top, split = cells(colour)
    return None


# --------------------------------------------------------------------------
# individual checks

ALL_CHECKS: list[Callable[[CheckContext], CheckResult]] = []  # run order: definition order


def _check(suite: str, name: str):
    """Register a check under its suite and name, after every check defined before it.

    The body fills in the CheckResult it is handed; the registered check
    takes a CheckContext and returns that result.
    """

    def register(body: Callable[[CheckContext, CheckResult], None]):
        @wraps(body)
        def check(ctx: CheckContext) -> CheckResult:
            result = CheckResult(name, suite)
            body(ctx, result)
            return result

        check.suite = suite
        ALL_CHECKS.append(check)
        return check

    return register


@_check("complex", "faces-closed-under-subsets")
def _check_face_closure(ctx: CheckContext, r: CheckResult) -> None:
    for s in ctx.K.maximal_simplices:
        if len(s) > 6:
            r.notes.append(f"simplex {s} too large for exhaustive subset check")
            continue
        for k in range(1, len(s) + 1):
            for sub in itertools.combinations(s, k):
                if ctx.K.spans(sub):
                    r.passed += 1
                else:
                    r.failed += 1
                    r.notes.append(f"missing face {sub}")


def _random_point_on(K: SimplicialComplex, rng: np.random.Generator, ids: Sequence[int]) -> BarycentricPoint:
    """`random_point(K, rng, face=...)` on the face with ascending vertex ids `ids`, drawn alike.

    The face is known to be one, so its labels are neither looked up nor face-tested.
    """
    return _point_on(K, ids, (MIN_WEIGHT + rng.random(len(ids))).tolist())


@_check("complex", "simplex-l1-metric-axioms")
def _check_simplex_l1_axioms(ctx: CheckContext, r: CheckResult) -> None:
    rng = ctx.rng("simplex-l1")
    simplices = ctx.K.simplex_csr
    for _ in range(ctx.triples):
        sigma = simplices.row(_integer(rng, len(simplices)))
        x, y, z = (_random_point_on(ctx.K, rng, sigma) for _ in range(3))
        ok = (
            abs(simplex_l1(x, y) - simplex_l1(y, x)) <= VALUE_TOL
            and simplex_l1(x, x) <= VALUE_TOL
            and simplex_l1(x, z) <= simplex_l1(x, y) + simplex_l1(y, z) + VALUE_TOL
            and simplex_l1(x, y) <= 1.0 + VALUE_TOL
        )
        r.passed += ok
        r.failed += not ok


@_check("complex", "simplex-l1-face-restriction")
def _check_simplex_l1_restriction(ctx: CheckContext, r: CheckResult) -> None:
    # the l1 value must only depend on coordinates, not the ambient simplex
    rng = ctx.rng("l1-restriction")
    simplices = ctx.K.simplex_csr
    for _ in range(ctx.pairs):
        sigma = simplices.row(_integer(rng, len(simplices)))
        face = sigma[: max(1, len(sigma) - 1)]
        x = _random_point_on(ctx.K, rng, face)
        y = _random_point_on(ctx.K, rng, face)
        ambient = simplex_l1(x, y)
        direct = 0.5 * sum(abs(a - b) for (_, a), (_, b) in zip(x.pairs, y.pairs))  # one support, the face's
        ok = abs(ambient - direct) <= VALUE_TOL
        r.passed += ok
        r.failed += not ok


@_check("complex", "automorphism-preserves-simplex-l1")
def _check_automorphism_l1(ctx: CheckContext, r: CheckResult) -> None:
    g = ctx.automorphism
    if g is None:
        r.notes.append("only the identity exists; nothing to compare")
        return
    rng = ctx.rng("auto-l1")
    for _ in range(ctx.pairs):
        x, y = random_same_simplex_pair(ctx.K, rng)
        gx = apply_automorphism(ctx.K, g, x)
        gy = apply_automorphism(ctx.K, g, y)
        ok = abs(simplex_l1(x, y) - simplex_l1(gx, gy)) <= 1e-12
        r.passed += ok
        r.failed += not ok


@_check("vertex", "word-metric-equals-chain-solver")
def _check_vertex_agreement_solver(ctx: CheckContext, r: CheckResult) -> None:
    if len(ctx.K.vertices) > 14:
        r.notes.append("complex too large; covered by the shortcut check")
        return
    table = word_metric(ctx.K)
    vs = ctx.K.vertices
    for i, u in enumerate(vs):
        from_u = table.row(i)
        for j, v in enumerate(vs[i + 1 :], i + 1):
            got = chain_solver_distance(ctx.K, vertex_point(ctx.K, u), vertex_point(ctx.K, v)).value
            want = float(from_u[j])
            ok = abs(got - want) <= VALUE_TOL
            r.passed += ok
            r.failed += not ok
            if not ok:
                r.notes.append(f"({u},{v}): solver {got} != word {want}")


@_check("vertex", "minimal-linear-bound-attained")
def _check_minimal_bound(ctx: CheckContext, r: CheckResult) -> None:
    if len(ctx.K.vertices) < 2:
        r.notes.append("single vertex; no pair to attain C")
        return
    # every pair u < v, one row of u at a time: the metric's row holds the floats `distance` gives
    table = word_metric(ctx.K)
    c = ctx.metric.minimal_C
    gap = np.inf
    for i in range(len(ctx.K.vertices) - 1):
        slack = c * table.row(i)[i + 1 :] - ctx.metric.row(i)[i + 1 :]
        failed = int(np.count_nonzero(slack < -VALUE_TOL))
        r.failed += failed
        r.passed += len(slack) - failed
        gap = min(gap, float(slack.min()))
    if gap > VALUE_TOL:
        r.failed += 1
        r.notes.append(f"minimal C not attained (slack {gap})")


@_check("vertex", "vertex-dd-identities")
def _check_vertex_dd_identities(ctx: CheckContext, r: CheckResult) -> None:
    rng = ctx.rng("vertex-dd")
    n = len(ctx.K.vertices)
    dd = partial(double_difference, ctx.metric.distance)
    for _ in range(ctx.triples):
        a, a2, a3, b, b2, w = (int(rng.integers(n)) for _ in range(6))
        checks = [
            abs(dd(a, a2, b, b2) - dd(b, b2, a, a2)) <= VALUE_TOL,
            abs(dd(a, a2, b, b2) + dd(a2, a, b, b2)) <= VALUE_TOL,
            abs(dd(a, a, b, b2)) <= VALUE_TOL and abs(dd(a, a2, b, b)) <= VALUE_TOL,
            abs(dd(a, a2, b, b2) + dd(a2, a3, b, b2) - dd(a, a3, b, b2)) <= VALUE_TOL,
            abs(dd(a, a2, b, w) + dd(b, a, a2, w) + dd(a2, b, a, w)) <= VALUE_TOL,
        ]
        r.passed += sum(checks)
        r.failed += len(checks) - sum(checks)


@_check("vertex", "vertex-gp-dd-relation")
def _check_vertex_gp_relation(ctx: CheckContext, r: CheckResult) -> None:
    rng = ctx.rng("vertex-gp")
    n = len(ctx.K.vertices)
    d = ctx.metric.distance
    for _ in range(ctx.triples):
        a, b, x, y = (int(rng.integers(n)) for _ in range(4))
        lhs = double_difference(d, a, b, x, y)
        rhs = gromov_product(d, b, x, a) - gromov_product(d, b, y, a)
        ok = abs(lhs - rhs) <= VALUE_TOL
        r.passed += ok
        r.failed += not ok


@_check("vertex", "four-point-delta-scan")
def _check_hyperbolicity(ctx: CheckContext, r: CheckResult) -> None:
    if len(ctx.K.vertices) > 60:
        r.notes.append("skipped: quartic scan limited to 60 vertices")
        return
    delta = hyperbolicity_delta(ctx.metric.matrix)
    r.passed += 1
    r.notes.append(f"delta = {delta:.6g}")


@_check("path", "path-metric-axioms")
def _check_path_axioms(ctx: CheckContext, r: CheckResult) -> None:
    rng = ctx.rng("path-axioms")
    for _ in range(max(1, ctx.triples // 3)):
        x = random_point(ctx.K, rng)
        y = random_point(ctx.K, rng)
        z = random_point(ctx.K, rng)
        dxy = l1_path_distance(ctx.K, x, y).value
        dyx = l1_path_distance(ctx.K, y, x).value
        dxz = l1_path_distance(ctx.K, x, z).value
        dyz = l1_path_distance(ctx.K, y, z).value
        ok = (
            dxy == dyx
            and l1_path_distance(ctx.K, x, x).value == 0.0
            and dxz <= dxy + dyz + VALUE_TOL
        )
        r.passed += ok
        r.failed += not ok


@_check("path", "path-restriction-and-diameter")
def _check_path_restriction(ctx: CheckContext, r: CheckResult) -> None:
    rng = ctx.rng("path-restriction")
    for _ in range(ctx.pairs):
        x, y = random_same_simplex_pair(ctx.K, rng)
        d = l1_path_distance(ctx.K, x, y).value
        ok = abs(d - simplex_l1(x, y)) <= VALUE_TOL and d <= 1.0 + VALUE_TOL
        r.passed += ok
        r.failed += not ok


def _pair_at(n: int, k: int) -> tuple[int, int]:
    """Entry k of itertools.combinations(range(n), 2), without listing the pairs.

    Counted from the last pair, entry m lies in row r counted from the last
    row (row 0), r = floor((sqrt(8m + 1) - 1) / 2), since the last r rows
    hold r(r+1)/2 pairs.
    """
    m = n * (n - 1) // 2 - 1 - k
    r = (math.isqrt(8 * m + 1) - 1) // 2
    return n - 2 - r, n - 1 - (m - r * (r + 1) // 2)


@_check("path", "path-vertex-agreement")
def _check_path_vertex_agreement(ctx: CheckContext, r: CheckResult) -> None:
    table = word_metric(ctx.K)
    vs = ctx.K.vertices
    n = len(vs)
    count = n * (n - 1) // 2
    pairs = itertools.combinations(range(n), 2)
    if count > 400:
        rng = ctx.rng("vertex-pairs")
        idx = rng.choice(count, size=400, replace=False)
        pairs = [_pair_at(n, int(k)) for k in idx]
    for u, v in pairs:
        d = l1_path_distance(ctx.K, vertex_point(ctx.K, vs[u]), vertex_point(ctx.K, vs[v])).value
        ok = d == table.distance(u, v)
        r.passed += ok
        r.failed += not ok


@_check("path", "path-witness-soundness")
def _check_witness_soundness(ctx: CheckContext, r: CheckResult) -> None:
    rng = ctx.rng("witness")
    for _ in range(max(1, ctx.pairs // 2)):
        x = random_point(ctx.K, rng)
        y = random_point(ctx.K, rng)
        value, witness = l1_path_distance(ctx.K, x, y)
        try:
            witness.validate(ctx.K)
            ok = abs(witness.length - value) <= VALUE_TOL
            ok = ok and all(value >= b - VALUE_TOL for _, b in lower_bounds(ctx.K, x, y))
        except MetricExtError as exc:
            ok = False
            r.notes.append(str(exc))
        r.passed += ok
        r.failed += not ok


@_check("path", "path-disjoint-support-floor")
def _check_disjoint_floor(ctx: CheckContext, r: CheckResult) -> None:
    if len(ctx.K.vertices) < 2:
        r.notes.append("single vertex; no disjoint pairs")
        return
    rng = ctx.rng("disjoint")
    for _ in range(max(1, ctx.pairs // 2)):
        x, y = random_disjoint_pair(ctx.K, rng)
        d = l1_path_distance(ctx.K, x, y).value
        ok = d >= 1.0 - VALUE_TOL
        r.passed += ok
        r.failed += not ok


@_check("extension", "ext-metric-axioms")
def _check_ext_axioms(ctx: CheckContext, r: CheckResult) -> None:
    rng = ctx.rng("ext-axioms")
    M = ctx.M
    for _ in range(max(1, ctx.triples // 3)):
        x = random_point(ctx.K, rng)
        y = random_point(ctx.K, rng)
        z = random_point(ctx.K, rng)
        dxy = M.distance(x, y)
        dxz = M.distance(x, z)
        dyz = M.distance(y, z)
        ok = (
            dxz <= dxy + dyz + VALUE_TOL
            and M.distance(x, x) == 0.0
            and (x.key() == y.key() or dxy > 0.0)
        )
        r.passed += ok
        r.failed += not ok


@_check("extension", "ext-vertex-restriction")
def _check_ext_vertex_restriction(ctx: CheckContext, r: CheckResult) -> None:
    vs = ctx.K.vertices
    for u, v in itertools.islice(itertools.combinations(range(len(vs)), 2), 400):
        d = ctx.M.distance(vertex_point(ctx.K, vs[u]), vertex_point(ctx.K, vs[v]))
        ok = d == ctx.metric.distance(u, v)
        r.passed += ok
        r.failed += not ok


@_check("extension", "ext-disjoint-support-bilinear")
def _check_ext_disjoint(ctx: CheckContext, r: CheckResult) -> None:
    if len(ctx.K.vertices) < 2:
        r.notes.append("single vertex; no disjoint pairs")
        return
    rng = ctx.rng("ext-disjoint")
    for _ in range(max(1, ctx.pairs // 2)):
        x, y = random_disjoint_pair(ctx.K, rng)
        value, branch = ctx.M.distance_with_branch(x, y)
        bil = bilinear_extension(ctx.metric, x, y)
        d_path = l1_path_distance(ctx.K, x, y).value
        ok = branch == "bilinear" and value == bil and bil <= ctx.M.scale * d_path + VALUE_TOL
        r.passed += ok
        r.failed += not ok


@_check("extension", "ext-mixed-triangle-inequality")
def _check_mixed_inequality(ctx: CheckContext, r: CheckResult) -> None:
    rng = ctx.rng("mixed")
    two_c = 2.0 * ctx.metric.C
    for _ in range(max(1, ctx.triples // 3)):
        x = random_point(ctx.K, rng)
        y = random_point(ctx.K, rng)
        z = random_point(ctx.K, rng)
        lhs = bilinear_extension(ctx.metric, x, z)
        rhs_base = bilinear_extension(ctx.metric, x, y)
        floor = max(v for _, v in lower_bounds(ctx.K, y, z))
        if lhs <= rhs_base + two_c * floor + VALUE_TOL:
            r.passed += 1  # already provable from the admissible lower bound
            continue
        d = l1_path_distance(ctx.K, y, z).value
        ok = lhs <= rhs_base + two_c * d + VALUE_TOL
        r.passed += ok
        r.failed += not ok


@_check("extension", "bilinear-triangle-inequality")
def _check_bilinear_triangle(ctx: CheckContext, r: CheckResult) -> None:
    rng = ctx.rng("bilinear-triangle")
    for _ in range(max(1, ctx.triples // 3)):
        x = random_point(ctx.K, rng)
        y = random_point(ctx.K, rng)
        z = random_point(ctx.K, rng)
        ok = bilinear_extension(ctx.metric, x, z) <= (
            bilinear_extension(ctx.metric, x, y)
            + bilinear_extension(ctx.metric, y, z)
            + VALUE_TOL
        )
        r.passed += ok
        r.failed += not ok


@_check("extension", "ext-dd-identities-and-gp")
def _check_ext_dd_identities(ctx: CheckContext, r: CheckResult) -> None:
    rng = ctx.rng("ext-dd")
    d = ctx.M.distance
    dd = partial(double_difference, d)
    for _ in range(max(1, ctx.triples // 4)):
        pts = [random_point(ctx.K, rng) for _ in range(5)]
        a, a2, b, b2, w = pts
        checks = [
            abs(dd(a, a2, b, b2) - dd(b, b2, a, a2)) <= VALUE_TOL,
            abs(dd(a, a2, b, b2) + dd(a2, a, b, b2)) <= VALUE_TOL,
            abs(dd(a, a, b, b2)) <= VALUE_TOL,
            abs(dd(a, a2, b, b2) + dd(a2, w, b, b2) - dd(a, w, b, b2)) <= VALUE_TOL,
            abs(dd(a, b, w, a2) + dd(w, a, b, a2) + dd(b, w, a, a2)) <= VALUE_TOL,
            abs(gromov_product(d, a, b, w) - dd(w, a, b, w)) <= VALUE_TOL,
        ]
        r.passed += sum(checks)
        r.failed += len(checks) - sum(checks)


@_check("extension", "ext-bilinear-sandwich")
def _check_sandwich(ctx: CheckContext, r: CheckResult) -> None:
    if not ctx.metric.has_qi_constants:
        r.notes.append("skipped: no quasi-isometry constants supplied")
        return
    rng = ctx.rng("sandwich")
    for _ in range(max(1, ctx.pairs // 2)):
        x = random_point(ctx.K, rng)
        y = random_point(ctx.K, rng)
        res = sandwich_check(ctx.M, x, y)
        r.passed += res.passed
        r.failed += not res.passed
        if not res.passed:
            r.notes.append(res.message)


@_check("extension", "automorphism-ext-invariance")
def _check_automorphism_ext(ctx: CheckContext, r: CheckResult) -> None:
    g = ctx.automorphism
    if g is None:
        r.notes.append("only the identity exists; nothing to compare")
        return
    d = ctx.metric.distance
    index = ctx.K.index
    image = [index[v] for _, v in g.mapping]  # vertex id -> its image's id; mapping is by source label
    rng = ctx.rng("auto-ext")
    samples = max(1, ctx.pairs // 4)
    for _ in range(samples):
        x = random_point(ctx.K, rng)
        y = random_point(ctx.K, rng)
        # the extension reads d only on supp(x) x supp(y), so invariance is needed only there
        if any(abs(d(u, v) - d(image[u], image[v])) > 1e-12 for u in x.ids for v in y.ids):
            continue
        gx = apply_automorphism(ctx.K, g, x)
        gy = apply_automorphism(ctx.K, g, y)
        ok = abs(ctx.M.distance(x, y) - ctx.M.distance(gx, gy)) <= 1e-12
        r.passed += ok
        r.failed += not ok
    skipped = samples - r.passed - r.failed
    if skipped:
        r.notes.append(f"{skipped} of {samples} samples skipped: metric not invariant on their supports")


@_check("probes", "dd-window-4bprime")
def _check_dd_window(ctx: CheckContext, r: CheckResult) -> None:
    if not ctx.metric.has_qi_constants:
        r.notes.append("skipped: no quasi-isometry constants supplied")
        return
    samples = random_quadruples(ctx.K, ctx.rng("window"), max(1, ctx.pairs // 2))
    res = equivalence_windows_check(ctx.M, samples)
    r.passed += res.checked if res.passed else 0
    r.failed += 0 if res.passed else 1
    if res.alpha is not None:
        r.notes.append(f"fitted alpha={res.alpha}, beta={res.beta}")


@_check("probes", "probe-reproducibility")
def _check_probe_reproducibility(ctx: CheckContext, r: CheckResult) -> None:
    base = min(ctx.K.vertices)
    ray = deepest_ray(ctx.K, base)
    if ray.depth < 1:
        r.notes.append("complex has no room for rays; skipped")
        return
    fixed = vertex_point(ctx.K, ray.vertices[0])
    rep1 = dd_divergence_probe(ctx.M, [ray, fixed, fixed, ray])
    rep2 = dd_divergence_probe(ctx.M, [ray, fixed, fixed, ray])
    ok = rep1 == rep2
    r.passed += ok
    r.failed += not ok


@_check("probes", "divergence-signs-on-tree")
def _check_divergence_tree(ctx: CheckContext, r: CheckResult) -> None:
    """Word-metric divergence on trees, against the combinatorial oracle.

    With x = y' = ray(t) the double difference equals the Gromov product of
    the two fixed points at ray(t), which on a tree is the distance from
    ray(t) to the path between them; the straight coincidence negates it.
    """
    n = len(ctx.K.vertices)
    edges = len(ctx.K.adjacency_csr.indices) // 2
    if edges != n - 1:
        r.notes.append("skipped: 1-skeleton is not a tree")
        return
    base = min(ctx.K.vertices)
    ray = deepest_ray(ctx.K, base)
    if ray.depth < 4:
        r.notes.append("skipped: tree too shallow")
        return
    M = ExtendedMetric(ctx.K, word_vertex_metric(ctx.K))
    ua, ub = ray.vertices[0], ray.vertices[1]
    a2 = vertex_point(ctx.K, ua)
    b = vertex_point(ctx.K, ub)
    crossed = dd_divergence_probe(M, [ray, a2, b, ray])
    straight = dd_divergence_probe(M, [ray, a2, ray, b])
    for rep, want, sign in ((crossed, "+inf-divergent", 1.0), (straight, "-inf-divergent", -1.0)):
        ok = rep.verdict == want
        r.passed += ok
        r.failed += not ok
        if not ok:
            r.notes.append(f"expected {want}, got {rep.verdict}")
        for t, value in rep.table:
            closed_form = sign * tree_gromov_oracle(ctx.K, ua, ub, ray.vertices[int(t)])
            if abs(value - closed_form) <= VALUE_TOL:
                r.passed += 1
            else:
                r.failed += 1
                r.notes.append(f"depth {t}: probe {value} != oracle {closed_form}")


@_check("probes", "decay-probe")
def _check_decay(ctx: CheckContext, r: CheckResult) -> None:
    if not ctx.metric.has_qi_constants:
        r.notes.append("skipped: no quasi-isometry constants supplied")
        return
    rng = ctx.rng("decay")
    quads = nested_quadruples(ctx.K, rng, count=20)
    points = [
        tuple(vertex_point(ctx.K, v) for v in quad) for quad in quads
    ]
    rep = decay_probe(ctx.M, points)
    r.passed += 1
    r.notes.append(f"verdict: {rep.verdict} ({len(rep.table)} samples)")


def grid_sandwich(
    K: SimplicialComplex, x: BarycentricPoint, y: BarycentricPoint, n: int, refine: bool = True
) -> tuple[dict[str, float], bool]:
    """The exact path value of two 1/n grid points against the grid oracle at 1/n, and 1/(2n) when refining.

    Returns the row (exact, grid, gap, tol, and grid_fine when refining) and
    whether exact <= grid <= exact + tol, tol = max(1, dim K) / n * (1 + exact),
    the finer grid is no longer than the coarse one, and, the oracle being
    exact on the points' own grids, each grid value is the exact one to
    within VALUE_TOL.
    """
    exact = l1_path_distance(K, x, y).value
    grid = grid_oracle_path_distance(K, x, y, 1.0 / n)
    tol = max(1, K.dimension) * (1.0 / n) * (1.0 + exact)
    row = {"exact": exact, "grid": grid, "gap": grid - exact, "tol": tol}
    ok = exact <= grid + VALUE_TOL and grid - exact <= tol and abs(grid - exact) <= VALUE_TOL
    if refine:
        row["grid_fine"] = fine = grid_oracle_path_distance(K, x, y, 1.0 / (2 * n))
        ok = ok and fine <= grid + VALUE_TOL and abs(fine - exact) <= VALUE_TOL
    return row, ok


@_check("oracle", "oracle-grid-sandwich")
def _check_oracle_sandwich(ctx: CheckContext, r: CheckResult) -> None:
    if ctx.K.dimension > 2 or len(ctx.K.vertices) > 12:
        r.notes.append("skipped: oracle comparison limited to dim<=2, 12 vertices")
        return
    rng = ctx.rng("oracle")
    for _ in range(max(1, ctx.pairs // 4)):
        x = grid_point(ctx.K, rng, GRID_RESOLUTION)
        y = grid_point(ctx.K, rng, GRID_RESOLUTION)
        ok = grid_sandwich(ctx.K, x, y, GRID_RESOLUTION)[1]
        r.passed += ok
        r.failed += not ok


@_check("oracle", "naive-bilinear-identity-violation")
def _check_naive_violation(ctx: CheckContext, r: CheckResult) -> None:
    ids = ctx.K.adjacency_csr.indices
    if not len(ids):
        r.notes.append("skipped: complex has no edge")
        return
    # the least edge: the least vertex with a neighbour (adjacency is symmetric), and the head of its row
    u, v = ctx.K.vertices[ids.min()], ctx.K.vertices[ids[0]]
    pts = [
        vertex_point(ctx.K, u),
        vertex_point(ctx.K, v),
        make_point(ctx.K, {u: 0.5, v: 0.5}),
    ]
    viols = exhaustive_metric_scan(
        lambda a, b: bilinear_extension(ctx.metric, a, b), pts
    )
    ok = any(s.kind == "Identity" for s in viols)
    r.passed += ok
    r.failed += not ok


@_check("oracle", "lower-bound-tripwire")
def _check_tripwire(ctx: CheckContext, r: CheckResult) -> None:
    # defined last, so it runs last and counts the bound checks of every check before it
    log = tripwire_log()
    checks, seen = ctx.tripwire_start
    violations = log.violations[seen:]
    if violations:
        r.failed += len(violations)
        r.notes.extend(violations[:3])
    else:
        r.passed += 1
        r.notes.append(f"{log.checks - checks} bound checks, no violations")


SUITES = tuple(dict.fromkeys(check.suite for check in ALL_CHECKS))


def run_checks(
    K: SimplicialComplex,
    metric: VertexMetric,
    suite: str = "all",
    seed: int = 0,
    triples: int = DEFAULT_TRIPLES,
    pairs: int = DEFAULT_PAIRS,
) -> list[CheckResult]:
    """Run one suite (or all) and return results sorted by suite and name.

    The tripwire check runs last, for the oracle suite and for all; it reports this run only.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    ctx = CheckContext(K=K, metric=metric, seed=seed, triples=triples, pairs=pairs)
    results = [check(ctx) for check in ALL_CHECKS if suite in ("all", check.suite)]
    return sorted(results, key=lambda r: (r.suite, r.name))
