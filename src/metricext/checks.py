"""Named property suites runnable against any complex + vertex metric.

Each check samples with its own RNG, seeded from the seed and a crc32 of its
tag (never the per-process salted `hash`), so `check --seed N` prints the same
in every process.  The runner executes only the requested suite's checks, one
after another, and orders results by suite and name before reporting.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field

import numpy as np

from .complexes import (
    Automorphism,
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
    double_difference_ext,
    gromov_product_ext,
    sandwich_check,
)
from .generators import (
    grid_point,
    nested_quadruples,
    random_disjoint_pair,
    random_point,
    random_same_simplex_pair,
    random_vertex,
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
    double_difference_vertices,
    gromov_product_vertices,
    hyperbolicity_delta,
    word_metric,
    word_vertex_metric,
)

TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    suite: str = ""  # set by run_checks from the check's @_suite
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
    triples: int = 120
    pairs: int = 80

    def __post_init__(self):
        self.M = ExtendedMetric(self.K, self.metric)
        # The tripwire log is process-wide; this run reports only what follows.
        self.tripwire_start = (tripwire_log().checks, len(tripwire_log().violations))

    def rng(self, tag: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(tag.encode())])


def find_nontrivial_automorphism(K: SimplicialComplex, budget: int = 50_000) -> Automorphism | None:
    """Backtracking search for a non-identity simplicial automorphism."""
    vs = list(K.vertices)
    if len(vs) > 32:
        return None
    degree = {v: len(K.adjacency[v]) for v in vs}
    order = sorted(vs, key=lambda v: (-degree[v], v))
    adj = {v: set(K.adjacency[v]) for v in vs}
    steps = 0

    def backtrack(i: int, image: dict[str, str], used: set[str]):
        nonlocal steps
        if steps > budget:
            return None
        if i == len(order):
            try:
                return make_automorphism(K, image)
            except NotAnAutomorphism:
                return None
        v = order[i]
        for w in vs:
            steps += 1
            if w in used or degree[w] != degree[v]:
                continue
            if any((prev in adj[v]) != (image[prev] in adj[w]) for prev in order[:i]):
                continue
            image[v] = w
            used.add(w)
            found = backtrack(i + 1, image, used)
            if found is not None:
                return found
            del image[v]
            used.discard(w)
        return None

    # force a non-fixed first choice to skip the identity
    v0 = order[0]
    for w0 in vs:
        if w0 == v0 or degree[w0] != degree[v0]:
            continue
        found = backtrack(1, {v0: w0}, {w0})
        if found is not None:
            return found
    return None


# --------------------------------------------------------------------------
# individual checks; each returns a CheckResult

def _suite(name: str):
    """Mark a check as part of the named suite; run_checks selects by it."""

    def mark(check):
        check.suite = name
        return check

    return mark


@_suite("complex")
def _check_face_closure(ctx: CheckContext) -> CheckResult:
    r = CheckResult("faces-closed-under-subsets")
    for s in ctx.K.maximal_simplices:
        if len(s) > 6:
            r.notes.append(f"simplex {s} too large for exhaustive subset check")
            continue
        for k in range(1, len(s) + 1):
            for sub in itertools.combinations(s, k):
                if sub in ctx.K.faces:
                    r.passed += 1
                else:
                    r.failed += 1
                    r.notes.append(f"missing face {sub}")
    return r


@_suite("complex")
def _check_simplex_l1_axioms(ctx: CheckContext) -> CheckResult:
    r = CheckResult("simplex-l1-metric-axioms")
    rng = ctx.rng("simplex-l1")
    for _ in range(ctx.triples):
        sigma = ctx.K.maximal_simplices[rng.integers(len(ctx.K.maximal_simplices))]
        pts = [random_point(ctx.K, rng, face=sigma) for _ in range(3)]
        x, y, z = pts
        ok = (
            abs(simplex_l1(x, y) - simplex_l1(y, x)) <= TOL
            and simplex_l1(x, x) <= TOL
            and simplex_l1(x, z) <= simplex_l1(x, y) + simplex_l1(y, z) + TOL
            and simplex_l1(x, y) <= 1.0 + TOL
        )
        r.passed += ok
        r.failed += not ok
    return r


@_suite("complex")
def _check_simplex_l1_restriction(ctx: CheckContext) -> CheckResult:
    # the l1 value must only depend on coordinates, not the ambient simplex
    r = CheckResult("simplex-l1-face-restriction")
    rng = ctx.rng("l1-restriction")
    for _ in range(ctx.pairs):
        sigma = ctx.K.maximal_simplices[rng.integers(len(ctx.K.maximal_simplices))]
        face = sigma[: max(1, len(sigma) - 1)]
        x = random_point(ctx.K, rng, face=face)
        y = random_point(ctx.K, rng, face=face)
        ambient = simplex_l1(x, y)
        direct = 0.5 * sum(abs(x.get(v) - y.get(v)) for v in face)
        ok = abs(ambient - direct) <= TOL
        r.passed += ok
        r.failed += not ok
    return r


@_suite("complex")
def _check_automorphism_l1(ctx: CheckContext) -> CheckResult:
    r = CheckResult("automorphism-preserves-simplex-l1")
    g = find_nontrivial_automorphism(ctx.K)
    if g is None:
        r.notes.append("no nontrivial automorphism found; identity only")
        g = make_automorphism(ctx.K, {v: v for v in ctx.K.vertices})
    rng = ctx.rng("auto-l1")
    for _ in range(ctx.pairs):
        x, y = random_same_simplex_pair(ctx.K, rng)
        gx = apply_automorphism(ctx.K, g, x)
        gy = apply_automorphism(ctx.K, g, y)
        ok = abs(simplex_l1(x, y) - simplex_l1(gx, gy)) <= 1e-12
        r.passed += ok
        r.failed += not ok
    return r


@_suite("vertex")
def _check_vertex_agreement_solver(ctx: CheckContext) -> CheckResult:
    r = CheckResult("word-metric-equals-chain-solver")
    if len(ctx.K.vertices) > 14:
        r.notes.append("complex too large; covered by the shortcut check")
        return r
    table = word_metric(ctx.K)
    for u, v in itertools.combinations(ctx.K.vertices, 2):
        got = chain_solver_distance(ctx.K, vertex_point(ctx.K, u), vertex_point(ctx.K, v)).value
        ok = abs(got - table.distance(u, v)) <= TOL
        r.passed += ok
        r.failed += not ok
        if not ok:
            r.notes.append(f"({u},{v}): solver {got} != word {table.distance(u, v)}")
    return r


@_suite("vertex")
def _check_minimal_bound(ctx: CheckContext) -> CheckResult:
    r = CheckResult("minimal-linear-bound-attained")
    table = word_metric(ctx.K)
    c = ctx.metric.minimal_C
    gap = np.inf
    for u, v in itertools.combinations(ctx.K.vertices, 2):
        slack = c * table.distance(u, v) - ctx.metric.distance(u, v)
        if slack < -TOL:
            r.failed += 1
        else:
            r.passed += 1
        gap = min(gap, slack)
    if gap > TOL:
        r.failed += 1
        r.notes.append(f"minimal C not attained (slack {gap})")
    return r


@_suite("vertex")
def _check_vertex_dd_identities(ctx: CheckContext) -> CheckResult:
    r = CheckResult("vertex-dd-identities")
    rng = ctx.rng("vertex-dd")
    vs = list(ctx.K.vertices)
    dd = lambda *args: double_difference_vertices(ctx.metric, *args)
    for _ in range(ctx.triples):
        a, a2, a3, b, b2, w = (vs[rng.integers(len(vs))] for _ in range(6))
        checks = [
            abs(dd(a, a2, b, b2) - dd(b, b2, a, a2)) <= TOL,
            abs(dd(a, a2, b, b2) + dd(a2, a, b, b2)) <= TOL,
            abs(dd(a, a, b, b2)) <= TOL and abs(dd(a, a2, b, b)) <= TOL,
            abs(dd(a, a2, b, b2) + dd(a2, a3, b, b2) - dd(a, a3, b, b2)) <= TOL,
            abs(dd(a, a2, b, w) + dd(b, a, a2, w) + dd(a2, b, a, w)) <= TOL,
        ]
        r.passed += sum(checks)
        r.failed += len(checks) - sum(checks)
    return r


@_suite("vertex")
def _check_vertex_gp_relation(ctx: CheckContext) -> CheckResult:
    r = CheckResult("vertex-gp-dd-relation")
    rng = ctx.rng("vertex-gp")
    vs = list(ctx.K.vertices)
    for _ in range(ctx.triples):
        a, b, x, y = (vs[rng.integers(len(vs))] for _ in range(4))
        lhs = double_difference_vertices(ctx.metric, a, b, x, y)
        rhs = gromov_product_vertices(ctx.metric, b, x, a) - gromov_product_vertices(
            ctx.metric, b, y, a
        )
        ok = abs(lhs - rhs) <= TOL
        r.passed += ok
        r.failed += not ok
    return r


@_suite("vertex")
def _check_hyperbolicity(ctx: CheckContext) -> CheckResult:
    r = CheckResult("four-point-delta-scan")
    if len(ctx.K.vertices) > 60:
        r.notes.append("skipped: quartic scan limited to 60 vertices")
        return r
    delta = hyperbolicity_delta(ctx.metric)
    r.passed += 1
    r.notes.append(f"delta = {delta:.6g}")
    return r


@_suite("path")
def _check_path_axioms(ctx: CheckContext) -> CheckResult:
    r = CheckResult("path-metric-axioms")
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
            abs(dxy - dyx) <= TOL
            and l1_path_distance(ctx.K, x, x).value == 0.0
            and dxz <= dxy + dyz + TOL
        )
        r.passed += ok
        r.failed += not ok
    return r


@_suite("path")
def _check_path_restriction(ctx: CheckContext) -> CheckResult:
    r = CheckResult("path-restriction-and-diameter")
    rng = ctx.rng("path-restriction")
    for _ in range(ctx.pairs):
        x, y = random_same_simplex_pair(ctx.K, rng)
        d = l1_path_distance(ctx.K, x, y).value
        ok = abs(d - simplex_l1(x, y)) <= TOL and d <= 1.0 + TOL
        r.passed += ok
        r.failed += not ok
    return r


@_suite("path")
def _check_path_vertex_agreement(ctx: CheckContext) -> CheckResult:
    r = CheckResult("path-vertex-agreement")
    table = word_metric(ctx.K)
    vs = ctx.K.vertices
    pairs = list(itertools.combinations(vs, 2))
    if len(pairs) > 400:
        rng = ctx.rng("vertex-pairs")
        idx = rng.choice(len(pairs), size=400, replace=False)
        pairs = [pairs[i] for i in idx]
    for u, v in pairs:
        d = l1_path_distance(ctx.K, vertex_point(ctx.K, u), vertex_point(ctx.K, v)).value
        ok = d == table.distance(u, v)
        r.passed += ok
        r.failed += not ok
    return r


@_suite("path")
def _check_witness_soundness(ctx: CheckContext) -> CheckResult:
    r = CheckResult("path-witness-soundness")
    rng = ctx.rng("witness")
    for _ in range(max(1, ctx.pairs // 2)):
        x = random_point(ctx.K, rng)
        y = random_point(ctx.K, rng)
        value, witness = l1_path_distance(ctx.K, x, y)
        try:
            witness.validate(ctx.K)
            ok = abs(witness.length - value) <= TOL
            ok = ok and all(value >= b - TOL for _, b in lower_bounds(ctx.K, x, y))
        except MetricExtError as exc:
            ok = False
            r.notes.append(str(exc))
        r.passed += ok
        r.failed += not ok
    return r


@_suite("path")
def _check_disjoint_floor(ctx: CheckContext) -> CheckResult:
    r = CheckResult("path-disjoint-support-floor")
    if len(ctx.K.vertices) < 2:
        r.notes.append("single vertex; no disjoint pairs")
        return r
    rng = ctx.rng("disjoint")
    for _ in range(max(1, ctx.pairs // 2)):
        x, y = random_disjoint_pair(ctx.K, rng)
        d = l1_path_distance(ctx.K, x, y).value
        ok = d >= 1.0 - TOL
        r.passed += ok
        r.failed += not ok
    return r


@_suite("extension")
def _check_ext_axioms(ctx: CheckContext) -> CheckResult:
    r = CheckResult("ext-metric-axioms")
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
            dxz <= dxy + dyz + TOL
            and M.distance(x, x) == 0.0
            and (x.key() == y.key() or dxy > 0.0)
        )
        r.passed += ok
        r.failed += not ok
    return r


@_suite("extension")
def _check_ext_vertex_restriction(ctx: CheckContext) -> CheckResult:
    r = CheckResult("ext-vertex-restriction")
    vs = ctx.K.vertices
    pairs = list(itertools.combinations(vs, 2))[:400]
    for u, v in pairs:
        d = ctx.M.distance(vertex_point(ctx.K, u), vertex_point(ctx.K, v))
        ok = d == ctx.metric.distance(u, v)
        r.passed += ok
        r.failed += not ok
    return r


@_suite("extension")
def _check_ext_disjoint(ctx: CheckContext) -> CheckResult:
    r = CheckResult("ext-disjoint-support-bilinear")
    if len(ctx.K.vertices) < 2:
        r.notes.append("single vertex; no disjoint pairs")
        return r
    rng = ctx.rng("ext-disjoint")
    for _ in range(max(1, ctx.pairs // 2)):
        x, y = random_disjoint_pair(ctx.K, rng)
        value, branch = ctx.M.distance_with_branch(x, y)
        bil = bilinear_extension(ctx.metric, x, y)
        d_path = l1_path_distance(ctx.K, x, y).value
        ok = branch == "bilinear" and value == bil and bil <= ctx.M.scale * d_path + TOL
        r.passed += ok
        r.failed += not ok
    return r


@_suite("extension")
def _check_mixed_inequality(ctx: CheckContext) -> CheckResult:
    r = CheckResult("ext-mixed-triangle-inequality")
    rng = ctx.rng("mixed")
    two_c = 2.0 * ctx.metric.C
    for _ in range(max(1, ctx.triples // 3)):
        x = random_point(ctx.K, rng)
        y = random_point(ctx.K, rng)
        z = random_point(ctx.K, rng)
        lhs = bilinear_extension(ctx.metric, x, z)
        rhs_base = bilinear_extension(ctx.metric, x, y)
        floor = max(v for _, v in lower_bounds(ctx.K, y, z))
        if lhs <= rhs_base + two_c * floor + TOL:
            r.passed += 1  # already provable from the admissible lower bound
            continue
        d = l1_path_distance(ctx.K, y, z).value
        ok = lhs <= rhs_base + two_c * d + TOL
        r.passed += ok
        r.failed += not ok
    return r


@_suite("extension")
def _check_bilinear_triangle(ctx: CheckContext) -> CheckResult:
    r = CheckResult("bilinear-triangle-inequality")
    rng = ctx.rng("bilinear-triangle")
    for _ in range(max(1, ctx.triples // 3)):
        x = random_point(ctx.K, rng)
        y = random_point(ctx.K, rng)
        z = random_point(ctx.K, rng)
        ok = bilinear_extension(ctx.metric, x, z) <= (
            bilinear_extension(ctx.metric, x, y)
            + bilinear_extension(ctx.metric, y, z)
            + TOL
        )
        r.passed += ok
        r.failed += not ok
    return r


@_suite("extension")
def _check_ext_dd_identities(ctx: CheckContext) -> CheckResult:
    r = CheckResult("ext-dd-identities-and-gp")
    rng = ctx.rng("ext-dd")
    M = ctx.M
    for _ in range(max(1, ctx.triples // 4)):
        pts = [random_point(ctx.K, rng) for _ in range(5)]
        a, a2, b, b2, w = pts
        dd = lambda *args: double_difference_ext(M, *args)
        checks = [
            abs(dd(a, a2, b, b2) - dd(b, b2, a, a2)) <= TOL,
            abs(dd(a, a2, b, b2) + dd(a2, a, b, b2)) <= TOL,
            abs(dd(a, a, b, b2)) <= TOL,
            abs(dd(a, a2, b, b2) + dd(a2, w, b, b2) - dd(a, w, b, b2)) <= TOL,
            abs(dd(a, b, w, a2) + dd(w, a, b, a2) + dd(b, w, a, a2)) <= TOL,
            abs(gromov_product_ext(M, a, b, w) - dd(w, a, b, w)) <= TOL,
        ]
        r.passed += sum(checks)
        r.failed += len(checks) - sum(checks)
    return r


@_suite("extension")
def _check_sandwich(ctx: CheckContext) -> CheckResult:
    r = CheckResult("ext-bilinear-sandwich")
    if not ctx.metric.has_qi_constants:
        r.notes.append("skipped: no quasi-isometry constants supplied")
        return r
    rng = ctx.rng("sandwich")
    for _ in range(max(1, ctx.pairs // 2)):
        x = random_point(ctx.K, rng)
        y = random_point(ctx.K, rng)
        res = sandwich_check(ctx.M, x, y)
        r.passed += res.passed
        r.failed += not res.passed
        if not res.passed:
            r.notes.append(res.message)
    return r


@_suite("probes")
def _check_dd_window(ctx: CheckContext) -> CheckResult:
    r = CheckResult("dd-window-4bprime")
    if not ctx.metric.has_qi_constants:
        r.notes.append("skipped: no quasi-isometry constants supplied")
        return r
    rng = ctx.rng("window")
    samples = []
    for _ in range(max(1, ctx.pairs // 2)):
        kind = rng.integers(2)
        pts = [
            random_vertex(ctx.K, rng) if kind else random_point(ctx.K, rng)
            for _ in range(4)
        ]
        samples.append(tuple(pts))
    res = equivalence_windows_check(ctx.M, samples)
    r.passed += res.checked if res.passed else 0
    r.failed += 0 if res.passed else 1
    if res.alpha is not None:
        r.notes.append(f"fitted alpha={res.alpha}, beta={res.beta}")
    return r


@_suite("extension")
def _check_automorphism_ext(ctx: CheckContext) -> CheckResult:
    r = CheckResult("automorphism-ext-invariance")
    g = find_nontrivial_automorphism(ctx.K)
    if g is None:
        r.notes.append("no nontrivial automorphism found; skipped")
        return r
    vm = ctx.metric
    mapping = g.as_dict()
    perm = [vm.index[mapping[v]] for v in vm.order]
    permuted = vm.matrix[np.ix_(perm, perm)]
    if not np.allclose(permuted, vm.matrix, atol=1e-12):
        r.notes.append("metric not invariant under the found automorphism; skipped")
        return r
    rng = ctx.rng("auto-ext")
    for _ in range(max(1, ctx.pairs // 4)):
        x = random_point(ctx.K, rng)
        y = random_point(ctx.K, rng)
        gx = apply_automorphism(ctx.K, g, x)
        gy = apply_automorphism(ctx.K, g, y)
        ok = abs(ctx.M.distance(x, y) - ctx.M.distance(gx, gy)) <= 1e-12
        r.passed += ok
        r.failed += not ok
    return r


@_suite("probes")
def _check_probe_reproducibility(ctx: CheckContext) -> CheckResult:
    r = CheckResult("probe-reproducibility")
    base = min(ctx.K.vertices)
    ray = deepest_ray(ctx.K, base)
    if ray.depth < 1:
        r.notes.append("complex has no room for rays; skipped")
        return r
    fixed = vertex_point(ctx.K, ray.vertices[0])
    rep1 = dd_divergence_probe(ctx.M, [ray, fixed, fixed, ray])
    rep2 = dd_divergence_probe(ctx.M, [ray, fixed, fixed, ray])
    ok = rep1 == rep2
    r.passed += ok
    r.failed += not ok
    return r


@_suite("probes")
def _check_divergence_tree(ctx: CheckContext) -> CheckResult:
    """Word-metric divergence on trees, against the combinatorial oracle.

    With x = y' = ray(t) the double difference equals the Gromov product of
    the two fixed points at ray(t), which on a tree is the distance from
    ray(t) to the path between them; the straight coincidence negates it.
    """
    r = CheckResult("divergence-signs-on-tree")
    n = len(ctx.K.vertices)
    edges = sum(1 for s in ctx.K.faces if len(s) == 2)
    if edges != n - 1:
        r.notes.append("skipped: 1-skeleton is not a tree")
        return r
    base = min(ctx.K.vertices)
    ray = deepest_ray(ctx.K, base)
    if ray.depth < 4:
        r.notes.append("skipped: tree too shallow")
        return r
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
            if abs(value - closed_form) <= TOL:
                r.passed += 1
            else:
                r.failed += 1
                r.notes.append(f"depth {t}: probe {value} != oracle {closed_form}")
    return r


@_suite("probes")
def _check_decay(ctx: CheckContext) -> CheckResult:
    r = CheckResult("decay-probe")
    if not ctx.metric.has_qi_constants:
        r.notes.append("skipped: no quasi-isometry constants supplied")
        return r
    rng = ctx.rng("decay")
    quads = nested_quadruples(ctx.K, rng, count=20)
    points = [
        tuple(vertex_point(ctx.K, v) for v in quad) for quad in quads
    ]
    rep = decay_probe(ctx.M, points)
    r.passed += 1
    r.notes.append(f"verdict: {rep.verdict} ({len(rep.table)} samples)")
    return r


@_suite("oracle")
def _check_oracle_sandwich(ctx: CheckContext) -> CheckResult:
    r = CheckResult("oracle-grid-sandwich")
    if ctx.K.dimension > 2 or len(ctx.K.vertices) > 12:
        r.notes.append("skipped: oracle comparison limited to dim<=2, 12 vertices")
        return r
    rng = ctx.rng("oracle")
    n = 16
    for _ in range(max(1, ctx.pairs // 4)):
        x = grid_point(ctx.K, rng, n)
        y = grid_point(ctx.K, rng, n)
        exact = l1_path_distance(ctx.K, x, y).value
        coarse = grid_oracle_path_distance(ctx.K, x, y, 1.0 / n)
        fine = grid_oracle_path_distance(ctx.K, x, y, 1.0 / (2 * n))
        tol = ctx.K.dimension * (1.0 / n) * (1.0 + exact)
        ok = (
            exact <= coarse + TOL
            and coarse - exact <= tol
            and fine <= coarse + TOL
        )
        r.passed += ok
        r.failed += not ok
    return r


@_suite("oracle")
def _check_naive_violation(ctx: CheckContext) -> CheckResult:
    r = CheckResult("naive-bilinear-identity-violation")
    edges = [s for s in ctx.K.faces if len(s) == 2]
    if not edges:
        r.notes.append("skipped: complex has no edge")
        return r
    u, v = edges[0]
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
    return r


@_suite("oracle")
def _check_tripwire(ctx: CheckContext) -> CheckResult:
    r = CheckResult("lower-bound-tripwire")
    log = tripwire_log()
    checks, seen = ctx.tripwire_start
    violations = log.violations[seen:]
    if violations:
        r.failed += len(violations)
        r.notes.extend(violations[:3])
    else:
        r.passed += 1
        r.notes.append(f"{log.checks - checks} bound checks, no violations")
    return r


ALL_CHECKS = [
    _check_face_closure,
    _check_simplex_l1_axioms,
    _check_simplex_l1_restriction,
    _check_automorphism_l1,
    _check_vertex_agreement_solver,
    _check_minimal_bound,
    _check_vertex_dd_identities,
    _check_vertex_gp_relation,
    _check_hyperbolicity,
    _check_path_axioms,
    _check_path_restriction,
    _check_path_vertex_agreement,
    _check_witness_soundness,
    _check_disjoint_floor,
    _check_ext_axioms,
    _check_ext_vertex_restriction,
    _check_ext_disjoint,
    _check_mixed_inequality,
    _check_bilinear_triangle,
    _check_ext_dd_identities,
    _check_sandwich,
    _check_automorphism_ext,
    _check_dd_window,
    _check_probe_reproducibility,
    _check_divergence_tree,
    _check_decay,
    _check_oracle_sandwich,
    _check_naive_violation,
]

SUITES = ("complex", "vertex", "path", "extension", "probes", "oracle")


def run_checks(
    K: SimplicialComplex,
    metric: VertexMetric,
    suite: str = "all",
    seed: int = 0,
    triples: int = 120,
    pairs: int = 80,
) -> list[CheckResult]:
    """Run one suite (or all) and return results sorted by suite and name.

    The tripwire check runs last, for the oracle suite and for all; it reports this run only.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    ctx = CheckContext(K=K, metric=metric, seed=seed, triples=triples, pairs=pairs)
    results = []
    for check in [*ALL_CHECKS, _check_tripwire]:
        if suite in ("all", check.suite):
            result = check(ctx)
            result.suite = check.suite
            results.append(result)
    return sorted(results, key=lambda r: (r.suite, r.name))
