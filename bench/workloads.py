"""The benchmark's workloads: inputs, one timed pass, and verification.

Query workloads (path-fleet, big-tree, hard-rips) read their distance
queries from `pool.json`: grid points at resolution 1/8 in the canonical
labels of each complex, with the value the exact solver gave when the pool
was made.  `make_pool.py` writes that file.  check-all has no pool; it runs
`run_checks(suite="all", seed=0)`, the code behind `metricext check`, on
each of its complexes.

Program functions are always looked up on their module at call time
(``pm.l1_path_distance``), so the tracer's wrappers see the calls the
benchmark makes as well as the calls the program makes internally.
"""

from __future__ import annotations

import hashlib
import json
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import metricext.checks as ck
import metricext.complexes as cx
import metricext.errors as er
import metricext.extension as ex
import metricext.generators as gen
import metricext.oracle as orc
import metricext.pathmetric as pm
import metricext.probes as pr
import metricext.vertexmetrics as vx
from tracer import package_modules

POOL_PATH = Path(__file__).resolve().parent / "pool.json"
RESOLUTION = 8
TOL = 1e-9  # for oracle comparisons and for agreement with pool.json
PASS_BUDGET_S = 100.0  # a pass starts no query after this; later ones fail
# A check run's cost depends heavily on the points its seed samples (with
# three seeds per run, run time still moved by 30% between runs), so the
# check seed is fixed, as in `metricext check --suite all --seed 0`.
CHECK_SEED = 0


# --------------------------------------------------------------------------
# complexes per workload


def path_fleet_complexes():
    return {
        "rips_c30": gen.rips_complex(gen.cycle_complex(30), 2),
        "random80": gen.random_complex(80, 0.08, seed=1),
        "tree2_9": gen.tree_complex(2, 9),
    }


def big_tree_complexes():
    return {"tree2_11": gen.tree_complex(2, 11)}


def check_all_complexes():
    return {
        "tree2_6": gen.tree_complex(2, 6),
        "random30": gen.random_complex(30, 0.15, seed=0),
        "rips_c12": gen.rips_complex(gen.cycle_complex(12), 2),
    }


def hard_rips_complexes():
    return {"rips_p40": gen.rips_complex(gen.path_complex(40), 3)}


@dataclass(frozen=True)
class Spec:
    name: str
    complexes: object  # () -> {name: SimplicialComplex}
    cap_s: float | None  # per-query wall cap; None for check-all's thread pool
    sample: int | None = None  # queries drawn from the pool per run; None = all


SPECS = {
    "path-fleet": Spec("path-fleet", path_fleet_complexes, cap_s=30.0),
    "big-tree": Spec("big-tree", big_tree_complexes, cap_s=10.0, sample=800),
    "check-all": Spec("check-all", check_all_complexes, cap_s=None),
    "hard-rips": Spec("hard-rips", hard_rips_complexes, cap_s=5.0),
}


def fingerprint(K) -> str:
    text = json.dumps([list(K.vertices), [list(s) for s in K.maximal_simplices]])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def clear_program_caches() -> None:
    """Empty every lru_cache in the package, so a pass pays what a new process pays."""
    for mod in package_modules():
        for obj in vars(mod).values():
            while obj is not None and not hasattr(obj, "cache_clear"):
                obj = getattr(obj, "__wrapped__", None)
            if obj is not None and callable(obj.cache_clear):
                obj.cache_clear()


@dataclass
class State:
    complexes: dict
    metrics: dict  # name -> VertexMetric (word metric)


def setup(spec: Spec) -> State:
    """Generate and build the complexes and their vertex metrics."""
    complexes = spec.complexes()
    metrics = {name: vx.word_vertex_metric(K) for name, K in complexes.items()}
    return State(complexes, metrics)


# --------------------------------------------------------------------------
# inputs


@dataclass
class Query:
    qid: str
    kind: str  # "path" | "ext" | "probe-divergence" | "probe-decay" | "check"
    complex: str
    x: object = None
    y: object = None
    expected: float | None = None
    extra: dict = field(default_factory=dict)


def _point(K, numerators: dict):
    return cx.make_point(K, {v: c / RESOLUTION for v, c in numerators.items()})


def make_inputs(spec: Spec, state: State, seed: int) -> list[Query]:
    """The run's queries, materialized as points; the seed orders and samples."""
    rng = np.random.default_rng(seed)
    if spec.name == "check-all":
        names = list(state.complexes)
        return [Query(names[i], "check", names[i]) for i in rng.permutation(len(names))]
    with open(POOL_PATH) as fh:
        entry = json.load(fh)["workloads"][spec.name]
    for name, K in state.complexes.items():
        want = entry["fingerprints"][name]
        if fingerprint(K) != want:
            raise SystemExit(
                f"{spec.name}: complex {name} differs from the one pool.json was made on "
                f"({fingerprint(K)} != {want}); the workload's inputs changed, "
                f"regenerate the pool with bench/make_pool.py"
            )
    rows = entry["queries"]
    order = rng.permutation(len(rows))
    if spec.sample is not None:
        order = order[: spec.sample]
    queries = []
    for i in order:
        row = rows[int(i)]
        K = state.complexes[row["complex"]]
        queries.append(
            Query(row["id"], row["kind"], row["complex"], _point(K, row["x"]), _point(K, row["y"]), row["expected"])
        )
    if spec.name == "big-tree":
        K = state.complexes["tree2_11"]
        ray = pr.deepest_ray(K, min(K.vertices))
        queries.append(Query("divergence", "probe-divergence", "tree2_11", extra={"ray": ray}))
        quads = gen.nested_quadruples(K, rng, count=20)
        queries.append(Query("decay", "probe-decay", "tree2_11", extra={"quads": quads}))
    return queries


# --------------------------------------------------------------------------
# one timed pass


class QueryTimeout(BaseException):
    """Raised by SIGALRM when a query outlives its cap.

    A BaseException, so no `except Exception` in the program can swallow it.
    """


def _on_alarm(signum, frame):
    raise QueryTimeout


@dataclass
class Outcome:
    qid: str
    latency_s: float
    value: object = None  # PathResult | (value, branch) | probe reports | CheckResults
    error: str | None = None


def _capped(fn, cap_s: float):
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _probe(M, K, q: Query):
    if q.kind == "probe-divergence":
        ray = q.extra["ray"]
        a2 = cx.vertex_point(K, ray.vertices[0])
        b = cx.vertex_point(K, ray.vertices[1])
        crossed = pr.dd_divergence_probe(M, [ray, a2, b, ray])
        straight = pr.dd_divergence_probe(M, [ray, a2, ray, b])
        return crossed, straight
    points = [tuple(cx.vertex_point(K, v) for v in quad) for quad in q.extra["quads"]]
    return pr.decay_probe(M, points)


def run_query_pass(
    spec: Spec, state: State, queries: list[Query], tracer=None, budget_s: float = PASS_BUDGET_S
) -> tuple[float, list[Outcome]]:
    """Every query once, in order, each under the per-query cap."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    ext = {name: ex.ExtendedMetric(K, state.metrics[name]) for name, K in state.complexes.items()}
    out = []
    start = time.perf_counter()
    try:
        for q in queries:
            if time.perf_counter() - start > budget_s:
                out.append(Outcome(q.qid, 0.0, error="not started: pass budget spent"))
                continue
            if tracer is not None:
                tracer.query = q.qid
            K, M = state.complexes[q.complex], ext[q.complex]
            if q.kind == "path":
                call = lambda: pm.l1_path_distance(K, q.x, q.y)
            elif q.kind == "ext":
                call = lambda: M.distance_with_branch(q.x, q.y)
            else:
                call = lambda: _probe(M, K, q)
            t0 = time.perf_counter()
            try:
                value = _capped(call, spec.cap_s)
                out.append(Outcome(q.qid, time.perf_counter() - t0, value))
            except QueryTimeout:
                out.append(Outcome(q.qid, time.perf_counter() - t0, error=f"timeout after {spec.cap_s} s"))
            except er.MetricExtError as exc:
                out.append(Outcome(q.qid, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
        if tracer is not None:
            tracer.query = "after"
    return wall, out


def run_check_pass(state: State, queries: list[Query], tracer=None) -> tuple[float, list[Outcome]]:
    """One `check --suite all` run per query, as a new process would run it.

    A query's outcome is the list of CheckResults, the tripwire check
    included.  Program caches are emptied before each run.
    """
    out = []
    start = time.perf_counter()
    for q in queries:
        clear_program_caches()
        if tracer is not None:
            tracer.query = q.qid
        t0 = time.perf_counter()
        try:
            results = ck.run_checks(
                state.complexes[q.complex], state.metrics[q.complex], suite="all", seed=CHECK_SEED
            )
            out.append(Outcome(q.qid, time.perf_counter() - t0, results))
        except Exception as exc:  # a raising check must not stop the benchmark
            out.append(Outcome(q.qid, time.perf_counter() - t0, error=f"run_checks raised {exc!r}"))
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.query = "after"
    return wall, out


# --------------------------------------------------------------------------
# verification, outside the timed phase


def _verify_path(state: State, q: Query, result) -> str | None:
    K = state.complexes[q.complex]
    value, witness = result
    witness.validate(K)
    if abs(witness.length - value) > TOL:
        return f"witness length {witness.length} != value {value}"
    for a, b in ((q.x, q.y), (q.y, q.x)):
        for name, bound in pm.lower_bounds(K, a, b):
            if value < bound - TOL:
                return f"value {value} below the {name} bound {bound}"
    h = 1.0 / RESOLUTION
    grid = orc.grid_oracle_path_distance(K, q.x, q.y, h)
    if not (value <= grid + TOL and grid - value <= K.dimension * h * (1.0 + value)):
        return f"value {value} outside the grid-oracle sandwich (grid {grid})"
    if q.expected is not None and abs(value - q.expected) > TOL:
        return f"value {value} != expected {q.expected}"
    return None


def _verify_ext(state: State, q: Query, result, path_value) -> str | None:
    value, _branch = result
    metric = state.metrics[q.complex]
    bilinear = ex.bilinear_extension(metric, q.x, q.y)
    if value > bilinear + TOL:
        return f"value {value} above the bilinear form {bilinear}"
    if path_value is not None:
        want = min(bilinear, 3.0 * metric.C * path_value)
        if abs(value - want) > TOL:
            return f"value {value} != min(bilinear, 3C*path) = {want}"
    if q.expected is not None and abs(value - q.expected) > TOL:
        return f"value {value} != expected {q.expected}"
    return None


def _tree_distance(K, a: str, b: str) -> int:
    return len(orc.tree_vertex_path(K, a, b)) - 1


def _verify_divergence(state: State, q: Query, result) -> str | None:
    K = state.complexes[q.complex]
    ray = q.extra["ray"]
    ua, ub = ray.vertices[0], ray.vertices[1]
    for report, want, sign in zip(result, ("+inf-divergent", "-inf-divergent"), (1.0, -1.0)):
        if report.verdict != want:
            return f"verdict {report.verdict}, expected {want}"
        for t, value in report.table:
            oracle = sign * orc.tree_gromov_oracle(K, ua, ub, ray.vertices[int(t)])
            if abs(value - oracle) > TOL:
                return f"depth {t}: probe {value} != tree oracle {oracle}"
    return None


def _verify_decay(state: State, q: Query, report) -> str | None:
    K = state.complexes[q.complex]
    dist = {}

    def d(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in dist:
            dist[key] = _tree_distance(K, a, b)
        return dist[key]

    def dd(x, x2, y, y2):
        return 0.5 * ((d(x, y) - d(x2, y)) + (d(x2, y2) - d(x, y2)))

    threshold = report.fitted["threshold"]
    rows = []
    for u, a, b, c in q.extra["quads"]:
        m = max(dd(u, a, b, c), dd(u, b, a, c))
        if m >= threshold:
            rows.append((float(m), abs(dd(u, c, a, b))))
    rows.sort()
    if len(rows) != len(report.table) or any(
        abs(m - m2) > TOL or abs(v - v2) > TOL for (m, v), (m2, v2) in zip(rows, report.table)
    ):
        return "decay table differs from tree-oracle double differences"
    return None


def _rerun_ext(state: State, queries: list[Query]) -> tuple[dict, dict]:
    """Repeat the extension queries, recording each path value the solver returns.

    A query whose recording is non-empty reached `l1_path_distance`.
    """
    original = ex.l1_path_distance
    paths: dict[str, float] = {}
    values: dict[str, tuple] = {}
    current = [None]

    def record(*args, **kwargs):
        result = original(*args, **kwargs)
        paths[current[0]] = result.value
        return result

    ext = {name: ex.ExtendedMetric(K, state.metrics[name]) for name, K in state.complexes.items()}
    ex.l1_path_distance = record
    try:
        for q in queries:
            current[0] = q.qid
            values[q.qid] = ext[q.complex].distance_with_branch(q.x, q.y)
    finally:
        ex.l1_path_distance = original
    return paths, values


def verify(state: State, queries: list[Query], outcomes: list[Outcome]) -> tuple[dict, dict]:
    """Failed queries (qid -> reason) and counts worth printing.

    Outcomes that carry an error (timeout, exception) fail without further
    checks; every other outcome is checked against the oracles and pool.json.
    """
    failed: dict[str, str] = {}
    info: dict[str, int] = {}
    by_id = {q.qid: q for q in queries}
    ok_ext = [by_id[o.qid] for o in outcomes if o.error is None and by_id[o.qid].kind == "ext"]
    paths, again = _rerun_ext(state, ok_ext)
    info["ext_queries"] = len(ok_ext)
    info["ext_reached_solver"] = len(paths)
    for o in outcomes:
        q = by_id[o.qid]
        if o.error is not None:
            failed[o.qid] = o.error
            continue
        try:
            if q.kind == "path":
                problem = _verify_path(state, q, o.value)
            elif q.kind == "ext":
                problem = _verify_ext(state, q, o.value, paths.get(q.qid))
                if problem is None and again[q.qid] != tuple(o.value):
                    problem = f"repeat gave {again[q.qid]}, timed pass gave {o.value}"
            elif q.kind == "probe-divergence":
                problem = _verify_divergence(state, q, o.value)
            elif q.kind == "probe-decay":
                problem = _verify_decay(state, q, o.value)
            else:
                bad = [r.line() for r in o.value if not r.ok]
                if not any(r.name == "lower-bound-tripwire" for r in o.value):
                    bad.append("no lower-bound tripwire check")
                problem = "; ".join(bad) or None
        except er.MetricExtError as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            failed[o.qid] = problem
    if any(q.kind == "check" for q in queries) and pm.tripwire_log().violations:
        failed["tripwire-log"] = f"tripwire violations: {pm.tripwire_log().violations[:3]}"
    return failed, info
