"""Write bench/pool.json: the fixed distance queries and their expected values.

    python3 bench/make_pool.py

Run from the repository root.  The pool is made once, from fixed seeds, and
committed; each benchmark run orders (and for big-tree samples) it with the
run's seed.  Expected values are what the exact solver returns when the pool
is made, checked here against the grid oracle; a query the solver cannot
answer within HARD_CAP_S is stored with expected value null and is checked
against the oracles only.  Regenerating the pool changes the benchmark's
inputs, so say so wherever results are compared across the change.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402

POOL_SEED = 20130904
PATH_PAIRS = 30  # per path-fleet complex
NEAR_PAIRS = 100  # per path-fleet complex with shared edges
TREE_PAIRS = 3000
HARD_PAIRS = 20
HARD_CAP_S = 15.0


def numerators(x) -> dict:
    return {v: round(w * W.RESOLUTION) for v, w in x.items}


def near_pair(K, rng, shared):
    """Points of two maximal simplices that share an edge or more, heavy on the shared face.

    Each vertex outside the shared face F gets 1/8 and F gets the rest, so
    the points are close while their supports span no common simplex.  About
    one such pair in five gets past the lower-bound floor to the solver;
    uniformly weighted pairs almost never do.
    """
    sigma, tau = shared[rng.integers(len(shared))]
    face = sorted(set(sigma) & set(tau))
    points = []
    for simplex in (sigma, tau):
        weights = {v: 1 for v in simplex if v not in face}
        extra = rng.multinomial(W.RESOLUTION - len(simplex), [1.0 / len(face)] * len(face))
        weights.update({v: 1 + int(e) for v, e in zip(face, extra)})
        points.append(W.cx.make_point(K, {v: c / W.RESOLUTION for v, c in weights.items()}))
    return points


def tree_pair(K, rng):
    """Two edge points that share their support vertex v."""
    inner = [v for v in K.vertices if len(K.adjacency[v]) >= 2]
    v = inner[rng.integers(len(inner))]
    u1, u2 = rng.choice(K.adjacency[v], size=2, replace=False)
    a, b = (int(k) for k in rng.integers(1, W.RESOLUTION, size=2))
    x = W.cx.make_point(K, {v: a / W.RESOLUTION, str(u1): 1 - a / W.RESOLUTION})
    y = W.cx.make_point(K, {v: b / W.RESOLUTION, str(u2): 1 - b / W.RESOLUTION})
    return x, y


def build(spec, draw) -> dict:
    state = W.setup(spec)
    rng = np.random.default_rng(POOL_SEED)
    queries = draw(state, rng)
    _, outcomes = W.run_query_pass(spec, state, queries, budget_s=float("inf"))
    for q, out in zip(queries, outcomes):
        q.expected = None if out.error is not None else out.value[0]
    failed, info = W.verify(state, queries, outcomes)
    failed = {k: v for k, v in failed.items() if not v.startswith("timeout")}
    if failed:
        raise SystemExit(f"{spec.name}: pool queries fail verification: {failed}")
    print(f"{spec.name}: {len(queries)} queries, {info}", file=sys.stderr)
    return {
        "fingerprints": {name: W.fingerprint(K) for name, K in state.complexes.items()},
        "queries": [
            {
                "id": q.qid,
                "kind": q.kind,
                "complex": q.complex,
                "x": numerators(q.x),
                "y": numerators(q.y),
                "expected": q.expected,
            }
            for q in queries
        ],
    }


def draw_path_fleet(state, rng):
    out = []
    for name, K in state.complexes.items():
        for i in range(PATH_PAIRS):
            x = W.gen.grid_point(K, rng, W.RESOLUTION)
            y = W.gen.grid_point(K, rng, W.RESOLUTION)
            out.append(W.Query(f"{name}/path{i:03d}", "path", name, x, y))
        shared = [
            (s, t)
            for s, t in combinations(K.maximal_simplices, 2)
            if len(set(s) & set(t)) >= 2
        ]
        if shared:
            for i in range(NEAR_PAIRS):
                x, y = near_pair(K, rng, shared)
                out.append(W.Query(f"{name}/near{i:03d}", "ext", name, x, y))
    return out


def draw_big_tree(state, rng):
    K = state.complexes["tree2_11"]
    return [W.Query(f"tree2_11/pair{i:04d}", "ext", "tree2_11", *tree_pair(K, rng)) for i in range(TREE_PAIRS)]


def draw_hard_rips(state, rng):
    K = state.complexes["rips_p40"]
    return [
        W.Query(f"rips_p40/path{i:03d}", "path", "rips_p40", W.gen.grid_point(K, rng, W.RESOLUTION), W.gen.grid_point(K, rng, W.RESOLUTION))
        for i in range(HARD_PAIRS)
    ]


def main() -> int:
    pool = {"resolution": W.RESOLUTION, "pool_seed": POOL_SEED, "workloads": {}}
    for name, draw in (
        ("path-fleet", draw_path_fleet),
        ("big-tree", draw_big_tree),
        ("hard-rips", draw_hard_rips),
    ):
        spec = W.SPECS[name]
        if name == "hard-rips":
            spec = W.Spec(spec.name, spec.complexes, cap_s=HARD_CAP_S)
        pool["workloads"][name] = build(spec, draw)
    with open(W.POOL_PATH, "w") as fh:
        json.dump(pool, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
